"""Phase 2: active random testing (the paper's contribution).

* :class:`RaceFuzzer` — Algorithms 1 and 2;
* :func:`race_directed_test` — the full two-phase pipeline;
* :func:`detect_races` / :func:`fuzz_races` — the phases individually;
* :func:`baseline_exceptions` — passive-scheduler control runs;
* :mod:`~repro.core.replay` — seed-based deterministic replay;
* :class:`DeadlockFuzzer` / :class:`AtomicityFuzzer` — the Section 1
  generalization to other concurrency targets.
"""

from .atomicity_detect import AtomicityCandidate, detect_atomic_regions
from .coverage import CoverageReport, conflict_signature, measure_coverage
from .atomicityfuzzer import AtomicityFuzzer, AtomicRegion
from .deadlockfuzzer import DeadlockFuzzer, detect_lock_order_inversions
from .driver import baseline_exceptions, detect_races, fuzz_races, race_directed_test
from .faults import FaultPlan, FaultSpec, InjectedCrash, parse_fault_plan
from .parallel import (
    BaselineTask,
    DetectTask,
    FuzzTask,
    ParallelCampaign,
    fuzz_task_key,
)
from .postponing import FuzzResult, PostponingDriver, TargetHit
from .racefuzzer import RaceFuzzer, fuzz_pair
from .rapos import RaposDriver, rapos_exceptions
from .replay import (
    ReplayedRun,
    replay_race,
    replays_identically,
    schedule_signature,
    signature_from_trace,
)
from .results import CampaignReport, PairVerdict, TaskFailure
from .schedule import (
    SCHEDULES,
    AdaptiveSchedule,
    CampaignSchedule,
    FixedSchedule,
    TrialChunk,
    make_schedule,
)
from .supervisor import (
    CampaignSupervisor,
    SupervisorReport,
    TaskDeadlineExceeded,
    compute_backoff,
)
from .schedulers import (
    DefaultScheduler,
    RandomScheduler,
    Scheduler,
    baseline_scheduler,
)

__all__ = [
    "RaceFuzzer",
    "fuzz_pair",
    "FuzzResult",
    "TargetHit",
    "PostponingDriver",
    "race_directed_test",
    "detect_races",
    "fuzz_races",
    "baseline_exceptions",
    "CampaignReport",
    "PairVerdict",
    "ReplayedRun",
    "replay_race",
    "replays_identically",
    "Scheduler",
    "RandomScheduler",
    "DefaultScheduler",
    "baseline_scheduler",
    "DeadlockFuzzer",
    "detect_lock_order_inversions",
    "AtomicityFuzzer",
    "AtomicRegion",
    "AtomicityCandidate",
    "detect_atomic_regions",
    "ParallelCampaign",
    "DetectTask",
    "FuzzTask",
    "BaselineTask",
    "schedule_signature",
    "signature_from_trace",
    "fuzz_task_key",
    "CampaignSchedule",
    "FixedSchedule",
    "AdaptiveSchedule",
    "TrialChunk",
    "make_schedule",
    "SCHEDULES",
    "CampaignSupervisor",
    "SupervisorReport",
    "compute_backoff",
    "TaskDeadlineExceeded",
    "TaskFailure",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "parse_fault_plan",
    "RaposDriver",
    "rapos_exceptions",
    "CoverageReport",
    "conflict_signature",
    "measure_coverage",
]
