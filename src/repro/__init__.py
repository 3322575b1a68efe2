"""RaceFuzzer: race-directed random testing of concurrent programs.

A full reproduction of Koushik Sen's PLDI 2008 paper, built on a
deterministic concurrent abstract machine:

* :mod:`repro.runtime` — the abstract machine (threads as generators,
  Java-semantics monitors, seed-owned scheduling non-determinism);
* :mod:`repro.detectors` — Phase 1: hybrid / happens-before / lockset
  dynamic race detection;
* :mod:`repro.core` — Phase 2: the RaceFuzzer active random scheduler
  (Algorithms 1-2), the two-phase pipeline, seed replay, and the deadlock-
  and atomicity-directed generalizations;
* :mod:`repro.jdk` — a mini JDK collections library containing the real
  bugs of Section 5.3;
* :mod:`repro.workloads` — one benchmark per Table 1 row;
* :mod:`repro.harness` — regenerates every table and figure;
* :mod:`repro.obs` — campaign telemetry: one stream of counters, phase
  spans and timeline events, live progress, and exportable run reports.

Quickstart::

    from repro import Program, race_directed_test
    report = race_directed_test(my_program, trials=100)
    print(report)   # real races, harmful races, per-pair probabilities
"""

from .core import (
    AtomicityFuzzer,
    AtomicRegion,
    CampaignReport,
    DeadlockFuzzer,
    DefaultScheduler,
    FuzzResult,
    PairVerdict,
    ParallelCampaign,
    RaceFuzzer,
    RandomScheduler,
    baseline_exceptions,
    detect_lock_order_inversions,
    detect_races,
    fuzz_pair,
    fuzz_races,
    race_directed_test,
    replay_race,
    replays_identically,
)
from .detectors import (
    EraserLocksetDetector,
    HappensBeforeDetector,
    HybridRaceDetector,
    RaceReport,
    VectorClock,
    make_detector,
)
from .obs import Telemetry, TelemetrySnapshot, collecting
from .runtime import (
    AtomicCounter,
    Barrier,
    BlockingQueue,
    CountDownLatch,
    Execution,
    ExecutionResult,
    Lock,
    Program,
    SharedArray,
    SharedCells,
    SharedObject,
    SharedVar,
    Statement,
    StatementPair,
    join_all,
    ops,
    program,
    spawn_all,
    synchronized,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # runtime
    "ops",
    "Program",
    "program",
    "Execution",
    "ExecutionResult",
    "Statement",
    "StatementPair",
    "SharedVar",
    "SharedCells",
    "SharedArray",
    "SharedObject",
    "Lock",
    "synchronized",
    "Barrier",
    "CountDownLatch",
    "BlockingQueue",
    "AtomicCounter",
    "spawn_all",
    "join_all",
    # detectors
    "HybridRaceDetector",
    "HappensBeforeDetector",
    "EraserLocksetDetector",
    "RaceReport",
    "VectorClock",
    "make_detector",
    # core
    "RaceFuzzer",
    "ParallelCampaign",
    "fuzz_pair",
    "FuzzResult",
    "race_directed_test",
    "detect_races",
    "fuzz_races",
    "baseline_exceptions",
    "CampaignReport",
    "PairVerdict",
    "replay_race",
    "replays_identically",
    "RandomScheduler",
    "DefaultScheduler",
    "DeadlockFuzzer",
    "detect_lock_order_inversions",
    "AtomicityFuzzer",
    "AtomicRegion",
    # observability
    "Telemetry",
    "TelemetrySnapshot",
    "collecting",
]
