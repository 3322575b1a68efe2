"""The two-phase RaceFuzzer pipeline, end to end.

``detect_races``      — Phase 1: run an imprecise detector over one or more
                        randomly scheduled executions, union the reports.
``fuzz_races``        — Phase 2: for every potentially racing pair, run
                        RaceFuzzer ``trials`` times with distinct seeds.
``race_directed_test``— both phases; returns a :class:`CampaignReport`
                        whose fields map 1:1 onto the paper's Table 1
                        columns for one benchmark program.
``race_directed_campaigns``— both phases for several workloads on one
                        engine (every Table 1 row at once).
``baseline_exceptions``— the passive-scheduler control (columns 10 and,
                        for Figure 2, the probability comparison).

Every entry point runs its tasks on one
:class:`~repro.core.parallel.ParallelCampaign` and takes ``jobs=``:
``1`` (default) runs the same tasks inline on the caller's program;
``N > 1`` (or ``None``/``0`` for one worker per core) fans them out
across a process pool.  Pool workers rebuild the program from the
workload registry, so a pool needs a registered workload
(``program.name`` resolvable via :func:`repro.workloads.get`); merged
results are identical to the inline run for the same seed set.
``detect_races(trace_dir=...)`` is the same one campaign: each detect
task reads its seed's trace from the store, recording it on a miss.

Every campaign is supervised.  ``deadline=`` (per-task wall-clock
budget), ``retries=`` (bounded retry with backoff), ``checkpoint=``
(append-only JSONL journal for kill/resume) and ``faults=`` (a
deterministic :class:`~repro.core.faults.FaultPlan`) tune the
supervisor; a task that fails every attempt is quarantined onto the
campaign's failures instead of raising.  Bad caller input (an unknown
detector or scheduler) raises before any task runs.
See :mod:`repro.core.supervisor` for the failure semantics.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterable, Mapping, Sequence

from repro.detectors import (
    RaceReport,
    available_detectors,
    schedulable_grades,
    union_reports,
)
from repro.obs import maybe_telemetry
from repro.runtime.program import Program
from repro.runtime.statement import StatementPair

from .parallel import ParallelCampaign, inline_program, per_workload
from .results import CampaignReport, PairVerdict
from .schedule import CampaignSchedule, make_schedule
from .schedulers import baseline_scheduler


@contextmanager
def open_campaign(programs: Mapping[str, Program], jobs: int | None, **options):
    """Open the one :class:`ParallelCampaign` behind a pipeline call.

    ``programs`` maps each workload name the tasks will carry to the
    caller's program; yields the engine and those names.  When ``jobs``
    resolves to one worker (``1``, or ``None``/``0`` on a one-core host)
    the tasks run inline on the caller's live programs, so any program
    works; a pool rebuilds each program from the registry in its
    workers, so only then must every name be registered.
    """
    from repro import workloads  # deferred: core must import without workloads

    names = list(programs)
    with ParallelCampaign(jobs=jobs, **options) as engine:
        if engine.jobs == 1:
            with inline_program(programs):
                yield engine, names
            return
        for name in names:
            try:
                workloads.get(name)
            except KeyError:
                raise ValueError(
                    f"jobs>1 needs a registered workload so worker processes "
                    f"can rebuild the program, but {name!r} is not in "
                    f"repro.workloads; register it or use jobs=1"
                ) from None
        yield engine, names


def _check_detectors(detector: str | Sequence[str]) -> None:
    """Reject unknown detector names before any task runs, at every ``jobs``.

    A task body would raise on these too, but the supervisor would then
    retry and quarantine every task instead of telling the caller.
    """
    names = [detector] if isinstance(detector, str) else list(detector)
    unknown = [name for name in names if name not in available_detectors()]
    if unknown:
        raise KeyError(
            f"unknown detector(s): {', '.join(unknown)}; "
            f"registered: {available_detectors()}"
        )


def detect_races(
    program: Program,
    *,
    detector: str | Sequence[str] = "hybrid",
    seeds: Sequence[int] = (0, 1, 2),
    max_steps: int = 1_000_000,
    jobs: int = 1,
    deadline: float | None = None,
    retries: int = 2,
    trace_dir=None,
    faults=None,
    store_quota: int | None = None,
) -> RaceReport | dict[str, RaceReport]:
    """Phase 1: collect potentially racing statement pairs.

    Runs the program once per seed under a fully preemptive random
    scheduler with the chosen detector observing every access, and unions
    the resulting reports (more Phase-1 executions -> more coverage, as
    with any dynamic analysis).  Seed runs are independent, so ``jobs=N``
    (``None``/``0`` = one worker per core, ``1`` = inline, negatives
    rejected) distributes them across workers with identical merged
    output.  ``deadline``/``retries`` tune the campaign supervisor: a
    seed run that exceeds its wall-clock deadline or keeps crashing is
    retried and eventually quarantined instead of aborting the phase.

    ``detector`` may be one name (returns that :class:`RaceReport`,
    unchanged API) or a sequence of names (returns ``{name: report}``);
    either way each seed executes the program once, with every requested
    detector observing the same event stream.

    ``trace_dir`` enables record-once / analyze-many semantics: each
    seed's task reads its execution from a :class:`~repro.trace.TraceStore`
    under that directory, recording it first on a miss, and every report
    comes from replaying the stored trace.  A warm store therefore
    answers a repeated call with *zero* program executions, and adding
    detectors to a later call costs only detector passes.

    ``store_quota`` (bytes) bounds the trace cache with LRU eviction (a
    quota without a ``trace_dir`` raises ``ValueError``), and
    ``faults`` injects a deterministic plan into the campaign (phase
    ``"detect"``).
    """
    _check_detectors(detector)
    with open_campaign(
        {program.name: program}, jobs, deadline=deadline, retries=retries, faults=faults
    ) as (engine, [name]):
        return engine.detect(
            name,
            detector=detector,
            seeds=seeds,
            max_steps=max_steps,
            trace_dir=trace_dir,
            store_quota=store_quota,
        )


def fuzz_races(
    program: Program,
    pairs: Iterable[StatementPair],
    *,
    trials: int = 100,
    base_seed: int = 0,
    max_steps: int = 1_000_000,
    jobs: int = 1,
    chunk_size: int = 25,
    deadline: float | None = None,
    retries: int = 2,
    checkpoint=None,
    faults=None,
    memory_budget_mb: float | None = None,
    on_progress=None,
    schedule: str | CampaignSchedule | None = None,
    trial_budget: int | None = None,
    time_budget: float | None = None,
) -> dict[StatementPair, PairVerdict]:
    """Phase 2: fuzz the candidate pairs under a trial-allocation policy.

    Every trial is one seeded Algorithm-1 run of
    :class:`~repro.core.racefuzzer.RaceFuzzer` with its own defaults, the
    paper's Section 5.2 protocol.

    ``schedule`` picks the policy (see :mod:`repro.core.schedule`):
    ``None``/``"fixed"`` is the paper's protocol — exactly ``trials``
    seeded trials per pair — and ``"adaptive"`` reallocates a *global*
    budget round by round toward pairs whose posterior race probability
    is still worth buying evidence about (``trial_budget`` caps total
    trials, defaulting to ``trials`` per pair; ``time_budget`` caps
    campaign wall-clock seconds; ``base_seed`` also seeds the Thompson
    draws, so adaptive campaigns are deterministic per seed).  A
    pre-built :class:`~repro.core.schedule.CampaignSchedule` may be
    passed for tuned parameters.

    Each round's allocations run as ``chunk_size``-sized tasks; ``jobs=N``
    (``None``/``0`` = one worker per core, ``1`` = inline, negatives
    rejected) spreads them over a worker pool with merged verdicts
    identical to the inline run (posterior updates are commutative, and
    allocation decisions happen only at round boundaries).

    The resilience options tune the campaign supervisor: ``deadline``
    bounds each chunk's wall-clock (distinct from ``max_steps``),
    ``retries`` bounds re-attempts of failing chunks, ``checkpoint``
    journals completed chunks to an append-only JSONL file so a killed
    campaign resumes where it left off, and ``faults`` injects a
    deterministic :class:`~repro.core.faults.FaultPlan`.
    ``memory_budget_mb`` bounds each attempt's memory growth
    (``ru_maxrss`` delta), turning a leaky chunk into a retryable
    ``memory``-kind failure.  A chunk that fails every attempt is
    quarantined onto its verdict's ``errors`` instead of sinking the
    campaign.
    """
    pair_list = list(pairs)
    sched = make_schedule(
        schedule,
        trials=trials,
        trial_budget=trial_budget,
        time_budget_s=time_budget,
        seed=base_seed,
    )
    with open_campaign(
        {program.name: program},
        jobs,
        chunk_size=chunk_size,
        deadline=deadline,
        retries=retries,
        checkpoint=checkpoint,
        faults=faults,
        memory_budget_mb=memory_budget_mb,
        on_progress=on_progress,
    ) as (engine, [name]):
        return engine.fuzz(
            name,
            pair_list,
            trials=trials,
            base_seed=base_seed,
            max_steps=max_steps,
            schedule=sched,
        )


def _emit_funnel(report: CampaignReport) -> CampaignReport:
    """Timeline: the campaign's detector funnel, candidate -> confirmed.

    Derived entirely from the merged campaign report, so the event is
    identical however the campaign executed.
    """
    telemetry = maybe_telemetry()
    if telemetry is not None:
        grades = schedulable_grades(report.phase1, report.phase1.pairs)
        telemetry.emit(
            "funnel",
            (report.program,),
            {
                "candidates": len(report.phase1.pairs),
                "schedulable": sum(1 for g in grades if g is True),
                "speculative": sum(1 for g in grades if g is False),
                "ungraded": sum(1 for g in grades if g is None),
                "confirmed": sum(
                    1
                    for verdict in report.verdicts.values()
                    if verdict.times_created > 0
                ),
            },
        )
    return report


def race_directed_campaigns(
    engine: ParallelCampaign,
    workloads: Sequence[str],
    *,
    detector: str | Sequence[str] = "hybrid",
    phase1_seeds: Sequence[int] = (0, 1, 2),
    trials: int = 100,
    base_seed: int = 0,
    max_steps: int = 1_000_000,
    pairs: Iterable[StatementPair] | None = None,
    schedule: str | CampaignSchedule | None = None,
    trial_budget: int | None = None,
    time_budget: float | None = None,
) -> dict[str, CampaignReport]:
    """Both phases for every workload on ``engine``; one report each.

    Every workload's Phase-1 seeds run as one ``detect`` batch, then its
    pairs in lockstep ``fuzz`` rounds under its own schedule; each
    report's ``failures`` are its own workload's quarantined tasks.
    ``phase1_seeds``, ``trials``, ``max_steps`` and ``pairs`` may be
    :func:`~repro.core.parallel.per_workload` mappings.
    """
    schedules = {
        name: make_schedule(
            schedule,
            trials=per_workload(trials, name),
            trial_budget=trial_budget,
            time_budget_s=time_budget,
            seed=base_seed,
        )
        for name in workloads
    }
    if pairs is None:
        found = engine.detect(
            workloads, detector=detector, seeds=phase1_seeds, max_steps=max_steps
        )
        phase1 = {
            name: union_reports(report, program=name)
            if isinstance(report, dict)
            else report
            for name, report in found.items()
        }
        pair_lists = {name: report.pairs for name, report in phase1.items()}
    else:
        pair_lists = {name: list(per_workload(pairs, name)) for name in workloads}
        phase1 = {
            name: RaceReport.from_pairs(pair_list, program=name)
            for name, pair_list in pair_lists.items()
        }
    verdicts = engine.fuzz(
        workloads,
        pair_lists,
        base_seed=base_seed,
        max_steps=max_steps,
        schedule=schedules,
        grades={
            name: schedulable_grades(phase1[name], pair_lists[name])
            for name in workloads
        },
    )
    return {
        name: _emit_funnel(
            CampaignReport(
                program=name,
                phase1=phase1[name],
                verdicts=verdicts[name],
                failures=list(engine.failures_by_workload.get(name, ())),
            )
        )
        for name in workloads
    }


def race_directed_test(
    program: Program,
    *,
    detector: str | Sequence[str] = "hybrid",
    phase1_seeds: Sequence[int] = (0, 1, 2),
    trials: int = 100,
    base_seed: int = 0,
    max_steps: int = 1_000_000,
    pairs: Iterable[StatementPair] | None = None,
    jobs: int = 1,
    chunk_size: int = 25,
    deadline: float | None = None,
    retries: int = 2,
    checkpoint=None,
    faults=None,
    memory_budget_mb: float | None = None,
    on_progress=None,
    schedule: str | CampaignSchedule | None = None,
    trial_budget: int | None = None,
    time_budget: float | None = None,
) -> CampaignReport:
    """The full RaceFuzzer pipeline over one program.

    ``pairs`` may be supplied directly (e.g. from a static tool, or the
    worked examples); otherwise Phase 1 computes them.  ``detector`` may
    be a sequence of names — each Phase-1 seed then executes once with
    every detector attached and Phase 2 fuzzes the *union* of the
    reports, so a predictive detector's extra candidates ride along with
    the hybrid baseline at no added Phase-1 execution cost.  Both phases
    share one engine: ``jobs=N`` (``None``/``0`` = one worker per core,
    ``1`` = inline, negatives rejected) parallelizes them over one
    supervised process pool.  The resilience options (``deadline``,
    ``retries``, ``checkpoint``, ``faults`` — see :func:`fuzz_races`)
    apply to both phases; tasks that fail every retry end up on
    ``CampaignReport.failures`` instead of aborting the campaign.
    ``schedule``/``trial_budget``/``time_budget`` are Phase 2's
    trial-allocation policy knobs, and a predictive detector's
    ``schedulable`` grades seed the adaptive schedule's priors.
    This is :func:`race_directed_campaigns` over one workload.
    """
    _check_detectors(detector)
    with open_campaign(
        {program.name: program},
        jobs,
        chunk_size=chunk_size,
        deadline=deadline,
        retries=retries,
        checkpoint=checkpoint,
        faults=faults,
        memory_budget_mb=memory_budget_mb,
        on_progress=on_progress,
    ) as (engine, [name]):
        return race_directed_campaigns(
            engine,
            [name],
            detector=detector,
            phase1_seeds=phase1_seeds,
            trials=trials,
            base_seed=base_seed,
            max_steps=max_steps,
            pairs=pairs,
            schedule=schedule,
            trial_budget=trial_budget,
            time_budget=time_budget,
        )[name]


def baseline_exceptions(
    program: Program,
    *,
    runs: int = 100,
    scheduler: str = "default",
    base_seed: int = 0,
    max_steps: int = 1_000_000,
    jobs: int = 1,
    chunk_size: int = 25,
    deadline: float | None = None,
    retries: int = 2,
) -> Counter:
    """Count exception types over passive-scheduler runs (Table 1, col 10).

    Baseline runs are independent seeded executions, run as
    ``chunk_size``-run chunks; ``jobs=N`` (``None``/``0`` = one worker
    per core, ``1`` = inline, negatives rejected) fans the chunks out
    across workers, and Counter addition is commutative, so the merged
    tally is the same at every ``jobs`` value.  ``deadline``/``retries``
    tune the campaign supervisor like every other pipeline entry point;
    a chunk that fails every attempt drops its runs (quarantined on the
    campaign's failure list) instead of aborting the control experiment.
    """
    baseline_scheduler(scheduler)  # reject unknown specs before any run
    with open_campaign(
        {program.name: program},
        jobs,
        chunk_size=chunk_size,
        deadline=deadline,
        retries=retries,
    ) as (engine, [name]):
        return engine.baseline(
            name,
            runs=runs,
            scheduler=scheduler,
            base_seed=base_seed,
            max_steps=max_steps,
        )
