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
:class:`~repro.core.parallel.ParallelCampaign`.  Each takes its protocol
parameters (detector, seeds, trials, schedule, ...) by name and forwards
every other keyword, as ``**campaign``, to that engine unchanged: the
eight campaign settings ``jobs``, ``chunk_size``, ``deadline``,
``retries``, ``checkpoint``, ``faults``, ``memory_budget_mb`` and
``on_progress`` have their defaults, their checks and their meaning
there, and nowhere else.  ``jobs=1`` (the default) runs the tasks inline
on the caller's program; a pool rebuilds each program from the workload
registry in its workers, so it needs a registered workload
(``program.name`` resolvable via :func:`repro.workloads.get`); merged
results are identical at every ``jobs``.  Every campaign is supervised
(see :mod:`repro.core.supervisor`): a task that fails every attempt is
quarantined onto the campaign's failures instead of raising, while bad
caller input (an unknown detector, scheduler or schedule) raises before
any task of its phase runs.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterable, Mapping, Sequence

from repro.detectors import RaceReport, schedulable_grades, union_reports
from repro.obs import maybe_telemetry
from repro.runtime.program import Program
from repro.runtime.statement import StatementPair

from .parallel import (
    ParallelCampaign,
    check_detectors,
    inline_program,
    per_workload,
)
from .results import CampaignReport, PairVerdict
from .schedule import CampaignSchedule


@contextmanager
def open_campaign(programs: Mapping[str, Program], **settings):
    """Open the one :class:`ParallelCampaign` behind a pipeline call.

    ``programs`` maps each workload name the tasks will carry to the
    caller's program, and ``settings`` are the engine's; yields the
    engine and those names.  When ``jobs`` resolves to one worker
    (``1``, or ``None``/``0`` on a one-core host) the tasks run inline on
    the caller's live programs, so any program works; a pool rebuilds
    each program from the registry in its workers, so only then must
    every name be registered.
    """
    from repro import workloads  # deferred: core must import without workloads

    names = list(programs)
    with ParallelCampaign(**settings) as engine:
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


def detect_races(
    program: Program,
    *,
    detector: str | Sequence[str] = "hybrid",
    seeds: Sequence[int] = (0, 1, 2),
    max_steps: int = 1_000_000,
    trace_dir=None,
    store_quota: int | None = None,
    **campaign,
) -> RaceReport | dict[str, RaceReport]:
    """Phase 1: collect potentially racing statement pairs.

    Runs the program once per seed under a fully preemptive random
    scheduler with the chosen detector observing every access, and unions
    the resulting reports (more Phase-1 executions -> more coverage, as
    with any dynamic analysis).  Seed runs are independent tasks, so the
    merged report is the same at every ``jobs``.

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
    quota without a ``trace_dir`` raises ``ValueError``).

    ``campaign`` holds the engine settings (see :class:`ParallelCampaign`).
    """
    with open_campaign({program.name: program}, **campaign) as (engine, [name]):
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
    schedule: str | CampaignSchedule | None = None,
    trial_budget: int | None = None,
    time_budget: float | None = None,
    **campaign,
) -> dict[StatementPair, PairVerdict]:
    """Phase 2: fuzz the candidate pairs under a trial-allocation policy.

    ``schedule`` is the paper's fixed ``trials`` per pair by default, or
    ``"adaptive"`` with its ``trial_budget``/``time_budget``; see
    :meth:`ParallelCampaign.fuzz`.  A chunk that fails every attempt is
    quarantined onto its verdict's ``errors`` instead of sinking the
    campaign.  ``campaign`` holds the engine settings (see
    :class:`ParallelCampaign`).
    """
    with open_campaign({program.name: program}, **campaign) as (engine, [name]):
        return engine.fuzz(
            name,
            pairs,
            trials=trials,
            base_seed=base_seed,
            max_steps=max_steps,
            schedule=schedule,
            trial_budget=trial_budget,
            time_budget=time_budget,
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
    :func:`~repro.core.parallel.per_workload` mappings, and so may
    ``schedule``, one instance per workload.
    """
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
        check_detectors(detector)  # no Phase 1 runs, but a bad name still raises
        pair_lists = {name: list(per_workload(pairs, name)) for name in workloads}
        phase1 = {
            name: RaceReport.from_pairs(pair_list, program=name)
            for name, pair_list in pair_lists.items()
        }
    verdicts = engine.fuzz(
        workloads,
        pair_lists,
        trials=trials,
        base_seed=base_seed,
        max_steps=max_steps,
        schedule=schedule,
        trial_budget=trial_budget,
        time_budget=time_budget,
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
    schedule: str | CampaignSchedule | None = None,
    trial_budget: int | None = None,
    time_budget: float | None = None,
    **campaign,
) -> CampaignReport:
    """The full RaceFuzzer pipeline over one program.

    ``pairs`` may be supplied directly (e.g. from a static tool, or the
    worked examples); otherwise Phase 1 computes them.  ``detector`` may
    be a sequence of names — each Phase-1 seed then executes once with
    every detector attached and Phase 2 fuzzes the *union* of the
    reports, so a predictive detector's extra candidates ride along with
    the hybrid baseline at no added Phase-1 execution cost.
    ``schedule``/``trial_budget``/``time_budget`` are Phase 2's
    trial-allocation policy (see :meth:`ParallelCampaign.fuzz`), and a
    predictive detector's ``schedulable`` grades seed the adaptive
    schedule's priors.  Both phases share one engine, whose settings
    ``campaign`` holds (see :class:`ParallelCampaign`); tasks that fail
    every retry end up on ``CampaignReport.failures`` instead of
    aborting the campaign.  This is :func:`race_directed_campaigns` over
    one workload.
    """
    with open_campaign({program.name: program}, **campaign) as (engine, [name]):
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
    **campaign,
) -> Counter:
    """Count exception types over passive-scheduler runs (Table 1, col 10).

    Baseline runs are independent seeded executions, run as
    ``chunk_size``-run chunks, and Counter addition is commutative, so
    the merged tally is the same at every ``jobs``; a chunk that fails
    every attempt drops its runs (quarantined on the campaign's failure
    list) instead of aborting the control experiment.  ``scheduler``
    names a :func:`~repro.core.schedulers.baseline_scheduler`.
    ``campaign`` holds the engine settings (see
    :class:`ParallelCampaign`).
    """
    with open_campaign({program.name: program}, **campaign) as (engine, [name]):
        return engine.baseline(
            name,
            runs=runs,
            scheduler=scheduler,
            base_seed=base_seed,
            max_steps=max_steps,
        )
