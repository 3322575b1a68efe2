"""Parallel campaign engine: process-pool fan-out for both phases.

The paper observes that RaceFuzzer is embarrassingly parallel: "since
different invocations of RaceFuzzer are independent of each other,
performance of RaceFuzzer can be increased linearly with the number of
processors or cores" (Section 1).  A trial is a pure function of
``(program, pair, seed)``, and a Phase-1 detection run is a pure function
of ``(program, detector, seed)`` — so a campaign is a bag of independent
tasks.  This module fans that bag out across a
:class:`concurrent.futures.ProcessPoolExecutor`.

Design constraints, and how they are met:

* **Tasks must be picklable.**  A :class:`~repro.runtime.program.Program`
  wraps an arbitrary factory closure, so programs never cross the process
  boundary.  Instead a task spec (:class:`DetectTask` / :class:`FuzzTask`)
  addresses the workload *by registry name*; the worker rebuilds the
  program in the child via :func:`repro.workloads.get`.  Pairs travel as
  :class:`~repro.runtime.statement.StatementPair` value objects (plain
  frozen dataclasses of strings and ints), seeds as explicit
  ``(start, count)`` ranges.
* **Results must merge deterministically.**  Workers return compact
  :class:`~repro.detectors.RaceReport` / :class:`.results.PairVerdict`
  deltas (pure value objects).  The parent indexes every future by its
  submission position and folds results in *submission* order — never
  completion order — so the merged campaign is identical to the serial
  run for the same seed set, regardless of worker scheduling.
* **``jobs=1`` runs the same tasks inline on the caller's program.**  The
  engine runs task bodies in submission order with no pool, and
  :func:`inline_program` resolves the task's workload name to the
  caller's live :class:`~repro.runtime.program.Program`, so an
  unregistered program works too.  This is the only serial path.
* **A detect task with a ``trace_dir`` owns its store read.**  It reads
  its seed's trace from the store, recording it on a miss, and replays it
  for every detector, inline or in a worker alike, so store counters
  behave the same at every ``jobs``.

The engine, :class:`ParallelCampaign`, is a
:class:`~repro.core.supervisor.CampaignSupervisor`: it inherits the
failure story (per-task wall-clock deadlines, bounded retry,
broken-pool recovery, quarantine, checkpoint/resume) and every setting
that tunes it, and adds only ``chunk_size`` and ``on_progress``.  See
that module for the semantics; this one stays about *what* a task is and
*how* results merge.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.detectors import RaceReport, available_detectors, make_detectors
from repro.obs import ProgressUpdate, maybe_telemetry, span
from repro.obs.timeline import pair_label
from repro.runtime.interpreter import Execution
from repro.runtime.program import Program
from repro.runtime.statement import StatementPair

from .results import PairVerdict, TaskFailure
from .schedule import CampaignSchedule, chunk_spans, make_schedule
from .schedulers import RandomScheduler, baseline_scheduler
from .supervisor import CampaignSupervisor, SupervisorReport


# --------------------------------------------------------------------- #
# Task specs: the picklable unit of work shipped to a worker process.
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class DetectTask:
    """One Phase-1 seed: one execution observed by every named detector.

    The worker returns ``{name: RaceReport}`` for ``detectors``: N
    detectors on one seed cost one program execution, not N.  With a
    ``trace_dir`` the task reads the seed's trace from the
    :class:`~repro.trace.TraceStore` there, recording it first on a miss,
    and every report comes from replaying that trace, so cold and warm
    stores give identical reports.
    """

    workload: str
    seed: int = 0
    detectors: tuple[str, ...] = ("hybrid",)
    max_steps: int = 1_000_000
    trace_dir: str | None = None

    def trace_key(self):
        """The store key of this seed's Phase-1 execution."""
        from repro.trace import detect_key  # deferred: trace imports core

        return detect_key(self.workload, self.seed, max_steps=self.max_steps)

    def stored_trace(self) -> str | None:
        """The stored trace this task would read, if the store has it."""
        if self.trace_dir is None:
            return None
        from repro.trace import TraceStore

        path = TraceStore(self.trace_dir).get(self.trace_key())
        return None if path is None else str(path)


@dataclass(frozen=True)
class BaselineTask:
    """One passive-scheduler baseline chunk: ``count`` consecutive runs."""

    workload: str
    scheduler: str = "default"
    seed_start: int = 0
    count: int = 1
    max_steps: int = 1_000_000


@dataclass(frozen=True)
class FuzzTask:
    """One Phase-2 chunk: ``count`` consecutive seeded trials of one pair."""

    workload: str
    pair: StatementPair
    seed_start: int = 0
    count: int = 1
    max_steps: int = 1_000_000


#: the caller's programs, by workload name, that inline task bodies run
#: (see inline_program).
_INLINE_PROGRAMS: ContextVar[Mapping[str, Program]] = ContextVar(
    "inline_programs", default={}
)


@contextmanager
def inline_program(programs: Mapping[str, Program]):
    """Run inline tasks addressed to a name in ``programs`` on its program.

    Task specs carry a workload name so they stay picklable; in this
    process, while the block runs, each name resolves to the caller's
    live program instead of a registry rebuild, so a ``jobs=1`` campaign
    needs no registered workload.  Bind it only around an engine that
    starts no pool: pool workers resolve names through the registry.
    """
    token = _INLINE_PROGRAMS.set(dict(programs))
    try:
        yield
    finally:
        _INLINE_PROGRAMS.reset(token)


def _build_workload(name: str):
    """The program a task names: an inline program, else a registry build."""
    live = _INLINE_PROGRAMS.get().get(name)
    if live is not None:
        return live
    from repro import workloads  # deferred: keep core importable alone

    return workloads.get(name).build()


def per_workload(value, name: str):
    """``name``'s share of an argument of a call over several workloads:
    ``value[name]`` for a ``{workload: value}`` mapping, else ``value``."""
    return value[name] if isinstance(value, Mapping) else value


def _workload_names(workload: str | Sequence[str]) -> list[str]:
    """The workload names of an engine call: one name, or several."""
    return [workload] if isinstance(workload, str) else list(workload)


def check_detectors(detector: str | Sequence[str]) -> tuple[str, ...]:
    """The detector names of a call, as a tuple; ``KeyError`` on any
    name outside the registry.

    Called before any task is built: a task body would raise on these
    too, but the supervisor would then retry and quarantine every task
    instead of telling the caller.
    """
    names = (detector,) if isinstance(detector, str) else tuple(detector)
    unknown = [name for name in names if name not in available_detectors()]
    if unknown:
        raise KeyError(
            f"unknown detector(s): {', '.join(unknown)}; "
            f"valid: {', '.join(available_detectors())}"
        )
    return names


def run_detect_task(task: DetectTask) -> dict[str, RaceReport]:
    """Worker entrypoint: one seed's detector reports, by name."""
    program = _build_workload(task.workload)
    if task.trace_dir is None:
        observers, collect = make_detectors(task.detectors)
        Execution(
            program,
            seed=task.seed,
            observers=observers,
            max_steps=task.max_steps,
        ).run(RandomScheduler(preemption="every"))
        reports = collect()
    else:
        # Looked up at call time, not import time, so a caller that swaps
        # these module attributes sees every store and analysis.
        from repro.trace import TraceStore, analyze_trace

        reports = TraceStore(task.trace_dir).with_recovery(
            task.trace_key(),
            program,
            lambda path: analyze_trace(path, task.detectors),
        )
    telemetry = maybe_telemetry()
    if telemetry is not None:
        telemetry.emit(
            "detect",
            (task.workload, task.seed),
            {name: len(report.evidence) for name, report in reports.items()},
        )
    return reports


def run_baseline_task(task: BaselineTask) -> Counter:
    """Worker entrypoint: count crash kinds over one baseline seed range."""
    program = _build_workload(task.workload)
    crashes: Counter = Counter()
    for seed in range(task.seed_start, task.seed_start + task.count):
        execution = Execution(program, seed=seed, max_steps=task.max_steps)
        result = execution.run(baseline_scheduler(task.scheduler))
        for crash in result.crashes:
            crashes[crash.error_type] += 1
        if result.deadlock:
            crashes["Deadlock"] += 1
    return crashes


def run_fuzz_task(task: FuzzTask) -> PairVerdict:
    """Worker entrypoint: fuzz one pair over one seed range."""
    from .racefuzzer import RaceFuzzer  # deferred: avoid import cycle

    program = _build_workload(task.workload)
    fuzzer = RaceFuzzer(task.pair, max_steps=task.max_steps)
    verdict = PairVerdict(pair=task.pair)
    telemetry = maybe_telemetry()
    chunk_wall = time.time() if telemetry is not None else 0.0
    chunk_t0 = time.perf_counter() if telemetry is not None else 0.0
    with span(f"pair.{pair_label(task.pair)}"):
        for seed in range(task.seed_start, task.seed_start + task.count):
            verdict.absorb(fuzzer.run(program, seed=seed))
    if telemetry is not None:
        telemetry.emit(
            "chunk",
            (task.workload, pair_label(task.pair), task.seed_start),
            {
                "count": task.count,
                "trials": verdict.trials,
                "created": verdict.times_created,
            },
            wall_s=chunk_wall,
            dur_s=time.perf_counter() - chunk_t0,
        )
    return verdict


def fuzz_task_key(task: FuzzTask) -> str:
    """Stable checkpoint-journal key for one Phase-2 chunk.

    Covers every field that affects the chunk's verdict, so a journaled
    result is only reused by a campaign running the *same* protocol; any
    parameter change misses the cache and re-executes.  The pair is
    spelled as its statements' tokens, as the journaled verdict spells
    it, so a journal resumes in any checkout.
    """
    fields = {
        "workload": task.workload,
        "pair": task.pair.to_token(),
        "seed_start": task.seed_start,
        "count": task.count,
        "max_steps": task.max_steps,
    }
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------- #
# The campaign engine.
# --------------------------------------------------------------------- #


class ParallelCampaign(CampaignSupervisor):
    """Fan a two-phase campaign out across supervised worker processes.

    The engine *is* a :class:`~repro.core.supervisor.CampaignSupervisor`:
    every task — Phase-1 detection runs, baseline chunks and Phase-2 fuzz
    chunks alike — runs through its ``supervise`` loop, with per-task
    wall-clock deadlines, bounded retry, broken-pool recovery
    (with graceful degradation to inline serial execution), quarantine of
    persistently failing tasks, and checkpoint/resume for Phase-2 chunks.
    Its eight settings are the campaign settings of every pipeline
    function (:mod:`repro.core.driver`, :mod:`repro.harness.table1`),
    which forward them here unchanged, so their defaults and checks live
    only here.  It takes the supervisor's six (``jobs``, ``deadline``,
    ``retries``, ``checkpoint``, ``faults``, ``memory_budget_mb``; see
    :class:`~repro.core.supervisor.CampaignSupervisor`) and adds two.

    Parameters:
        chunk_size: Phase-2 (and baseline) seeds per task, at least 1.
            Small chunks parallelize better; large chunks amortize
            per-task overhead.  Chunking never changes merged aggregates
            (trials are independent and the merge is associative).
        on_progress: called with a :class:`~repro.obs.ProgressUpdate`
            each time a task settles.

    :meth:`detect`, :meth:`baseline` and :meth:`fuzz` take one workload
    name, or several whose tasks then share each batch.  Each rejects
    bad caller input (an unknown detector, scheduler or schedule) before
    any task runs.

    Quarantined tasks accumulate on :attr:`failures` and, by the task's
    workload, on :attr:`failures_by_workload` (and, for fuzz chunks, on
    the owning verdict's ``errors``).
    """

    def __init__(
        self,
        *,
        chunk_size: int = 25,
        on_progress: Callable[[ProgressUpdate], None] | None = None,
        **supervision,
    ) -> None:
        super().__init__(**supervision)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.on_progress = on_progress
        self.failures_by_workload: dict[str, list[TaskFailure]] = {}

    def supervise(self, fn: str, tasks, **options) -> SupervisorReport:
        """Supervise one batch, filing each quarantine under its workload."""
        report = super().supervise(fn, tasks, **options)
        for failure in report.failures:
            workload = tasks[failure.index].workload
            self.failures_by_workload.setdefault(workload, []).append(failure)
        return report

    def _settle_hooks(
        self,
        phase: str,
        planned: Callable[[], int] = lambda: 0,
        confirms: Callable[[], int] | None = None,
    ):
        """The one progress path: ``on_settle`` callbacks for ``phase``.

        Returns ``hook(tasks, record=None)``, to call once per supervised
        batch of ``phase``.  The callback it builds hands each settled
        result to ``record(index, result)``, then reports to
        :attr:`on_progress`: tasks settled so far against every task
        issued plus ``planned()`` tasks still to come (the schedule's
        estimate), and the ``confirms()`` count when given.
        """
        start = time.monotonic()
        counts = {"done": 0, "issued": 0}

        def hook(tasks, record=None):
            counts["issued"] += len(tasks)

            def on_settle(index: int, result) -> None:
                if record is not None and result is not None:
                    record(index, result)
                counts["done"] += 1
                if self.on_progress is None:
                    return
                later = planned()
                self.on_progress(
                    ProgressUpdate(
                        phase=phase,
                        done=counts["done"],
                        total=counts["issued"] + later,
                        confirms=None if confirms is None else confirms(),
                        elapsed_s=time.monotonic() - start,
                        remaining=counts["issued"] - counts["done"] + later,
                    )
                )

            return on_settle

        return hook

    # -- Phase 1 ------------------------------------------------------- #

    def detect(
        self,
        workload: str | Sequence[str],
        *,
        detector: "str | Sequence[str]" = "hybrid",
        seeds: Sequence[int] = (0, 1, 2),
        max_steps: int = 1_000_000,
        trace_dir=None,
    ) -> "RaceReport | dict[str, RaceReport]":
        """Run one detection per seed concurrently; union the reports.

        Reports merge in seed order (not completion order), so the union
        — pair set, per-pair counts, first-witness evidence — is the same
        at every ``jobs`` value.

        ``detector`` may be a sequence of names: each seed then executes
        *once* with every detector attached, and the result is a
        ``{name: merged report}`` dict (a string argument returns the bare
        :class:`RaceReport`); an unknown name is a ``KeyError``.
        ``trace_dir`` sends every seed through the trace store there (see
        :class:`DetectTask`); a ``trace_dir`` that cannot be a directory
        (it, or its nearest existing ancestor, is a file) is a
        ``ValueError``.

        For a sequence of ``workload`` names, ``seeds`` and
        ``max_steps`` may be :func:`per_workload` mappings and the
        result is ``{workload: result}``.
        """
        single = isinstance(detector, str)
        detectors = check_detectors(detector)
        if not detectors:
            raise ValueError("detect needs at least one detector")
        if trace_dir is not None:
            # A store under a file fails every task, which the supervisor
            # would retry and quarantine; say so before any task runs.
            path = Path(trace_dir)
            existing = next(p for p in (path, *path.parents) if p.exists())
            if not existing.is_dir():
                raise ValueError(
                    f"trace_dir must be a directory, but {existing} is a file"
                )
        workloads = _workload_names(workload)
        tasks = []
        for name in workloads:
            seed_list = list(per_workload(seeds, name))
            if not seed_list:
                raise ValueError("detect needs at least one seed")
            tasks.extend(
                DetectTask(
                    workload=name,
                    seed=seed,
                    detectors=detectors,
                    max_steps=per_workload(max_steps, name),
                    trace_dir=None if trace_dir is None else str(trace_dir),
                )
                for seed in seed_list
            )
        with span("phase1.detect"):
            report = self.supervise(
                "detect",
                tasks,
                validate=lambda task, r: isinstance(r, dict),
                on_settle=self._settle_hooks("detect")(tasks),
            )
        # Quarantined seeds lose their coverage contribution (recorded on
        # `failures`) but never abort the phase.
        merged = {
            name: {d: RaceReport(program=name, detector=d) for d in detectors}
            for name in workloads
        }
        for task, result in zip(tasks, report.results):  # seed order
            if result is not None:
                for d in detectors:
                    merged[task.workload][d].merge(result[d])
        if single:
            merged = {name: reports[detector] for name, reports in merged.items()}
        return merged[workload] if isinstance(workload, str) else merged

    # -- baseline (passive-scheduler control) -------------------------- #

    def baseline(
        self,
        workload: str | Sequence[str],
        *,
        runs: int = 100,
        scheduler: str = "default",
        base_seed: int = 0,
        max_steps: int = 1_000_000,
    ) -> "Counter | dict[str, Counter]":
        """Chunked passive-scheduler control runs; summed crash counter.

        Counter addition is commutative, so the merged tally is the same
        at every ``jobs`` value for whatever chunks completed; quarantined
        chunks drop their runs (recorded on :attr:`failures`) instead of
        sinking the control experiment.  ``scheduler`` names a
        :func:`~repro.core.schedulers.baseline_scheduler`; an unknown name
        is a ``ValueError``.  For several workloads, ``max_steps`` may be
        :func:`per_workload` and the result is ``{workload: counter}``.
        """
        baseline_scheduler(scheduler)  # an unknown name raises here
        workloads = _workload_names(workload)
        tasks = [
            BaselineTask(
                workload=name,
                scheduler=scheduler,
                seed_start=start,
                count=count,
                max_steps=per_workload(max_steps, name),
            )
            for name in workloads
            for start, count in chunk_spans(base_seed, runs, self.chunk_size)
        ]
        with span("baseline"):
            report = self.supervise(
                "baseline",
                tasks,
                validate=lambda task, r: isinstance(r, Counter),
                on_settle=self._settle_hooks("baseline")(tasks),
            )
        crashes = {name: Counter() for name in workloads}
        for task, result in zip(tasks, report.results):
            if result is not None:
                crashes[task.workload].update(result)
        return crashes[workload] if isinstance(workload, str) else crashes

    # -- Phase 2 ------------------------------------------------------- #

    def fuzz(
        self,
        workload: str | Sequence[str],
        pairs: Iterable[StatementPair],
        *,
        trials: int = 100,
        base_seed: int = 0,
        max_steps: int = 1_000_000,
        schedule: str | CampaignSchedule | None = None,
        trial_budget: int | None = None,
        time_budget: float | None = None,
        grades: "Sequence[bool | None] | None" = None,
    ) -> "dict[StatementPair, PairVerdict] | dict[str, dict]":
        """Fuzz every pair under a trial-allocation policy; merge verdicts.

        Every trial is one seeded Algorithm-1 run of
        :class:`~repro.core.racefuzzer.RaceFuzzer` with its own defaults,
        the paper's Section 5.2 protocol.  ``schedule`` picks the
        allocation policy (see :mod:`repro.core.schedule`), resolved here
        once per workload by :func:`~repro.core.schedule.make_schedule`:
        ``None``/``"fixed"`` spends exactly ``trials`` per pair — one
        batch of pair-major chunks — while ``"adaptive"`` runs the batch
        loop round by round, feeding every settled chunk's verdict back
        into the policy between batches.  Its global budget is
        ``trial_budget`` trials (default ``trials`` per pair) and
        ``time_budget`` wall-clock seconds (either budget with another
        schedule is a ``ValueError``), and ``base_seed`` also seeds its
        Thompson draws, so adaptive campaigns are deterministic per
        seed.  A :class:`CampaignSchedule` instance passes through, for
        tuned parameters.

        ``grades`` (optional, aligned with ``pairs``) forwards Phase-1
        ``schedulable`` grades into the schedule — the adaptive policy
        boosts graded-schedulable pairs' prior alpha deterministically.

        Chunk verdicts for one pair merge in seed order within each
        round, and posterior updates are commutative, so aggregates are
        the same at every ``jobs`` value for one seed set and schedule
        (except wall-clock sums, which are measured).

        For a sequence of ``workload`` names, ``pairs`` is a ``{workload:
        pairs}`` mapping; ``schedule``, ``trials``, ``grades`` and
        ``max_steps`` may be :func:`per_workload` mappings, and the
        result is ``{workload: verdicts}``.  A schedule instance binds to
        one workload, so one instance given to several is a
        ``ValueError``.  Each batch holds the next round of every
        workload whose schedule still issues one, so each schedule sees
        exactly the results it would see alone.
        """
        workloads = _workload_names(workload)
        pair_lists = {name: list(per_workload(pairs, name)) for name in workloads}
        schedules = {
            name: make_schedule(
                per_workload(schedule, name),
                trials=per_workload(trials, name),
                trial_budget=trial_budget,
                time_budget_s=time_budget,
                seed=base_seed,
            )
            for name in workloads
        }
        if len({id(sched) for sched in schedules.values()}) < len(schedules):
            raise ValueError(
                "one CampaignSchedule instance cannot serve several workloads; "
                "pass a {workload: schedule} mapping with one instance each"
            )
        for name, sched in schedules.items():
            sched.bind(
                pair_lists[name],
                workload=name,
                base_seed=base_seed,
                chunk_size=self.chunk_size,
                grades=per_workload(grades, name),
            )
        verdicts = {
            name: {pair: PairVerdict(pair=pair) for pair in pair_list}
            for name, pair_list in pair_lists.items()
        }
        live = dict(schedules)  # workloads whose schedule still issues rounds
        confirmed: set[tuple[str, StatementPair]] = set()  # progress display
        hook = self._settle_hooks(
            "fuzz",
            planned=lambda: sum(sched.planned_chunks() for sched in live.values()),
            confirms=lambda: len(confirmed),
        )
        with span("phase2.fuzz"):
            while True:
                chunks = []
                for name in list(live):
                    batch = live[name].next_batch()
                    if not batch:
                        del live[name]
                    chunks.extend((name, chunk) for chunk in batch)
                if not chunks:
                    break
                tasks = [
                    FuzzTask(
                        workload=name,
                        pair=pair_lists[name][chunk.pair_index],
                        seed_start=chunk.seed_start,
                        count=chunk.count,
                        max_steps=per_workload(max_steps, name),
                    )
                    for name, chunk in chunks
                ]

                def record(index: int, verdict: PairVerdict) -> None:
                    name, chunk = chunks[index]
                    schedules[name].record(chunk, verdict)
                    if verdict.times_created:
                        confirmed.add((name, tasks[index].pair))

                report = self.supervise(
                    "fuzz",
                    tasks,
                    validate=lambda task, r: (
                        isinstance(r, PairVerdict) and r.pair == task.pair
                    ),
                    key_fn=fuzz_task_key,
                    encode=lambda verdict: verdict.to_jsonable(),
                    decode=PairVerdict.from_jsonable,
                    on_settle=hook(tasks, record),
                )
                for task, verdict in zip(tasks, report.results):  # submission order
                    if verdict is not None:
                        verdicts[task.workload][task.pair].merge(verdict)
                for failure in report.failures:
                    task = tasks[failure.index]
                    verdicts[task.workload][task.pair].errors.append(failure)
        return verdicts[workload] if isinstance(workload, str) else verdicts


__all__ = [
    "ParallelCampaign",
    "DetectTask",
    "FuzzTask",
    "BaselineTask",
    "run_detect_task",
    "run_fuzz_task",
    "run_baseline_task",
    "fuzz_task_key",
    "inline_program",
    "per_workload",
]
