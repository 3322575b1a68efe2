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
  for every detector, inline or in a worker alike, so store counters and
  quotas behave the same at every ``jobs``.

The engine, :class:`ParallelCampaign`, is a
:class:`~repro.core.supervisor.CampaignSupervisor`: it inherits the
failure story (per-task wall-clock deadlines, retry with backoff,
broken-pool recovery, quarantine, checkpoint/resume) and every setting
that tunes it, and adds only ``chunk_size`` and ``on_progress``.  See
that module for the semantics; this one stays about *what* a task is and
*how* results merge.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.detectors import RaceReport, make_detectors
from repro.obs import ProgressUpdate, maybe_telemetry, span
from repro.obs.timeline import pair_label
from repro.runtime.interpreter import Execution
from repro.runtime.program import Program
from repro.runtime.statement import StatementPair

from .results import PairVerdict
from .schedule import CampaignSchedule, chunk_spans, make_schedule
from .schedulers import RandomScheduler
from .supervisor import CampaignSupervisor, resolve_jobs

T = TypeVar("T")
R = TypeVar("R")


def pair_span_name(pair: StatementPair) -> str:
    """The per-pair wall-clock span's name, stable across processes."""
    return f"pair.{pair.first.site}|{pair.second.site}"


def _validate_chunk_size(chunk_size: int) -> int:
    """Shared guard for every chunking entry point."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


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
    stores give identical reports.  ``store_quota`` bounds the store in
    bytes (LRU eviction).
    """

    workload: str
    seed: int = 0
    detectors: tuple[str, ...] = ("hybrid",)
    max_steps: int = 1_000_000
    trace_dir: str | None = None
    compress: bool = False
    store_quota: int | None = None

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


#: the caller's program that inline task bodies run (see inline_program).
_INLINE_PROGRAM: ContextVar[Program | None] = ContextVar(
    "inline_program", default=None
)


@contextmanager
def inline_program(program: Program):
    """Run inline tasks addressed to ``program.name`` on ``program`` itself.

    Task specs carry a workload name so they stay picklable; in this
    process, while the block runs, that name resolves to the caller's
    live program instead of a registry rebuild, so a ``jobs=1`` campaign
    needs no registered workload.  Bind it only around an engine that
    starts no pool: pool workers resolve names through the registry.
    """
    token = _INLINE_PROGRAM.set(program)
    try:
        yield
    finally:
        _INLINE_PROGRAM.reset(token)


def _build_workload(name: str):
    """The program a task names: the inline program, else a registry build."""
    live = _INLINE_PROGRAM.get()
    if live is not None and live.name == name:
        return live
    from repro import workloads  # deferred: keep core importable alone

    return workloads.get(name).build()


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

        store = TraceStore(
            task.trace_dir,
            compress=task.compress,
            max_bytes=task.store_quota,
        )
        reports = store.with_recovery(
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
    from .schedulers import baseline_scheduler  # deferred: avoid cycle

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
    with span(pair_span_name(task.pair)):
        for seed in range(task.seed_start, task.seed_start + task.count):
            verdict.absorb(fuzzer.run(program, seed=seed))
    if telemetry is not None:
        telemetry.emit(
            "chunk",
            (pair_label(task.pair), task.seed_start),
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
    parameter change misses the cache and re-executes.
    """
    first, second = task.pair.first, task.pair.second
    fields = {
        "workload": task.workload,
        "pair": [
            [first.file, first.line, first.label],
            [second.file, second.line, second.label],
        ],
        "seed_start": task.seed_start,
        "count": task.count,
        "max_steps": task.max_steps,
    }
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def pool_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int | None = None,
    *,
    on_progress: Callable[[int, int], None] | None = None,
) -> list[R]:
    """Order-preserving process-pool map; ``jobs=1`` runs inline.

    The harness modules (Table 1 rows, the Figure 2 sweep) use this for
    coarse-grained fan-out where every task is one independent measurement
    and results are consumed positionally.  ``on_progress(done, total)``
    fires as tasks complete (completion order; results still merge in
    submission order).
    """
    jobs = resolve_jobs(jobs)
    total = len(items)
    if jobs == 1 or total <= 1:
        results = []
        for index, item in enumerate(items):
            results.append(fn(item))
            if on_progress is not None:
                on_progress(index + 1, total)
        return results
    with ProcessPoolExecutor(max_workers=min(jobs, total)) as pool:
        if on_progress is None:
            return list(pool.map(fn, items))
        futures = [pool.submit(fn, item) for item in items]
        outstanding = set(futures)
        while outstanding:
            done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
            on_progress(total - len(outstanding), total)
        return [future.result() for future in futures]


# --------------------------------------------------------------------- #
# The campaign engine.
# --------------------------------------------------------------------- #


class ParallelCampaign(CampaignSupervisor):
    """Fan a two-phase campaign out across supervised worker processes.

    The engine *is* a :class:`~repro.core.supervisor.CampaignSupervisor`:
    every task — Phase-1 detection runs, baseline chunks and Phase-2 fuzz
    chunks alike — runs through its ``supervise`` loop, with per-task
    wall-clock deadlines, bounded retry with backoff, broken-pool recovery
    (with graceful degradation to inline serial execution), quarantine of
    persistently failing tasks, and checkpoint/resume for Phase-2 chunks.
    It takes the supervisor's settings (``jobs``, ``deadline``,
    ``retries``, ``checkpoint``, ``faults``, ``memory_budget_mb``) and
    adds two of its own.

    Parameters:
        chunk_size: Phase-2 (and baseline) seeds per task.  Small chunks
            parallelize better; large chunks amortize per-task overhead.
            Chunking never changes merged aggregates (trials are
            independent and the merge is associative).
        on_progress: called with a :class:`~repro.obs.ProgressUpdate`
            each time a task settles.

    Quarantined tasks accumulate on :attr:`failures` (and, for fuzz
    chunks, on the owning verdict's ``errors``).
    """

    def __init__(
        self,
        *,
        chunk_size: int = 25,
        on_progress: Callable[[ProgressUpdate], None] | None = None,
        **supervision,
    ) -> None:
        super().__init__(**supervision)
        self.chunk_size = _validate_chunk_size(chunk_size)
        self.on_progress = on_progress

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
        workload: str,
        *,
        detector: "str | Sequence[str]" = "hybrid",
        seeds: Sequence[int] = (0, 1, 2),
        max_steps: int = 1_000_000,
        trace_dir=None,
        compress: bool = False,
        store_quota: int | None = None,
    ) -> "RaceReport | dict[str, RaceReport]":
        """Run one detection per seed concurrently; union the reports.

        Reports merge in seed order (not completion order), so the union
        — pair set, per-pair counts, first-witness evidence — is the same
        at every ``jobs`` value.

        ``detector`` may be a sequence of names: each seed then executes
        *once* with every detector attached, and the result is a
        ``{name: merged report}`` dict (a string argument returns the bare
        :class:`RaceReport`).  ``trace_dir``/``compress``/``store_quota``
        send every seed through the trace store there (see
        :class:`DetectTask`).
        """
        single = isinstance(detector, str)
        names: tuple[str, ...] = (detector,) if single else tuple(detector)
        if not names:
            raise ValueError("detect needs at least one detector")
        seed_list = list(seeds)
        if not seed_list:
            raise ValueError("detect needs at least one seed")
        tasks = [
            DetectTask(
                workload=workload,
                seed=seed,
                detectors=names,
                max_steps=max_steps,
                trace_dir=None if trace_dir is None else str(trace_dir),
                compress=compress,
                store_quota=store_quota,
            )
            for seed in seed_list
        ]
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
            name: RaceReport(program=workload, detector=name) for name in names
        }
        for result in report.results:  # seed order
            if result is not None:
                for name in names:
                    merged[name].merge(result[name])
        return merged[detector] if single else merged

    # -- baseline (passive-scheduler control) -------------------------- #

    def baseline(
        self,
        workload: str,
        *,
        runs: int = 100,
        scheduler: str = "default",
        base_seed: int = 0,
        max_steps: int = 1_000_000,
    ) -> Counter:
        """Chunked passive-scheduler control runs; summed crash counter.

        Counter addition is commutative, so the merged tally is the same
        at every ``jobs`` value for whatever chunks completed; quarantined
        chunks drop their runs (recorded on :attr:`failures`) instead of
        sinking the control experiment.
        """
        tasks = [
            BaselineTask(
                workload=workload,
                scheduler=scheduler,
                seed_start=start,
                count=count,
                max_steps=max_steps,
            )
            for start, count in chunk_spans(base_seed, runs, self.chunk_size)
        ]
        with span("baseline"):
            report = self.supervise(
                "baseline",
                tasks,
                validate=lambda task, r: isinstance(r, Counter),
                on_settle=self._settle_hooks("baseline")(tasks),
            )
        crashes: Counter = Counter()
        for result in report.results:
            if result is not None:
                crashes.update(result)
        return crashes

    # -- Phase 2 ------------------------------------------------------- #

    def fuzz(
        self,
        workload: str,
        pairs: Iterable[StatementPair],
        *,
        trials: int = 100,
        base_seed: int = 0,
        max_steps: int = 1_000_000,
        schedule: str | CampaignSchedule | None = None,
        grades: "Sequence[bool | None] | None" = None,
    ) -> dict[StatementPair, PairVerdict]:
        """Fuzz every pair under a trial-allocation policy; merge verdicts.

        ``schedule`` picks the allocation policy (see
        :mod:`repro.core.schedule`): ``None``/``"fixed"`` spends exactly
        ``trials`` per pair — one batch of pair-major chunks, identical
        to the pre-schedule engine — while ``"adaptive"`` (or a bound-
        ready :class:`CampaignSchedule` instance, for tuned parameters)
        runs the batch loop round by round, feeding every settled chunk's
        verdict back into the policy between batches.

        ``grades`` (optional, aligned with ``pairs``) forwards Phase-1
        ``schedulable`` grades into the schedule — the adaptive policy
        boosts graded-schedulable pairs' prior alpha deterministically.

        Chunk verdicts for one pair merge in seed order within each
        round, and posterior updates are commutative, so aggregates are
        the same at every ``jobs`` value for one seed set and schedule
        (except wall-clock sums, which are measured).
        """
        pair_list = list(pairs)
        sched = make_schedule(schedule, trials=trials)
        sched.bind(
            pair_list,
            base_seed=base_seed,
            chunk_size=self.chunk_size,
            grades=grades,
        )
        verdicts: dict[StatementPair, PairVerdict] = {
            pair: PairVerdict(pair=pair) for pair in pair_list
        }
        confirmed: set[StatementPair] = set()  # progress display
        hook = self._settle_hooks(
            "fuzz", planned=sched.planned_chunks, confirms=lambda: len(confirmed)
        )
        with span("phase2.fuzz"):
            while batch := sched.next_batch():
                tasks = [
                    FuzzTask(
                        workload=workload,
                        pair=pair_list[chunk.pair_index],
                        seed_start=chunk.seed_start,
                        count=chunk.count,
                        max_steps=max_steps,
                    )
                    for chunk in batch
                ]

                def record(index: int, verdict: PairVerdict) -> None:
                    sched.record(batch[index], verdict)
                    if verdict.times_created:
                        confirmed.add(tasks[index].pair)

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
                        verdicts[task.pair].merge(verdict)
                for failure in report.failures:
                    verdicts[tasks[failure.index].pair].errors.append(failure)
        return verdicts


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
    "pool_map",
    "pair_span_name",
    "resolve_jobs",
]
