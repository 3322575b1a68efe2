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
  run for the same seed set, regardless of worker scheduling.  (Location
  uids inside Phase-1 evidence are per-process and only meaningful for
  display; pair identity lives in statements, which are stable across
  processes.)
* **``jobs=1`` runs the same tasks inline on the caller's program.**  The
  engine runs task bodies in submission order with no pool, and
  :func:`inline_program` resolves the task's workload name to the
  caller's live :class:`~repro.runtime.program.Program`, so an
  unregistered program works too.  This is the only serial path.

``stop_on_confirm`` adds the one useful deviation from strict determinism:
a chunk stops at its first created race, and once any chunk confirms a
pair real (``times_created > 0``), the pair's not-yet-started chunks are
cancelled.  Verdict *classification* is unaffected (a confirmed pair stays
confirmed) but pooled trial counts then depend on worker timing, so
equivalence tests must keep it off.

Every dispatch goes through the :mod:`~repro.core.supervisor` layer, which
adds the failure story: per-task wall-clock deadlines, retry with backoff,
broken-pool recovery, quarantine, and checkpoint/resume.  See that module
for the semantics; this one stays about *what* a task is and *how* results
merge.
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

from repro.detectors import (
    RaceReport,
    make_detector,
    schedulable_grades,
    union_reports,
)
from repro.obs import HealthController, ProgressUpdate, maybe_telemetry, span
from repro.obs.timeline import pair_label
from repro.runtime.interpreter import Execution
from repro.runtime.program import Program
from repro.runtime.statement import StatementPair

from .faults import FaultPlan
from .results import CampaignReport, PairVerdict
from .schedule import CampaignSchedule, chunk_spans, make_schedule
from .schedulers import RandomScheduler
from .supervisor import CampaignSupervisor, RetryPolicy, resolve_jobs

T = TypeVar("T")
R = TypeVar("R")


def pair_key(pair: StatementPair) -> tuple[str, str]:
    """Stable cross-process identity for a pair (sorting / grouping key)."""
    return (str(pair.first), str(pair.second))


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
    """One Phase-1 detection run: (workload, detector(s), seed).

    ``detectors`` non-empty selects the multi-detector protocol: the
    worker attaches every named detector to *one* execution of the seed
    and returns a ``{name: RaceReport}`` dict — one program run feeds all
    analyses, exactly like offline multi-detector trace analysis.  Empty
    ``detectors`` is the classic single-``detector`` task returning a
    bare :class:`RaceReport`.
    """

    workload: str
    detector: str = "hybrid"
    seed: int = 0
    max_steps: int = 1_000_000
    history_cap: int = 128
    detectors: tuple[str, ...] = ()


@dataclass(frozen=True)
class RecordTask:
    """One trace-recording run: fill a shared :class:`TraceStore` entry.

    Workers record into the store directory via its atomic temp-name +
    rename publish, so concurrent recorders of one key race benignly and
    the parent can replay any published trace the moment the task
    completes.  The worker returns the trace path as a string.
    """

    workload: str
    seed: int = 0
    max_steps: int = 1_000_000
    trace_dir: str = ""
    compress: bool = False


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
    preemption: str = "sync"
    patience: int = 400
    max_steps: int = 1_000_000
    #: end the chunk at its first created race (``stop_on_confirm``).
    stop_on_confirm: bool = False


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


def run_detect_task(task: DetectTask) -> "RaceReport | dict[str, RaceReport]":
    """Worker entrypoint: one seed's detection run(s), returning deltas.

    One execution of the seed drives every requested detector — attaching
    N observers to one run costs one program execution, not N.
    """
    program = _build_workload(task.workload)
    names = task.detectors if task.detectors else (task.detector,)
    observers = {
        name: make_detector(name, history_cap=task.history_cap)
        for name in names
    }
    execution = Execution(
        program,
        seed=task.seed,
        observers=list(observers.values()),
        max_steps=task.max_steps,
    )
    execution.run(RandomScheduler(preemption="every"))
    telemetry = maybe_telemetry()
    if telemetry is not None:
        # Same identity the trace-replay path emits
        # (driver._emit_detect_event), so the deterministic event stream
        # is mode-independent.
        telemetry.emit(
            "detect",
            (task.workload, task.seed),
            {name: len(obs.report.evidence) for name, obs in observers.items()},
        )
    if task.detectors:
        return {name: observer.report for name, observer in observers.items()}
    return observers[task.detector].report


def run_record_task(task: RecordTask) -> str:
    """Worker entrypoint: ensure one trace exists in the shared store."""
    from repro.trace import TraceStore, detect_key  # deferred: avoid cycle

    program = _build_workload(task.workload)
    store = TraceStore(task.trace_dir, compress=task.compress)
    path = store.ensure(
        detect_key(task.workload, task.seed, max_steps=task.max_steps), program
    )
    return str(path)


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
    fuzzer = RaceFuzzer(
        task.pair,
        preemption=task.preemption,
        patience=task.patience,
        max_steps=task.max_steps,
    )
    verdict = PairVerdict(pair=task.pair)
    telemetry = maybe_telemetry()
    chunk_wall = time.time() if telemetry is not None else 0.0
    chunk_t0 = time.perf_counter() if telemetry is not None else 0.0
    with span(pair_span_name(task.pair)):
        for seed in range(task.seed_start, task.seed_start + task.count):
            verdict.absorb(fuzzer.run(program, seed=seed))
            if task.stop_on_confirm and verdict.times_created > 0:
                break
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
    ``stop_on_confirm`` enters the key only when set, so a journal
    written without it keeps serving runs without it and never satisfies
    a run with it.
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
        "preemption": task.preemption,
        "patience": task.patience,
        "max_steps": task.max_steps,
    }
    if task.stop_on_confirm:
        fields["stop_on_confirm"] = True
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


class ParallelCampaign:
    """Fan a two-phase campaign out across supervised worker processes.

    Every task — Phase-1 detection runs and Phase-2 fuzz chunks alike —
    is dispatched through a :class:`~repro.core.supervisor.CampaignSupervisor`,
    which adds per-task wall-clock deadlines, bounded retry with backoff,
    broken-pool recovery (with graceful degradation to inline serial
    execution), quarantine of persistently failing tasks, and
    checkpoint/resume for Phase-2 chunks.

    Parameters:
        jobs: worker processes (``None``/``0`` = one per core; ``1`` =
            run inline with no pool).
        chunk_size: Phase-2 seeds per task.  Small chunks parallelize
            better; large chunks amortize per-task overhead.  Chunking
            never changes merged aggregates (trials are independent and
            the merge is associative).
        stop_on_confirm: end each chunk at its first created race and
            cancel the pair's remaining chunks once one chunk confirms
            the race real.  Faster on campaigns with high-probability
            races, but pooled trial counts become timing-dependent
            (classification does not).
        deadline: per-task wall-clock budget in seconds (distinct from
            the abstract ``max_steps`` budget; ``None`` = unlimited).
        retry: a :class:`~repro.core.supervisor.RetryPolicy`, or an int
            meaning ``RetryPolicy(max_retries=N)``, or ``None`` for the
            default (2 retries, exponential backoff with seeded jitter).
        checkpoint: path to an append-only JSONL journal of completed
            Phase-2 chunks; a restarted campaign skips journaled chunks.
        faults: a :class:`~repro.core.faults.FaultPlan` for deterministic
            failure injection.
        pool_death_limit: rebuild a broken worker pool at most this many
            times before degrading to inline serial execution.
        memory_budget_mb: per-attempt memory budget in MiB, enforced
            worker-side as a ``ru_maxrss`` delta.
        health: shared :class:`~repro.obs.health.HealthController`; one
            is created when not given, and its state rides on every
            :class:`~repro.obs.ProgressUpdate`.

    Quarantined tasks accumulate on :attr:`failures` (and, for fuzz
    chunks, on the owning verdict's ``errors``); :attr:`last_report`
    holds the :class:`~repro.core.supervisor.SupervisorReport` of the
    most recent batch.  Use as a context manager (or call :meth:`close`)
    to reclaim the pool.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        chunk_size: int = 25,
        stop_on_confirm: bool = False,
        deadline: float | None = None,
        retry: RetryPolicy | int | None = None,
        checkpoint=None,
        faults: FaultPlan | None = None,
        pool_death_limit: int = 2,
        memory_budget_mb: float | None = None,
        health: HealthController | None = None,
        on_progress: Callable[[ProgressUpdate], None] | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.chunk_size = _validate_chunk_size(chunk_size)
        self.stop_on_confirm = stop_on_confirm
        self.on_progress = on_progress
        self.health = health if health is not None else HealthController(
            pool_death_critical=pool_death_limit + 1
        )
        self.supervisor = CampaignSupervisor(
            jobs=self.jobs,
            deadline=deadline,
            retry=retry,
            pool_death_limit=pool_death_limit,
            checkpoint=checkpoint,
            faults=faults,
            memory_budget_mb=memory_budget_mb,
            health=self.health,
        )
        self.failures = []
        self.last_report = None

    # -- lifecycle ----------------------------------------------------- #

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self.supervisor.close()

    def __enter__(self) -> "ParallelCampaign":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _settle_hook(self, phase: str, total: int, count_confirm=None):
        """An ``on_settle`` callback feeding :attr:`on_progress` updates.

        ``count_confirm(index, result)`` (optional) returns the running
        number of confirmed pairs to display.
        """
        if self.on_progress is None:
            return None
        start = time.monotonic()
        state = {"done": 0}

        def on_settle(index: int, result, outcome: str) -> None:
            state["done"] += 1
            confirms = (
                count_confirm(index, result) if count_confirm is not None else None
            )
            self.on_progress(
                ProgressUpdate(
                    phase=phase,
                    done=state["done"],
                    total=total,
                    confirms=confirms,
                    elapsed_s=time.monotonic() - start,
                    health=self.health.state,
                )
            )

        return on_settle

    # -- Phase 1 ------------------------------------------------------- #

    def detect(
        self,
        workload: str,
        *,
        detector: "str | Sequence[str]" = "hybrid",
        seeds: Sequence[int] = (0, 1, 2),
        max_steps: int = 1_000_000,
        history_cap: int = 128,
    ) -> "RaceReport | dict[str, RaceReport]":
        """Run one detection per seed concurrently; union the reports.

        Reports merge in seed order (not completion order), so the union
        — pair set, per-pair counts, first-witness evidence — is the same
        at every ``jobs`` value.

        ``detector`` may be a sequence of names: each seed then executes
        *once* with every detector attached, and the result is a
        ``{name: merged report}`` dict (a string argument keeps the bare
        :class:`RaceReport` return).
        """
        multi = not isinstance(detector, str)
        names: tuple[str, ...] = tuple(detector) if multi else (detector,)
        assert names, "detect needs at least one detector"
        seed_list = list(seeds)
        assert seed_list, "detect needs at least one seed"
        tasks = [
            DetectTask(
                workload=workload,
                detector=names[0],
                seed=seed,
                max_steps=max_steps,
                history_cap=history_cap,
                detectors=names if multi else (),
            )
            for seed in seed_list
        ]
        expect = dict if multi else RaceReport
        with span("phase1.detect"):
            report = self.supervisor.supervise(
                "detect",
                tasks,
                validate=lambda task, r: isinstance(r, expect),
                on_settle=self._settle_hook("detect", len(tasks)),
            )
        self.last_report = report
        self.failures.extend(report.failures)
        # Quarantined seeds lose their coverage contribution (recorded on
        # `failures`) but never abort the phase.
        results = [r for r in report.results if r is not None]
        if not multi:
            if not results:
                return RaceReport(program=workload, detector=names[0])
            merged = results[0]
            for other in results[1:]:
                merged.merge(other)
            return merged
        merged_by_name: dict[str, RaceReport] = {
            name: RaceReport(program=workload, detector=name) for name in names
        }
        for result in results:  # seed order
            for name in names:
                merged_by_name[name].merge(result[name])
        return merged_by_name

    def record(
        self,
        workload: str,
        *,
        seeds: Sequence[int],
        max_steps: int = 1_000_000,
        trace_dir: str = "",
        compress: bool = False,
    ) -> list[str | None]:
        """Record one trace per seed into a shared store directory.

        Workers publish through the store's atomic rename, so the parent
        may replay every returned path immediately.  A quarantined seed
        yields ``None`` in its slot (and a failure record); callers that
        need the trace anyway can fall back to recording it inline.
        """
        tasks = [
            RecordTask(
                workload=workload,
                seed=seed,
                max_steps=max_steps,
                trace_dir=str(trace_dir),
                compress=compress,
            )
            for seed in seeds
        ]
        with span("phase1.record"):
            report = self.supervisor.supervise(
                "record",
                tasks,
                validate=lambda task, r: isinstance(r, str),
                on_settle=self._settle_hook("record", len(tasks)),
            )
        self.last_report = report
        self.failures.extend(report.failures)
        return list(report.results)

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
            report = self.supervisor.supervise(
                "baseline",
                tasks,
                validate=lambda task, r: isinstance(r, Counter),
                on_settle=self._settle_hook("baseline", len(tasks)),
            )
        self.last_report = report
        self.failures.extend(report.failures)
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
        preemption: str = "sync",
        patience: int = 400,
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
        (except wall-clock sums, which are measured, and trial counts
        under ``stop_on_confirm``).
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
        confirmed: set[tuple[str, str]] = set()  # stop_on_confirm, all rounds
        confirmed_pairs: set[tuple[str, str]] = set()  # progress display
        start = time.monotonic()
        state = {"done": 0, "issued": 0}

        with span("phase2.fuzz"):
            while True:
                batch = sched.next_batch()
                if not batch:
                    break
                tasks = [
                    FuzzTask(
                        workload=workload,
                        pair=pair_list[chunk.pair_index],
                        seed_start=chunk.seed_start,
                        count=chunk.count,
                        preemption=preemption,
                        patience=patience,
                        max_steps=max_steps,
                        stop_on_confirm=self.stop_on_confirm,
                    )
                    for chunk in batch
                ]
                state["issued"] += len(tasks)
                settled: set[int] = set()
                marked: set[int] = set()  # cancel-requested, not yet settled

                on_result = None
                if self.stop_on_confirm:

                    def on_result(index: int, verdict) -> list[int]:
                        if not isinstance(verdict, PairVerdict):
                            return []
                        key = pair_key(tasks[index].pair)
                        if verdict.times_created > 0 and key not in confirmed:
                            confirmed.add(key)
                            cancels = [
                                other
                                for other, task in enumerate(tasks)
                                if other != index
                                and other not in settled
                                and pair_key(task.pair) == key
                            ]
                            marked.update(cancels)
                            return cancels
                        return []

                def on_settle(index: int, result, outcome: str) -> None:
                    settled.add(index)
                    marked.discard(index)
                    chunk = batch[index]
                    if outcome in ("ok", "cached") and isinstance(
                        result, PairVerdict
                    ):
                        sched.record(chunk, result)
                    elif outcome == "quarantined":
                        sched.record_failure(chunk)
                    elif outcome == "cancelled":
                        sched.cancel(chunk)
                    state["done"] += 1
                    if self.on_progress is not None:
                        if isinstance(result, PairVerdict) and result.times_created > 0:
                            confirmed_pairs.add(pair_key(tasks[index].pair))
                        planned = sched.planned_chunks()
                        self.on_progress(
                            ProgressUpdate(
                                phase="fuzz",
                                done=state["done"],
                                total=state["issued"] + planned,
                                confirms=len(confirmed_pairs),
                                elapsed_s=time.monotonic() - start,
                                health=self.health.state,
                                remaining=max(
                                    0,
                                    state["issued"]
                                    - state["done"]
                                    - len(marked),
                                )
                                + planned,
                            )
                        )

                report = self.supervisor.supervise(
                    "fuzz",
                    tasks,
                    validate=lambda task, r: (
                        isinstance(r, PairVerdict) and r.pair == task.pair
                    ),
                    key_fn=fuzz_task_key,
                    encode=lambda verdict: verdict.to_jsonable(),
                    decode=PairVerdict.from_jsonable,
                    on_result=on_result,
                    on_settle=on_settle,
                )
                self.last_report = report
                self.failures.extend(report.failures)
                for task, verdict in zip(tasks, report.results):  # submission order
                    if verdict is not None:
                        verdicts[task.pair].merge(verdict)
                for failure in report.failures:
                    verdicts[tasks[failure.index].pair].errors.append(failure)
        return verdicts

    def run(
        self,
        workload: str,
        *,
        detector: "str | Sequence[str]" = "hybrid",
        phase1_seeds: Sequence[int] = (0, 1, 2),
        trials: int = 100,
        base_seed: int = 0,
        preemption: str = "sync",
        patience: int = 400,
        max_steps: int = 1_000_000,
        schedule: str | CampaignSchedule | None = None,
    ) -> CampaignReport:
        """Both phases end to end, against one workload by name.

        A detector sequence runs a multi-detector Phase 1 (one execution
        per seed feeding all of them) and fuzzes the *union* of their
        candidate pairs — the predictive Phase-1 pipeline.
        """
        phase1 = self.detect(
            workload,
            detector=detector,
            seeds=phase1_seeds,
            max_steps=max_steps,
        )
        if isinstance(phase1, dict):
            phase1 = union_reports(phase1, program=workload)
        pair_list = phase1.pairs
        # Phase-1 grades seed the adaptive schedule's priors.
        grades = schedulable_grades(phase1, pair_list)
        verdicts = self.fuzz(
            workload,
            pair_list,
            trials=trials,
            base_seed=base_seed,
            preemption=preemption,
            patience=patience,
            max_steps=max_steps,
            schedule=schedule,
            grades=grades,
        )
        return CampaignReport(
            program=workload,
            phase1=phase1,
            verdicts=verdicts,
            failures=list(self.failures),
        )


__all__ = [
    "ParallelCampaign",
    "DetectTask",
    "FuzzTask",
    "RecordTask",
    "BaselineTask",
    "run_detect_task",
    "run_fuzz_task",
    "run_record_task",
    "run_baseline_task",
    "fuzz_task_key",
    "inline_program",
    "pool_map",
    "pair_key",
    "pair_span_name",
    "resolve_jobs",
]
