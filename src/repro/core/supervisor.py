"""Resilient campaign supervision: deadlines, retry, quarantine, resume.

Phase 2 of RaceFuzzer re-executes the program once per racing pair, so a
campaign is thousands of independent trials; its value rests on *every*
pair getting a verdict even when individual executions wedge or die.  The
parallel engine (:mod:`repro.core.parallel`) gives the campaign speed;
this module gives it a failure story.  Every task the engine dispatches is
wrapped in a :class:`TaskEnvelope` and driven by a
:class:`CampaignSupervisor` that provides, in order of escalation:

1. **Wall-clock deadlines** — distinct from the abstract ``max_steps``
   budget.  ``max_steps`` bounds *simulated* work; a deadline bounds
   *real* time, catching interpreter-level wedges the step budget cannot
   see.  Enforced inside the executing process by a ``SIGALRM`` timer
   (:func:`wall_deadline`), with a parent-side stall backstop that
   terminates the pool if no task completes for several deadline windows
   (covering workers whose alarm cannot fire).
2. **Bounded retry with exponential backoff + jitter** — transient
   failures (a crash, a missed deadline, a malformed result) are retried
   up to ``retries`` times.  The backoff shape is fixed by this module's
   ``BACKOFF_*`` constants, and its jitter is drawn from a seeded RNG so
   retry schedules are reproducible (:func:`compute_backoff`).
3. **Pool-death recovery** — a worker dying (OOM, segfault) breaks the
   whole ``ProcessPoolExecutor``.  The supervisor halves its width,
   re-queues every unfinished task, charging each one a failed attempt,
   and rebuilds the pool at the new width.  Width 1 means inline serial
   execution, where a poisoned task can only hurt itself: a campaign
   started at ``jobs=N`` runs inline after ⌊log2 N⌋ deaths, for the rest
   of the current batch and every later one.
4. **Quarantine** — a task that fails every allowed attempt is recorded
   as a structured :class:`~repro.core.results.TaskFailure` and the
   campaign moves on.  One poisoned (pair, seed-chunk) can never sink the
   other pairs' verdicts.
5. **Checkpoint/resume** — completed task results are journaled to an
   append-only JSONL file with a CRC per record
   (:class:`CheckpointJournal`).  A restarted campaign skips
   already-journaled task keys and merges their cached results,
   preserving the deterministic seed-order merge.

The campaign engine, :class:`~repro.core.parallel.ParallelCampaign`, *is*
a :class:`CampaignSupervisor`: it inherits every setting above and adds
only what a task is and how results merge.

Results are always folded in submission order — never completion order —
so a supervised campaign's aggregates are identical to the fault-free
serial run for every task that completed, whatever failed in between.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import sys
import threading
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Sequence

from repro.obs import MeteredResult, collecting, maybe_telemetry

from .faults import (
    MALFORMED,
    MALFORMED_SENTINEL,
    PHASES,
    FaultPlan,
    FaultSpec,
    apply_fault,
)
from .results import TaskFailure

try:  # not a POSIX platform -> no memory budget, never a crash
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs=`` argument.

    The contract: ``None`` and ``0`` both mean "auto" (one worker per
    core), ``1`` means inline in-process execution, ``N >= 2`` means
    a pool of N workers.  Only negative values are rejected.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(
            f"jobs must be None, 0 (one worker per core) or a positive "
            f"int, got {jobs}"
        )
    return jobs


class TaskDeadlineExceeded(Exception):
    """A supervised task ran past its wall-clock deadline."""


class MemoryBudgetExceeded(Exception):
    """A supervised task grew the process high-water past its budget."""


def _maxrss_mb() -> float | None:
    """The process's lifetime peak RSS in MiB (None when unmeasurable).

    ``ru_maxrss`` is monotone for the life of the process, so budget
    checks always compare a *delta* against a baseline taken at attempt
    start — an absolute check would poison every later task that lands on
    a pool worker some earlier task inflated.
    """
    if _resource is None:
        return None
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, kilobytes on Linux
        return rss / (1024.0 * 1024.0)
    return rss / 1024.0


@contextmanager
def wall_deadline(seconds: float | None):
    """Bound a block by wall-clock time via a ``SIGALRM`` timer.

    Raises :class:`TaskDeadlineExceeded` from inside the block when the
    timer fires — which interrupts pure-Python work and interruptible
    sleeps, the realistic wedge modes of this interpreter.  Degrades to a
    no-op when no deadline is set, on platforms without ``SIGALRM``, or
    off the main thread (signal handlers are main-thread-only); the
    supervisor's parent-side stall backstop covers those cases.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskDeadlineExceeded(
            f"task exceeded its {seconds:.3f}s wall-clock deadline"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: the retry backoff: the delay before retry ``k`` (0-based failed-attempt
#: count) is ``min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** k)``
#: seconds, stretched by up to ``BACKOFF_JITTER`` of itself.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0
BACKOFF_JITTER = 0.25
#: the seed of the jitter draws.
JITTER_SEED = 0


def compute_backoff(index: int, attempt: int) -> float:
    """The deterministic delay before re-attempting task ``index``.

    ``attempt`` is the 0-based failed-attempt count.  The jitter factor
    ``1 + BACKOFF_JITTER * u`` draws ``u`` from
    ``Random(f"{JITTER_SEED}:{index}:{attempt}")``, so the delay is a pure
    function of (task, attempt) and tests can assert the exact schedule.
    """
    raw = min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR**attempt)
    if not BACKOFF_JITTER:
        return raw
    # String seeding is hash-randomization-proof, so the jitter — like
    # every other source of nondeterminism in this codebase — is a pure
    # function of explicit seeds.
    u = Random(f"{JITTER_SEED}:{index}:{attempt}").random()
    return raw * (1.0 + BACKOFF_JITTER * u)


@dataclass(frozen=True)
class TaskEnvelope:
    """The picklable unit the supervisor ships to an executing process.

    Carries the task spec plus everything the worker-side harness needs:
    which entrypoint to run, the wall-clock deadline, and the (already
    resolved) fault to inject, if the attempt is planned to fail.
    """

    fn: str
    task: Any
    index: int
    attempt: int
    deadline: float | None = None
    fault: FaultSpec | None = None
    #: per-attempt memory budget in MiB, enforced worker-side as a
    #: ``ru_maxrss`` delta over the attempt (None = unbounded).
    memory_budget_mb: float | None = None
    #: collect telemetry in the executing process and ship a snapshot
    #: home with the result (set when the parent's telemetry is on).
    telemetry: bool = False


def _worker_fn(name: str) -> Callable[[Any], Any]:
    """The entrypoint ``run_<name>_task`` for one of :data:`PHASES`."""
    if name not in PHASES:
        raise KeyError(
            f"unknown task entrypoint {name!r}; expected one of {PHASES}"
        )
    # Deferred import: parallel.py imports this module, so the registry
    # must resolve lazily to avoid a cycle.
    from . import parallel

    return getattr(parallel, f"run_{name}_task")


def _attempt(envelope: TaskEnvelope, in_worker: bool) -> Any:
    """One attempt body: fault, task, budget check, malformed result."""
    fn = _worker_fn(envelope.fn)
    baseline = _maxrss_mb() if envelope.memory_budget_mb is not None else None
    with wall_deadline(envelope.deadline):
        if envelope.fault is not None:
            apply_fault(envelope.fault, in_worker=in_worker, task=envelope.task)
        result = fn(envelope.task)
    if baseline is not None:
        peak = _maxrss_mb()
        grown = (peak or baseline) - baseline
        if grown > envelope.memory_budget_mb:
            raise MemoryBudgetExceeded(
                f"attempt grew peak RSS by {grown:.1f} MiB "
                f"(budget {envelope.memory_budget_mb:.1f} MiB)"
            )
    if envelope.fault is not None and envelope.fault.kind == MALFORMED:
        return MALFORMED_SENTINEL
    return result


def run_envelope(envelope: TaskEnvelope, in_worker: bool = True) -> Any:
    """Execute one supervised attempt (worker entrypoint; also inline).

    Order matters: the fault is applied *inside* the deadline window so
    an injected hang is caught exactly like a real one, and the memory
    budget is checked *after* the body so a blown budget charges the
    attempt that blew it.

    When ``envelope.telemetry`` is set the attempt runs under a fresh
    :class:`~repro.obs.Telemetry` and returns a
    :class:`~repro.obs.MeteredResult`; the supervisor merges the snapshot
    into the parent's telemetry only if the result is accepted, so a
    retried attempt never double-counts.  Otherwise the bare task result
    comes back.
    """
    if not envelope.telemetry:
        return _attempt(envelope, in_worker)
    with collecting() as telemetry:
        result = _attempt(envelope, in_worker)
    return MeteredResult(result=result, snapshot=telemetry.snapshot())


def _unwrap_metered(result: Any) -> tuple[Any, Any]:
    """Split a possibly metered result into (payload, snapshot-or-None)."""
    if isinstance(result, MeteredResult):
        return result.result, result.snapshot
    return result, None


def _classify_failure(
    exc: BaseException | None, result: Any = None
) -> tuple[str, str]:
    """The ``(kind, message)`` of one failed attempt.

    ``exc`` is what the attempt raised; ``None`` means it returned
    ``result`` and validation rejected it.
    """
    if exc is None:
        return "malformed", (
            f"validation rejected a "
            f"{type(_unwrap_metered(result)[0]).__name__} result"
        )
    if isinstance(exc, TaskDeadlineExceeded):
        return "deadline", str(exc)
    if isinstance(exc, MemoryBudgetExceeded):
        return "memory", str(exc)
    if isinstance(exc, OSError) and exc.errno == errno.ENOSPC:
        return "disk", f"{type(exc).__name__}: {exc}"
    return "crash", f"{type(exc).__name__}: {exc}"


def _crc(key: str, result: Any) -> int:
    """The CRC32 a journal record carries, over its key and result."""
    body = json.dumps({"key": key, "result": result}, separators=(",", ":"))
    return zlib.crc32(body.encode())


class CheckpointJournal:
    """Append-only JSONL journal of completed task results.

    Each line is ``{"key": <task key>, "result": <encoded result>,
    "crc": <CRC32>}``, where the CRC covers the compact JSON of the key
    and result.  The supervising parent is the one writer: it appends
    each record with a single ``os.write`` on an ``O_APPEND`` fd, so a
    campaign killed mid-write leaves at most one torn *trailing* line.
    :meth:`load` skips a torn line, and a record whose CRC is missing
    or does not match, sacrificing that one task, not the journal: a
    damaged record re-runs instead of being reused.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._fd: int | None = None
        #: torn/malformed lines skipped by the most recent :meth:`load`.
        self.skipped_lines = 0

    def load(self) -> dict[str, Any]:
        """All well-formed journaled records, keyed by task key.

        Unreadable lines and CRC mismatches are skipped (last-wins on
        duplicate keys), but never silently: the count lands in
        :attr:`skipped_lines`, the ``supervisor.journal_skipped`` metric,
        and a recovery note on stderr, so a journal quietly losing lines
        to torn writes or damage is visible long before the data matters.
        """
        records: dict[str, Any] = {}
        skipped = 0
        try:
            fh = open(self.path, encoding="utf-8")
        except FileNotFoundError:
            self.skipped_lines = 0
            return records
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1  # torn write from a killed run
                    continue
                if (
                    isinstance(record, dict)
                    and "key" in record
                    and record.get("crc") == _crc(record["key"], record.get("result"))
                ):
                    records[record["key"]] = record.get("result")
                else:
                    skipped += 1  # not a journal record, or damaged
        self.skipped_lines = skipped
        if skipped:
            t = maybe_telemetry()
            if t is not None:
                t.inc("supervisor.journal_skipped", skipped)
            print(
                f"repro: checkpoint journal {self.path}: skipped "
                f"{skipped} torn/malformed line(s); the affected "
                f"task(s) will re-run",
                file=sys.stderr,
            )
        return records

    def append(self, key: str, result: Any) -> None:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        record = {"key": key, "result": result, "crc": _crc(key, result)}
        line = json.dumps(record, separators=(",", ":"))
        os.write(self._fd, line.encode("utf-8") + b"\n")

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


@dataclass
class SupervisorReport:
    """What happened while supervising one task batch.

    ``results`` is indexed by submission position; an entry is ``None``
    for quarantined tasks.  Campaign-level aggregates fold
    ``results`` in index order, which is what keeps supervised output
    byte-identical to the fault-free serial run.
    """

    results: list[Any]
    failures: list[TaskFailure] = field(default_factory=list)
    cached: int = 0
    retried: int = 0
    pool_deaths: int = 0


_UNSET = object()


class CampaignSupervisor:
    """Drive a batch of independent tasks to a verdict, no matter what.

    Parameters:
        jobs: worker processes (``None``/``0`` = one per core, ``1`` =
            inline execution with no pool).  Each pool death halves it.
        deadline: per-task wall-clock budget in seconds (``None`` = no
            wall-clock limit; the abstract ``max_steps`` budget still
            applies inside each task).
        retries: re-attempts of a failing task before it is quarantined.
        checkpoint: path to an append-only JSONL journal; completed tasks
            are journaled and a restarted campaign skips them.  Only
            batches that provide a ``key_fn`` participate.
        faults: a :class:`~repro.core.faults.FaultPlan` for deterministic
            failure injection (testing / drills).
        memory_budget_mb: per-attempt memory budget in MiB, enforced in
            the executing process as a ``ru_maxrss`` delta; a blown
            budget is a retryable ``memory``-kind failure.

    Quarantined tasks accumulate on :attr:`failures` across batches, and
    :attr:`last_report` holds the most recent batch's
    :class:`SupervisorReport`.  Use as a context manager (or call
    :meth:`close`) to reclaim the pool.
    """

    def __init__(
        self,
        *,
        jobs: int | None = 1,
        deadline: float | None = None,
        retries: int = 2,
        checkpoint=None,
        faults: FaultPlan | None = None,
        memory_budget_mb: float | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive or None, got {deadline}")
        self.deadline = deadline
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.checkpoint = checkpoint
        self.faults = faults
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ValueError(
                f"memory_budget_mb must be positive or None, got "
                f"{memory_budget_mb}"
            )
        self.memory_budget_mb = memory_budget_mb
        self.pool_deaths = 0
        self.failures: list[TaskFailure] = []
        self.last_report: SupervisorReport | None = None
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ----------------------------------------------------- #

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _destroy_pool(self, *, terminate: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if terminate:
            # Reach into the executor to kill wedged workers; a hung
            # worker never drains the call queue, so a plain shutdown
            # would block forever.
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "CampaignSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the supervised batch loop ------------------------------------- #

    def supervise(
        self,
        fn: str,
        tasks: Sequence[Any],
        *,
        validate: Callable[[Any, Any], bool] | None = None,
        key_fn: Callable[[Any], str] | None = None,
        encode: Callable[[Any], Any] | None = None,
        decode: Callable[[Any], Any] | None = None,
        on_settle: Callable[[int, Any], None] | None = None,
    ) -> SupervisorReport:
        """Run every task to success or quarantine.

        ``fn`` names the worker entrypoint, one of
        :data:`~repro.core.faults.PHASES`, and doubles as the fault-plan
        phase.  ``validate(task, result)``
        rejects malformed results (rejections are retried like crashes).
        ``on_settle(index, result_or_None)`` fires once per task when it
        settles: with the result on a fresh success or a checkpoint-journal
        hit, with ``None`` on quarantine.  The returned report is also
        kept on :attr:`last_report`, and its quarantines are appended to
        :attr:`failures`.
        """
        n = len(tasks)
        results: list[Any] = [_UNSET] * n
        attempts = [0] * n  # failed attempts so far, per task
        history: list[list[str]] = [[] for _ in range(n)]
        failures: list[TaskFailure] = []
        report = SupervisorReport(results=results)
        keys = [key_fn(task) if key_fn is not None else None for task in tasks]
        telemetry = maybe_telemetry()
        failed_attempt_kinds: dict[str, int] = {}
        pool_deaths_before = self.pool_deaths

        def settle(index: int, result: Any) -> None:
            if on_settle is not None:
                on_settle(index, result)

        journal = (
            CheckpointJournal(self.checkpoint)
            if (self.checkpoint is not None and key_fn is not None)
            else None
        )

        def settle_success(index: int, result: Any) -> bool:
            """Accept a validated result; returns False if malformed."""
            result, snapshot = _unwrap_metered(result)
            if validate is not None and not validate(tasks[index], result):
                return False
            results[index] = result
            if snapshot is not None and telemetry is not None:
                # Accepted attempts only: a rejected or retried attempt
                # drops its partial telemetry with its result.
                telemetry.merge_snapshot(snapshot)
            if journal is not None and keys[index] is not None:
                journal.append(
                    keys[index], encode(result) if encode is not None else result
                )
            settle(index, result)
            return True

        def record_failure(index: int, kind: str, message: str) -> float | None:
            """Charge a failed attempt; quarantine or schedule a retry.

            Returns the monotonic time before which the task must not be
            re-attempted, or None if it was quarantined.
            """
            attempts[index] += 1
            history[index].append(f"{kind}: {message}")
            failed_attempt_kinds[kind] = failed_attempt_kinds.get(kind, 0) + 1
            if attempts[index] > self.retries:
                if telemetry is not None:
                    telemetry.emit(
                        "task.quarantine",
                        (fn, index),
                        {"kind": kind, "attempts": attempts[index]},
                        wall_s=time.time(),
                    )
                failures.append(
                    TaskFailure(
                        phase=fn,
                        index=index,
                        key=keys[index] or f"{fn}[{index}]",
                        kind=kind,
                        attempts=attempts[index],
                        message=message,
                        history=tuple(history[index]),
                    )
                )
                results[index] = None
                settle(index, None)
                return None
            report.retried += 1
            if telemetry is not None:
                telemetry.emit(
                    "task.retry",
                    (fn, index, attempts[index]),
                    {"kind": kind},
                    wall_s=time.time(),
                )
            delay = compute_backoff(index, attempts[index] - 1)
            return time.monotonic() + delay

        def envelope_for(index: int) -> TaskEnvelope:
            fault = None
            if self.faults is not None:
                spec = self.faults.at(fn, index)
                if spec is not None and spec.fires(attempts[index]):
                    fault = spec
            return TaskEnvelope(
                fn=fn,
                task=tasks[index],
                index=index,
                attempt=attempts[index],
                deadline=self.deadline,
                fault=fault,
                memory_budget_mb=self.memory_budget_mb,
                telemetry=telemetry is not None,
            )

        try:
            # Resume: satisfy journaled tasks from the checkpoint first.
            if journal is not None:
                cache = journal.load()
                for index, key in enumerate(keys):
                    if key in cache:
                        try:
                            payload = cache[key]
                            results[index] = (
                                decode(payload) if decode is not None else payload
                            )
                        except Exception:
                            results[index] = _UNSET  # corrupt record: re-run
                            continue
                        report.cached += 1
                        settle(index, results[index])

            pending: list[tuple[float, int]] = [
                (0.0, index) for index in range(n) if results[index] is _UNSET
            ]
            if self.jobs > 1:
                pending = self._drain_pool(
                    pending, envelope_for, settle_success, record_failure,
                    results, report,
                )
            # Inline path: jobs=1 from the start, or what pool deaths left
            # once they halved the width to 1.
            self._drain_inline(
                pending, envelope_for, settle_success, record_failure
            )
        finally:
            if journal is not None:
                journal.close()

        for index in range(n):
            if results[index] is _UNSET:
                results[index] = None
        report.failures = failures
        report.pool_deaths = self.pool_deaths
        if telemetry is not None:
            telemetry.inc("supervisor.batches")
            telemetry.inc("supervisor.tasks", n)
            telemetry.inc("supervisor.retries", report.retried)
            telemetry.inc("supervisor.quarantines", len(failures))
            telemetry.inc("supervisor.pool_deaths", self.pool_deaths - pool_deaths_before)
            telemetry.inc("supervisor.cached", report.cached)
            telemetry.inc(
                "supervisor.deadline_kills", failed_attempt_kinds.get("deadline", 0)
            )
            for kind in sorted(failed_attempt_kinds):
                telemetry.inc(
                    f"supervisor.failed_attempts.{kind}",
                    failed_attempt_kinds[kind],
                )
        self.last_report = report
        self.failures.extend(failures)
        return report

    # -- inline (serial) execution -------------------------------------- #

    def _drain_inline(
        self, pending, envelope_for, settle_success, record_failure
    ) -> None:
        while pending:
            pending.sort()
            ready_at, index = pending.pop(0)
            delay = ready_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                result = run_envelope(envelope_for(index), in_worker=False)
            except Exception as exc:
                verdict = record_failure(index, *_classify_failure(exc))
            else:
                if settle_success(index, result):
                    continue
                verdict = record_failure(index, *_classify_failure(None, result))
            if verdict is not None:
                pending.append((verdict, index))

    # -- pooled execution ------------------------------------------------ #

    def _drain_pool(
        self, pending, envelope_for, settle_success, record_failure,
        results, report,
    ) -> list[tuple[float, int]]:
        """Run the batch on the pool; returns tasks left for inline mode.

        Each pool death halves :attr:`jobs`; once it reaches 1 the loop
        stops and hands what is left to the inline path.

        The parent-side stall backstop fires when *no* task completes for
        several deadline windows while work is in flight — only possible
        when every worker is wedged in a way its own alarm cannot
        interrupt — and treats the pool like it died.  The window restarts
        whenever an idle or rebuilt pool receives work, so backoff sleeps
        and rebuilds never count as stalled time.
        """
        in_flight: dict[Future, int] = {}
        stall_window = (
            max(3.0 * self.deadline, self.deadline + 1.0)
            if self.deadline is not None
            else None
        )
        window_start = time.monotonic()

        def fail_in_flight(kind: str, message: str) -> None:
            self.pool_deaths += 1
            report.pool_deaths = self.pool_deaths
            self._destroy_pool(terminate=True)
            # Shed load before the rebuild: a pool that just died at
            # width N has better odds at N/2, and width 1 is inline.
            self.jobs = max(1, self.jobs // 2)
            for index in list(in_flight.values()):
                if results[index] is not _UNSET:
                    continue
                ready_at = record_failure(index, kind, message)
                if ready_at is not None:
                    pending.append((ready_at, index))
            in_flight.clear()

        while (pending or in_flight) and self.jobs > 1:
            now = time.monotonic()
            was_idle = not in_flight
            # Submit everything whose backoff has elapsed.
            pending.sort()
            still_waiting: list[tuple[float, int]] = []
            submit_error: str | None = None
            for ready_at, index in pending:
                if ready_at > now or submit_error is not None:
                    still_waiting.append((ready_at, index))
                    continue
                try:
                    future = self._executor().submit(
                        run_envelope, envelope_for(index)
                    )
                except (BrokenProcessPool, RuntimeError) as exc:
                    still_waiting.append((now, index))
                    submit_error = f"pool rejected submission: {exc}"
                    continue
                in_flight[future] = index
            pending = still_waiting
            if submit_error is not None:
                fail_in_flight("pool", submit_error)
                continue
            if was_idle and in_flight:
                window_start = time.monotonic()

            if not in_flight:
                if not pending:
                    break
                # Nothing running; sleep until the earliest retry is due.
                wake = min(ready_at for ready_at, _ in pending)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            timeout = None
            if pending:
                next_ready = min(ready_at for ready_at, _ in pending)
                timeout = max(0.0, next_ready - time.monotonic())
            if stall_window is not None:
                remaining = stall_window - (time.monotonic() - window_start)
                if remaining <= 0:
                    fail_in_flight(
                        "stall",
                        f"no task completed within {stall_window:.1f}s; "
                        f"terminated the worker pool",
                    )
                    continue
                timeout = remaining if timeout is None else min(timeout, remaining)

            done, _ = wait(set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                continue
            window_start = time.monotonic()
            pool_broken = False
            for future in done:
                index = in_flight.pop(future)
                exc = future.exception()
                if exc is None:
                    result = future.result()
                    if settle_success(index, result):
                        continue
                    ready_at = record_failure(index, *_classify_failure(None, result))
                elif isinstance(exc, BrokenProcessPool):
                    # The pool died under this future; every other
                    # in-flight task is doomed too — handle them as one
                    # pool-death event after this drain loop.
                    pool_broken = True
                    ready_at = record_failure(
                        index, "pool", f"worker pool died: {exc}"
                    )
                else:
                    ready_at = record_failure(index, *_classify_failure(exc))
                if ready_at is not None:
                    pending.append((ready_at, index))
            if pool_broken:
                fail_in_flight("pool", "worker pool died")

        return pending


__all__ = [
    "CampaignSupervisor",
    "SupervisorReport",
    "compute_backoff",
    "TaskEnvelope",
    "TaskDeadlineExceeded",
    "MemoryBudgetExceeded",
    "CheckpointJournal",
    "run_envelope",
    "wall_deadline",
    "resolve_jobs",
]
