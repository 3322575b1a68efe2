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
2. **Bounded retry** — transient failures (a crash, a missed deadline,
   a malformed result) are retried up to ``retries`` times.  A retry is
   due at once: the failed task goes to the back of the batch's queue.
   A task is a pure function of its spec and seeds, so waiting before a
   retry could never change what it computes.
3. **Pool-death recovery** — a worker dying (OOM, segfault) breaks the
   whole ``ProcessPoolExecutor``.  The supervisor halves its width,
   re-queues every task it had in flight (at most
   :data:`IN_FLIGHT_PER_WORKER` per worker), charging each one a failed
   attempt, and rebuilds the pool at the new width.  Width 1 means
   inline serial execution, where a poisoned task can only hurt itself:
   a campaign started at ``jobs=N`` runs inline after ⌊log2 N⌋ deaths,
   for the rest of the current batch and every later one.
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
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
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


def _may_be_journal(path: Path) -> bool:
    """False for a file with a complete non-blank line but no journal
    record: a ``{"key", "result", "crc"}`` object on some line.

    Torn trailing lines and CRC-damaged records still pass, so a journal
    of a killed or damaged run resumes; a mistyped path to another file
    is refused before a record is appended to it.
    """
    complete = False
    with open(path, "rb") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if isinstance(record, dict) and {"key", "result", "crc"} <= record.keys():
                return True
            complete = complete or (line.endswith(b"\n") and bool(line.strip()))
    return not complete


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
        #: the loaded file ends in a torn line with no newline.
        self._torn_tail = False

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
                self._torn_tail = not line.endswith("\n")
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
        line = json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
        if self._torn_tail:
            # End the torn line first, so this record is not fused into it.
            line, self._torn_tail = b"\n" + line, False
        os.write(self._fd, line)

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


_UNSET = object()

#: futures kept in flight per pool worker: enough to keep every worker
#: busy while the parent settles a result, few enough that a pool death
#: charges a failed attempt only to tasks that were actually submitted.
IN_FLIGHT_PER_WORKER = 2


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
            batches that provide a ``key_fn`` participate.  The path must
            not be a directory, and its directory must exist.
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
        if checkpoint is not None:
            # Checked here, before any task: the journal is first opened
            # at the first append, after a batch has already run.
            journal = Path(checkpoint)
            if journal.is_dir():
                raise ValueError(
                    f"checkpoint must be a journal file, but {checkpoint} is "
                    f"a directory"
                )
            if not journal.parent.is_dir():
                raise ValueError(
                    f"checkpoint {checkpoint}: no such directory {journal.parent}"
                )
            if journal.is_file() and not _may_be_journal(journal):
                raise ValueError(
                    f"checkpoint {checkpoint} is not a checkpoint journal"
                )
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

    def _terminate_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Reach into the executor to kill wedged workers; a hung worker
        # never drains the call queue, so a plain shutdown would block
        # forever.
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

        def record_failure(index: int, kind: str, message: str) -> bool:
            """Charge a failed attempt; returns whether to retry the task.

            A task with no retries left is quarantined instead.
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
                return False
            report.retried += 1
            if telemetry is not None:
                telemetry.emit(
                    "task.retry",
                    (fn, index, attempts[index]),
                    {"kind": kind},
                    wall_s=time.time(),
                )
            return True

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

            pending = deque(
                index for index in range(n) if results[index] is _UNSET
            )
            if self.jobs > 1:
                self._drain_pool(
                    pending, envelope_for, settle_success, record_failure
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
            index = pending.popleft()
            try:
                result = run_envelope(envelope_for(index), in_worker=False)
            except Exception as exc:
                retry = record_failure(index, *_classify_failure(exc))
            else:
                if settle_success(index, result):
                    continue
                retry = record_failure(index, *_classify_failure(None, result))
            if retry:
                pending.append(index)

    # -- pooled execution ------------------------------------------------ #

    def _drain_pool(
        self, pending, envelope_for, settle_success, record_failure
    ) -> None:
        """Run the batch on the pool; what is left stays in ``pending``.

        Each pool death halves :attr:`jobs`; once it reaches 1 the loop
        stops and hands what is left to the inline path.  At most
        :data:`IN_FLIGHT_PER_WORKER` futures per worker are in flight, so
        each ``wait`` walks a handful of futures, not the whole batch.

        The parent-side stall backstop fires when *no* task completes for
        several deadline windows while work is in flight — only possible
        when every worker is wedged in a way its own alarm cannot
        interrupt — and treats the pool like it died.  The window restarts
        whenever an empty or rebuilt pool receives work, so a rebuild
        never counts as stalled time.
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
            self._terminate_pool()
            # Shed load before the rebuild: a pool that just died at
            # width N has better odds at N/2, and width 1 is inline.
            self.jobs = max(1, self.jobs // 2)
            # Every in-flight task is unsettled: a finished future leaves
            # in_flight before its task settles.
            for index in in_flight.values():
                if record_failure(index, kind, message):
                    pending.append(index)
            in_flight.clear()

        while (pending or in_flight) and self.jobs > 1:
            was_idle = not in_flight
            submit_error: str | None = None
            while pending and len(in_flight) < IN_FLIGHT_PER_WORKER * self.jobs:
                try:
                    future = self._executor().submit(
                        run_envelope, envelope_for(pending[0])
                    )
                except (BrokenProcessPool, RuntimeError) as exc:
                    submit_error = f"pool rejected submission: {exc}"
                    break
                in_flight[future] = pending.popleft()
            if submit_error is not None:
                fail_in_flight("pool", submit_error)
                continue
            if was_idle:
                window_start = time.monotonic()

            timeout = None
            if stall_window is not None:
                timeout = stall_window - (time.monotonic() - window_start)
                if timeout <= 0:
                    fail_in_flight(
                        "stall",
                        f"no task completed within {stall_window:.1f}s; "
                        f"terminated the worker pool",
                    )
                    continue

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
                    retry = record_failure(index, *_classify_failure(None, result))
                elif isinstance(exc, BrokenProcessPool):
                    # The pool died under this future; every other
                    # in-flight task is doomed too — handle them as one
                    # pool-death event after this drain loop.
                    pool_broken = True
                    retry = record_failure(
                        index, "pool", f"worker pool died: {exc}"
                    )
                else:
                    retry = record_failure(index, *_classify_failure(exc))
                if retry:
                    pending.append(index)
            if pool_broken:
                fail_in_flight("pool", "worker pool died")


__all__ = [
    "CampaignSupervisor",
    "SupervisorReport",
    "TaskEnvelope",
    "TaskDeadlineExceeded",
    "MemoryBudgetExceeded",
    "CheckpointJournal",
    "run_envelope",
    "wall_deadline",
    "resolve_jobs",
]
