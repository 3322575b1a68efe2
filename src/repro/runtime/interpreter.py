"""The execution engine: the paper's abstract machine, made concrete.

An :class:`Execution` owns all the non-determinism of one run of a
:class:`~repro.runtime.program.Program`:

* ``schedulable()``   — the paper's ``Enabled(s)`` (fast-forwarding abstract
  time when only sleepers remain);
* ``next_op(t)``      — the paper's ``NextStmt(s, t)``, with its statement
  identity and dynamic memory location;
* ``step(t)``         — the paper's ``Execute(s, t)``;
* ``alive()``         — the paper's ``Alive(s)``.

Drivers (schedulers, RaceFuzzer) sit on top of this API and decide *which*
enabled thread to step.  All randomness a driver needs must come from
``Execution.rng`` (seeded in the constructor) — that single discipline is
what makes seed-only replay work.

Java semantics implemented: reentrant monitors, wait/notify/notifyAll with
two-stage wakeup (wait set → monitor re-acquisition), join, sleep on an
abstract clock (1 tick = 1 executed op), interrupts that raise
``InterruptedException`` inside waiting/sleeping victims, and
thread-as-crash-domain (an uncaught exception kills only its thread).

Hot-path design (see INTERNALS "Interpreter fast path")
-------------------------------------------------------
Every campaign bottoms out in :meth:`Execution.step`, so the per-step work
is kept to integer/identity operations:

* **Precompiled dispatch** — each :class:`~repro.runtime.ops.Op` carries a
  dense ``kind_index`` resolved at construction; ``step`` indexes a tuple
  of bound handlers instead of hashing an enum into a dict.
* **Lazy interned statements** — the yield site is captured as a raw
  ``(code, line)`` pair at resume time (two attribute reads); the interned
  :class:`~repro.runtime.statement.Statement` is materialized only when an
  event, a race-set probe, or a crash report actually needs it.
* **Observer tiers** — ``_observing`` (any observer) and ``_observe_mem``
  (an observer that wants MemEvents) are resolved once per execution; with
  no observer attached, a step allocates no event objects at all, and the
  ``locks.held_by()`` frozenset snapshot is only built when a MemEvent is
  actually constructed.  Phase 2 runs RaceFuzzer with no observer: its
  postponing loop reads ops and statements directly, never events.
* **Int-indexed metrics** — per-kind tallies live in a plain list indexed
  by ``kind_index`` and fold into the telemetry once, at ``finish()``.
"""

from __future__ import annotations

import random
import time
from collections.abc import Generator
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any, Iterable

from .errors import (
    AssertionViolation,
    EngineError,
    ExecutionLimitExceeded,
    InterruptedException,
    SchedulerMisuse,
)
from .events import (
    Access,
    AcquireEvent,
    DeadlockEvent,
    ErrorEvent,
    ErrorInfo,
    MemEvent,
    RcvEvent,
    ReleaseEvent,
    SndEvent,
    ThreadEndEvent,
    ThreadStartEvent,
)
from repro.obs import STEP_BUCKETS, maybe_telemetry

from .heap import Heap
from .locks import LockTable
from .observer import ExecutionObserver, ObserverChain
from .ops import KIND_VALUES, Op, OpKind
from .program import Program, resolve_tid
from .statement import (
    FINISHED_STATEMENT,
    Statement,
    label_statement,
    statement_at,
)
from .thread import ThreadState, ThreadStatus

# Status singletons hoisted to module scope: `is` checks against locals
# beat repeated enum attribute lookups in the per-step code below.
_RUNNABLE = ThreadStatus.RUNNABLE
_WAITING = ThreadStatus.WAITING
_SLEEPING = ThreadStatus.SLEEPING
_TERMINATED = ThreadStatus.TERMINATED

#: index of the synthetic "wake" tally slot (after the real op kinds).
_WAKE_SLOT = len(KIND_VALUES)


@dataclass(frozen=True, slots=True)
class ThreadCrash:
    """An uncaught simulated exception that terminated a thread.

    ``error`` is the structured, picklable :class:`ErrorInfo` form — never
    the live ``BaseException`` — so an :class:`ExecutionResult` can always
    cross a process-pool boundary (tracebacks don't pickle, and custom
    exception constructors break naive re-raising).  The live exception
    object stays available in-process on ``ThreadState.error``.
    """

    tid: int
    name: str
    error: ErrorInfo
    stmt: Statement | None
    step: int = 0

    @property
    def error_type(self) -> str:
        return self.error.type

    def __str__(self) -> str:
        where = f" at {self.stmt.site}" if self.stmt else ""
        return f"{self.name}#{self.tid}: {self.error.type}({self.error.message}){where}"


@dataclass
class ExecutionResult:
    """Outcome of one complete execution."""

    program: str
    seed: int
    steps: int = 0
    crashes: list[ThreadCrash] = field(default_factory=list)
    deadlock: bool = False
    deadlocked_tids: tuple[int, ...] = ()
    truncated: bool = False
    wall_time: float = 0.0

    @property
    def exception_types(self) -> list[str]:
        return [crash.error_type for crash in self.crashes]

    def __str__(self) -> str:
        bits = [f"{self.program} seed={self.seed} steps={self.steps}"]
        if self.crashes:
            bits.append(f"crashes={[str(c) for c in self.crashes]}")
        if self.deadlock:
            bits.append(f"DEADLOCK tids={list(self.deadlocked_tids)}")
        if self.truncated:
            bits.append("TRUNCATED")
        return " ".join(bits)


class Execution:
    """One run of a program, with every source of non-determinism owned here."""

    def __init__(
        self,
        program: Program,
        *,
        seed: int = 0,
        observers: Iterable[ExecutionObserver] = (),
        max_steps: int = 1_000_000,
    ) -> None:
        self.program = program
        self.seed = seed
        self.rng = random.Random(seed)
        self.heap = Heap()
        self.locks = LockTable()
        self.threads: dict[int, ThreadState] = {}
        #: alive threads in tid order (tids are assigned monotonically and
        #: threads are only ever appended, so list order == tid order; dead
        #: threads are removed so enabled scans touch only live ones).
        self._live: list[ThreadState] = []
        #: the abstract clock: advances by 1 per executed op and jumps
        #: forward when only sleepers remain.
        self.step_count = 0
        #: ops actually executed — the budget max_steps is charged against
        #: (virtual sleep time is free).
        self.ops_executed = 0
        self.max_steps = max_steps
        self.result = ExecutionResult(program=program.name, seed=seed)
        self._next_tid = 0
        self._next_msg = 0
        self._term_msg: dict[int, int] = {}  # tid -> its termination message id
        self._started = False
        self._finished = False
        self._start_time = 0.0
        self.observer = ObserverChain(observers)
        self._observing = bool(self.observer.observers)
        self._observe_mem = self._observing and self.observer.wants_mem_events
        # Dispatch: one bound handler per OpKind, indexed by Op.kind_index.
        self._dispatch = tuple(
            getattr(self, name) for name in _HANDLER_NAMES
        )
        # Direct alias of the heap's cell dict: READ/WRITE are the two
        # hottest ops and go straight to dict.get / dict.__setitem__.
        self._cells = self.heap._cells
        # Metrics: resolved once per execution so the per-step cost with
        # telemetry off is a single None-check.  Per-kind tallies are a
        # plain list indexed by kind_index (plus one trailing "wake" slot)
        # and fold into the telemetry at finish().
        self._metrics = maybe_telemetry()
        self._m_counts: list[int] | None = (
            [0] * (_WAKE_SLOT + 1) if self._metrics is not None else None
        )
        self._m_switches = 0
        self._m_last_tid = -1

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> None:
        """Instantiate the program and prime the main thread."""
        if self._started:
            raise SchedulerMisuse("execution already started")
        self._started = True
        self._start_time = time.perf_counter()
        if self._observing:
            self.observer.on_start(self)
        main_gen = self.program.instantiate()
        self._create_thread(main_gen, name="main", parent=None)

    def finish(self) -> ExecutionResult:
        """Finalize: detect real deadlocks (paper Algorithm 1, lines 30-32)."""
        if self._finished:
            return self.result
        self._finished = True
        self.close()
        alive = [ts.tid for ts in self._live]
        if alive and not self.result.truncated:
            self.result.deadlock = True
            self.result.deadlocked_tids = tuple(alive)
            if self._observing:
                self.observer.on_event(
                    DeadlockEvent(step=self.step_count, tid=-1, blocked=tuple(alive))
                )
        self.result.steps = self.step_count
        self.result.wall_time = time.perf_counter() - self._start_time
        if self._observing:
            self.observer.on_finish(self)
        m = self._metrics
        if m is not None:
            m.inc("interp.executions")
            m.inc("interp.steps", self.ops_executed)
            m.inc("interp.context_switches", self._m_switches)
            lock_ops = 0
            for index, count in enumerate(self._m_counts):
                if count:
                    kind = KIND_VALUES[index] if index < _WAKE_SLOT else "wake"
                    m.inc(f"interp.ops.{kind}", count)
                    if kind in ("lock", "unlock", "reacquire"):
                        lock_ops += count
            m.inc("interp.lock_ops", lock_ops)
            m.inc("interp.crashes", len(self.result.crashes))
            if self.result.deadlock:
                m.inc("interp.deadlocks")
            if self.result.truncated:
                m.inc("interp.truncated")
            m.observe(
                "interp.steps_per_execution", self.ops_executed,
                bounds=STEP_BUCKETS,
            )
        return self.result

    def close(self) -> None:
        """Close every live thread body that is not a plain generator.

        A token thread (:mod:`repro.native`) parks a real OS thread until
        it is closed; a suspended generator needs nothing.  ``finish``
        calls this, and so do the driver loops when an error aborts the
        run, so no OS thread outlives its execution.  Idempotent.
        """
        for ts in self._live:
            if ts.gen.__class__ is not GeneratorType:
                ts.gen.close()

    def run(self, scheduler) -> ExecutionResult:
        """Convenience loop: let ``scheduler`` pick among enabled threads.

        Schedulers may expose an optional ``continuation(execution)`` hook
        returning the tid to step next without consulting the full enabled
        list, or ``None`` to fall back to ``choose``.  The hook must be
        draw-equivalent to ``choose`` (same rng consumption), so schedules
        are byte-identical with or without it; it exists purely to skip
        building the enabled list on uncontended runs-of-steps.
        """
        continuation = getattr(scheduler, "continuation", None)
        choose = scheduler.choose
        schedulable = self.schedulable
        step = self.step
        max_steps = self.max_steps
        try:
            self.start()
            while True:
                if continuation is not None and self.ops_executed < max_steps:
                    tid = continuation(self)
                    if tid is not None:
                        step(tid)
                        continue
                enabled = schedulable()
                if not enabled:
                    break
                step(choose(self, enabled))
        except BaseException:
            self.close()
            raise
        return self.finish()

    # ------------------------------------------------------------------ #
    # state inspection (the paper's Enabled / Alive / NextStmt)

    def _enabled(self, ts: ThreadState) -> bool:
        """Enabledness of one thread; the hot kernel behind is_enabled()."""
        status = ts.status
        if status is _RUNNABLE:
            op = ts.pending
            if op is None:
                return False
            blocking = op.blocking
            if blocking == 0:
                return True
            if blocking == 1:  # LOCK / REACQUIRE
                return self.locks.can_acquire(op.lock, ts.tid)
            # JOIN: enabled once the target is dead.
            return not self.threads[resolve_tid(op.target)].alive
        if status is _WAITING:
            # A timed wait becomes enabled at its deadline: the next step
            # transitions it to monitor re-acquisition (Object.wait(long)).
            return bool(ts.wake_at) and self.step_count >= ts.wake_at
        if status is _SLEEPING:
            return ts.deliver_interrupt or self.step_count >= ts.wake_at
        return False  # TERMINATED

    def is_enabled(self, tid: int) -> bool:
        """Can ``tid`` make progress if stepped right now?"""
        return self._enabled(self.threads[tid])

    def enabled_tids(self) -> list[int]:
        """All currently enabled thread ids, in tid order."""
        enabled = self._enabled
        return [ts.tid for ts in self._live if enabled(ts)]

    def schedulable(self) -> list[int]:
        """Enabled tids, fast-forwarding the clock past an all-sleeping lull.

        Returns ``[]`` when the execution is over (all dead or deadlocked)
        or the step budget is exhausted (``result.truncated`` is set).
        """
        enabled = self.enabled_tids()
        if not enabled:
            deadlines = [
                ts.wake_at
                for ts in self._live
                if (
                    ts.status is _SLEEPING
                    or (ts.status is _WAITING and ts.wake_at)
                )
            ]
            if deadlines:
                # Nothing runnable but time can pass: jump to the earliest
                # sleeper wakeup or timed-wait deadline.
                self.step_count = max(self.step_count, min(deadlines))
                enabled = self.enabled_tids()
        if enabled and self.ops_executed >= self.max_steps:
            self.result.truncated = True
            return []
        return enabled

    def alive_tids(self) -> list[int]:
        """Threads not yet terminated — the paper's ``Alive(s)``."""
        return [ts.tid for ts in self._live]

    def next_op(self, tid: int) -> Op | None:
        """The pending (yielded, unexecuted) op of ``tid`` — ``NextStmt``."""
        return self.threads[tid].pending

    def next_stmt(self, tid: int) -> Statement | None:
        """Statement identity of the pending op (``NextStmt``'s ``s``)."""
        return self._stmt(self.threads[tid])

    def fresh_msg(self) -> int:
        """Allocate a unique happens-before message id (``g`` in SND/RCV)."""
        self._next_msg += 1
        return self._next_msg

    # ------------------------------------------------------------------ #
    # stepping

    def step(self, tid: int) -> None:
        """Execute the pending op of ``tid`` — the paper's ``Execute(s, t)``."""
        ts = self.threads.get(tid)
        if ts is None:
            raise SchedulerMisuse(f"unknown thread {tid}")
        if not self._enabled(ts):
            raise SchedulerMisuse(f"thread {ts} is not enabled")
        if self.ops_executed >= self.max_steps:
            raise ExecutionLimitExceeded(
                f"{self.program.name}: exceeded {self.max_steps} steps"
            )
        self.step_count += 1
        self.ops_executed += 1
        counts = self._m_counts
        if counts is not None and tid != self._m_last_tid:
            if self._m_last_tid >= 0:
                self._m_switches += 1
            self._m_last_tid = tid
        status = ts.status
        if status is _RUNNABLE:
            op = ts.pending
            index = op.kind_index
            if counts is not None:
                counts[index] += 1
            self._dispatch[index](ts, op)
        elif status is _SLEEPING:
            # Wakeups execute no user op; they are tallied under the
            # synthetic "wake" kind here, where the wake actually happens
            # (a pending SLEEP/WAIT op must not be double-counted).
            if counts is not None:
                counts[_WAKE_SLOT] += 1
            self._wake_from_sleep(ts)
        else:  # _WAITING (timed wait at its deadline)
            if counts is not None:
                counts[_WAKE_SLOT] += 1
            self._wake_from_timed_wait(ts)

    # --- op handlers ---------------------------------------------------- #

    def _do_read(self, ts: ThreadState, op: Op) -> None:
        value = self._cells.get(op.location, op.default)
        if self._observe_mem:
            self._emit_mem(ts, op, Access.READ)
        self._advance(ts, value=value)

    def _do_write(self, ts: ThreadState, op: Op) -> None:
        self._cells[op.location] = op.value
        if self._observe_mem:
            self._emit_mem(ts, op, Access.WRITE)
        self._advance(ts, value=None)

    def _do_lock(self, ts: ThreadState, op: Op) -> None:
        outermost = self.locks.acquire(op.lock, ts.tid)
        if outermost and self._observing:
            self.observer.on_event(
                AcquireEvent(
                    step=self.step_count, tid=ts.tid, lock=op.lock,
                    stmt=self._stmt(ts),
                )
            )
        self._advance(ts, value=None)

    def _do_unlock(self, ts: ThreadState, op: Op) -> None:
        fully = self.locks.release(op.lock, ts.tid)
        if fully and self._observing:
            self.observer.on_event(
                ReleaseEvent(
                    step=self.step_count, tid=ts.tid, lock=op.lock,
                    stmt=self._stmt(ts),
                )
            )
        self._advance(ts, value=None)

    def _do_wait(self, ts: ThreadState, op: Op) -> None:
        # Java: wait with the interrupt flag already set throws immediately.
        if ts.interrupt_flag:
            ts.interrupt_flag = False
            self._advance(ts, exc=InterruptedException(f"{ts.name} interrupted"))
            return
        ts.wake_at = self.step_count + op.duration if op.duration else 0
        depth = self.locks.release_all(op.lock, ts.tid)
        if self._observing:
            self.observer.on_event(
                ReleaseEvent(
                    step=self.step_count, tid=ts.tid, lock=op.lock,
                    stmt=self._stmt(ts),
                )
            )
        self.locks.park_waiter(op.lock, ts.tid)
        ts.status = _WAITING
        ts.waiting_on = op.lock
        ts.wait_depth = depth
        # pending stays the WAIT op (not executable) until notify/interrupt.

    def _do_notify(self, ts: ThreadState, op: Op) -> None:
        self._require_held(ts, op)
        monitor = self.locks.monitor(op.lock)
        if monitor.wait_set:
            index = self.rng.randrange(len(monitor.wait_set))
            woken = self.locks.unpark_one(op.lock, index)
            msg = self._snd(ts.tid)
            self._transition_to_reacquire(self.threads[woken], msg)
        self._advance(ts, value=None)

    def _do_notify_all(self, ts: ThreadState, op: Op) -> None:
        self._require_held(ts, op)
        woken = self.locks.unpark_all(op.lock)
        if woken:
            msg = self._snd(ts.tid)
            for tid in woken:
                self._transition_to_reacquire(self.threads[tid], msg)
        self._advance(ts, value=None)

    def _do_spawn(self, ts: ThreadState, op: Op) -> None:
        gen = op.func(*op.args)
        if not isinstance(gen, Generator):
            raise EngineError(
                f"spawn target {op.func!r} must return a generator "
                f"(a thread body), got {type(gen).__name__}"
            )
        child = self._create_thread(
            gen, name=op.name or getattr(op.func, "__name__", "thread"), parent=ts.tid
        )
        self._advance(ts, value=child.handle)

    def _do_join(self, ts: ThreadState, op: Op) -> None:
        target = resolve_tid(op.target)
        msg = self._term_msg.get(target)
        if msg is not None and self._observing:
            self.observer.on_event(RcvEvent(step=self.step_count, tid=ts.tid, msg_id=msg))
        self._advance(ts, value=None)

    def _do_sleep(self, ts: ThreadState, op: Op) -> None:
        if ts.interrupt_flag:
            ts.interrupt_flag = False
            self._advance(ts, exc=InterruptedException(f"{ts.name} interrupted"))
            return
        ts.status = _SLEEPING
        ts.wake_at = self.step_count + max(1, op.duration)
        # pending stays the SLEEP op; the wake step resumes the generator.

    def _wake_from_timed_wait(self, ts: ThreadState) -> None:
        """A timed wait hit its deadline: leave the wait set and re-contend
        for the monitor (the wait returns only after re-acquisition)."""
        self.locks.remove_waiter(ts.waiting_on, ts.tid)
        ts.pending = Op(
            OpKind.REACQUIRE, lock=ts.waiting_on, reacquire_count=ts.wait_depth
        )
        ts.status = _RUNNABLE
        ts.waiting_on = None
        ts.wake_at = 0

    def _wake_from_sleep(self, ts: ThreadState) -> None:
        ts.status = _RUNNABLE
        if ts.deliver_interrupt:
            ts.deliver_interrupt = False
            ts.interrupt_flag = False
            msg = ts.waiting_on if isinstance(ts.waiting_on, int) else None
            if msg is not None and self._observing:
                self.observer.on_event(
                    RcvEvent(step=self.step_count, tid=ts.tid, msg_id=msg)
                )
            ts.waiting_on = None
            self._advance(ts, exc=InterruptedException(f"{ts.name} interrupted"))
        else:
            self._advance(ts, value=None)

    def _do_interrupt(self, ts: ThreadState, op: Op) -> None:
        target = self.threads.get(resolve_tid(op.target))
        if target is None or not target.alive:
            self._advance(ts, value=None)
            return
        if target.status is _WAITING:
            self.locks.remove_waiter(target.waiting_on, target.tid)
            msg = self._snd(ts.tid)
            lock = target.waiting_on
            target.pending = Op(
                OpKind.REACQUIRE, lock=lock, reacquire_count=target.wait_depth
            )
            target.status = _RUNNABLE
            target.waiting_on = msg  # stash the HB message for delivery
            target.deliver_interrupt = True
        elif target.status is _SLEEPING:
            msg = self._snd(ts.tid)
            target.waiting_on = msg
            target.deliver_interrupt = True
        else:
            target.interrupt_flag = True
        self._advance(ts, value=None)

    def _do_interrupted(self, ts: ThreadState, op: Op) -> None:
        flag = ts.interrupt_flag
        ts.interrupt_flag = False
        self._advance(ts, value=flag)

    def _do_yield(self, ts: ThreadState, op: Op) -> None:
        self._advance(ts, value=None)

    def _do_check(self, ts: ThreadState, op: Op) -> None:
        if op.condition:
            self._advance(ts, value=None)
        else:
            self._advance(ts, exc=AssertionViolation(op.message or "check failed"))

    def _do_reacquire(self, ts: ThreadState, op: Op) -> None:
        self.locks.acquire(op.lock, ts.tid, depth=op.reacquire_count)
        if self._observing:
            self.observer.on_event(
                AcquireEvent(
                    step=self.step_count, tid=ts.tid, lock=op.lock,
                    stmt=self._stmt(ts),
                )
            )
        msg = ts.waiting_on if isinstance(ts.waiting_on, int) else None
        if msg is not None and self._observing:
            self.observer.on_event(RcvEvent(step=self.step_count, tid=ts.tid, msg_id=msg))
        ts.waiting_on = None
        ts.wait_depth = 0
        if ts.deliver_interrupt:
            ts.deliver_interrupt = False
            ts.interrupt_flag = False
            self._advance(ts, exc=InterruptedException(f"{ts.name} interrupted"))
        else:
            self._advance(ts, value=None)

    # ------------------------------------------------------------------ #
    # internals

    def _stmt(self, ts: ThreadState) -> Statement | None:
        """Materialize (and memoize) the statement of ``ts``'s pending op."""
        stmt = ts.pending_stmt
        if stmt is None and ts.stmt_code is not None:
            stmt = statement_at(ts.stmt_code, ts.stmt_line)
            ts.pending_stmt = stmt
        return stmt

    def _require_held(self, ts: ThreadState, op: Op) -> None:
        if not self.locks.holds(op.lock, ts.tid):
            from .errors import IllegalMonitorState

            raise IllegalMonitorState(
                f"{ts} notified {op.lock} without holding it"
            )

    def _transition_to_reacquire(self, ts: ThreadState, msg: int) -> None:
        """Move a woken waiter to the monitor-entry competition."""
        ts.pending = Op(
            OpKind.REACQUIRE, lock=ts.waiting_on, reacquire_count=ts.wait_depth
        )
        ts.status = _RUNNABLE
        ts.wake_at = 0  # a pending timed-wait deadline is void once notified
        ts.waiting_on = msg  # carry the SND message until re-acquisition

    def _snd(self, tid: int) -> int:
        msg = self.fresh_msg()
        if self._observing:
            self.observer.on_event(SndEvent(step=self.step_count, tid=tid, msg_id=msg))
        return msg

    def _emit_mem(self, ts: ThreadState, op: Op, access: Access) -> None:
        # Only reached when an observer wants MemEvents (_observe_mem).
        self.observer.on_event(
            MemEvent(
                step=self.step_count,
                tid=ts.tid,
                stmt=self._stmt(ts),
                location=op.location,
                access=access,
                locks_held=self.locks.held_by(ts.tid),
            )
        )

    def _create_thread(self, gen, name: str, parent: int | None) -> ThreadState:
        tid = self._next_tid
        self._next_tid += 1
        ts = ThreadState(tid=tid, name=f"{name}", gen=gen)
        self.threads[tid] = ts
        self._live.append(ts)
        if self._observing:
            self.observer.on_event(
                ThreadStartEvent(
                    step=self.step_count, tid=parent if parent is not None else tid,
                    child=tid, name=ts.name,
                )
            )
        if parent is not None:
            # SND by parent at spawn, RCV by child immediately: the child has
            # produced no events yet, so receiving now is equivalent to
            # receiving at its first step, and far simpler.
            msg = self._snd(parent)
            if self._observing:
                self.observer.on_event(
                    RcvEvent(step=self.step_count, tid=tid, msg_id=msg)
                )
        self._advance(ts, value=None, priming=True)
        return ts

    def _advance(
        self,
        ts: ThreadState,
        value: Any = None,
        exc: BaseException | None = None,
        priming: bool = False,
    ) -> None:
        """Resume the generator until its next yield (or its end)."""
        try:
            if exc is not None:
                op = ts.gen.throw(exc)
            elif priming:
                op = next(ts.gen)
            else:
                op = ts.gen.send(value)
        except StopIteration:
            self._terminate(ts, None)
        except EngineError:
            raise
        except BaseException as error:  # the thread's crash domain
            self._terminate(ts, error)
        else:
            if op.__class__ is not Op and not isinstance(op, Op):
                raise EngineError(
                    f"{ts} yielded {op!r}; thread bodies must yield Op values"
                )
            ts.pending = op
            if op.label is not None:
                ts.pending_stmt = label_statement(op.label)
                ts.stmt_code = None
            else:
                # Capture the raw site eagerly (the frame is only readable
                # while the generator is suspended, and a later crash must
                # attribute to this op); intern the Statement lazily.  This
                # is innermost_frame() inlined: follow the yield-from chain
                # so composed helpers attribute to the line that actually
                # performed the access.
                gen = ts.gen
                while True:
                    nested = gen.gi_yieldfrom
                    if nested is None or nested.__class__ is not GeneratorType:
                        break
                    gen = nested
                frame = gen.gi_frame
                if frame is None:
                    ts.pending_stmt = FINISHED_STATEMENT
                    ts.stmt_code = None
                else:
                    ts.pending_stmt = None
                    ts.stmt_code = frame.f_code
                    ts.stmt_line = frame.f_lineno

    def _terminate(self, ts: ThreadState, error: BaseException | None) -> None:
        ts.status = _TERMINATED
        stmt = self._stmt(ts)
        ts.pending = None
        # Keep the (materialized) last statement readable via next_stmt();
        # clear the raw site so _stmt() never touches a dead frame's code.
        ts.pending_stmt = stmt
        ts.stmt_code = None
        self._live.remove(ts)
        # Events and crash records carry the picklable ErrorInfo form; the
        # live exception stays on ThreadState for in-process consumers.
        info = ErrorInfo.from_exception(error) if error is not None else None
        if error is not None:
            ts.error = error
            ts.error_stmt = stmt
            crash = ThreadCrash(
                tid=ts.tid, name=ts.name, error=info, stmt=stmt,
                step=self.step_count,
            )
            self.result.crashes.append(crash)
            if self._observing:
                self.observer.on_event(
                    ErrorEvent(step=self.step_count, tid=ts.tid, stmt=stmt, error=info)
                )
        # Termination message: join edges receive from this.
        self._term_msg[ts.tid] = self._snd(ts.tid)
        if self._observing:
            self.observer.on_event(
                ThreadEndEvent(step=self.step_count, tid=ts.tid, error=info)
            )


#: handler method names in OpKind declaration order; ``Execution.__init__``
#: binds these once so ``step`` dispatches via ``tuple[kind_index]``.
_HANDLER_NAMES = (
    "_do_read",
    "_do_write",
    "_do_lock",
    "_do_unlock",
    "_do_wait",
    "_do_notify",
    "_do_notify_all",
    "_do_spawn",
    "_do_join",
    "_do_sleep",
    "_do_interrupt",
    "_do_interrupted",
    "_do_yield",
    "_do_check",
    "_do_reacquire",
)

assert tuple(f"_do_{kind.value}" for kind in OpKind) == _HANDLER_NAMES, (
    "handler table out of sync with OpKind declaration order"
)
