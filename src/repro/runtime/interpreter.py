"""The execution engine: the paper's abstract machine, made concrete.

An :class:`Execution` owns all the non-determinism of one run of a
:class:`~repro.runtime.program.Program`:

* ``schedulable()``   — the paper's ``Enabled(s)`` (fast-forwarding abstract
  time when only sleepers remain);
* ``next_op(t)``      — the paper's ``NextStmt(s, t)``, with its statement
  identity and dynamic memory location;
* ``step(t)``         — the paper's ``Execute(s, t)``, checked: it raises
  :class:`SchedulerMisuse` for a thread that is not enabled;
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
Every campaign bottoms out in :meth:`Execution._execute`, so the per-step
work is kept to integer/identity operations:

* **Maintained Enabled(s)** — ``_enabled(ts)`` is the definition of
  enabledness, but nothing rescans every live thread with it.  Each
  :class:`~repro.runtime.thread.ThreadState` keeps its current answer in
  ``enabled``, and a transition re-derives only the answers it can
  change: the stepped thread's, the contenders of a lock that changed
  owner, woken or interrupted waiters and sleepers, the joiners of a
  thread that ended, a new thread's, and the deadline holders once the
  clock reaches the soonest deadline.  The tid-ordered list
  ``schedulable()`` returns is rebuilt only after some answer changed, so
  while no answer changes it is the *same list object* (a passive
  scheduler may rely on that; nobody may mutate it).
* **Checked and unchecked stepping** — the public ``step(tid)`` checks the
  thread and the step budget, then calls ``_execute(ts)``.  Callers that
  have proved both already (``run()``, the postponing driver's burst)
  call ``_execute`` directly, after ``schedulable()``'s fast path inlined.
  The budget is a clock reading, ``step_limit``, so a step advances one
  counter; ``ops_executed`` is derived from it.
* **One resume site** — READ, WRITE and YIELD execute inside ``_execute``
  itself; every other kind goes to a handler, found by the op's dense
  ``kind_index`` in a tuple of the class's handler functions, which
  *returns* the value to send (or :data:`_PARKED`, or a :class:`_Throw`).
  ``_execute`` then resumes the body, the only place a generator is
  resumed; priming a new thread's body goes through it too.
* **Heap keyed in C** — the heap's cells are keyed by ``Location.key``,
  a plain tuple built with the location, so a READ or WRITE hashes no
  Python object; the lock table is keyed by ``LockId.uid``.
* **One draw helper** — :func:`pick` is ``seq[rng.randrange(len(seq))]``
  with ``randrange``'s bit loop inlined; every scheduling draw uses its
  bits (the postponing driver's choice and ``RandomScheduler.choose``,
  one draw per executed op, inline it once more).
* **Lazy interned statements** — the yield site is captured as a raw
  ``(code, line)`` pair at resume time, from the thread's last innermost
  generator while that one is suspended and delegates to nothing (else
  walking the ``yield from`` chain from it, or from the body once it
  ended).  The line is the frame's ``f_lasti`` looked up in its code
  object's ``{f_lasti: line}`` table
  (:func:`~repro.runtime.statement.line_table`), which the thread keeps
  while its sites stay in one code object; ``frame.f_lineno`` would
  decode the code's line table from the start at every read.  The
  interned :class:`~repro.runtime.statement.Statement` is materialized
  only when an event, a race-set probe, or a crash report actually needs
  it.
* **Observer tiers** — ``_observing`` (any observer) and ``_observe_mem``
  (an observer that wants MemEvents) are resolved once per execution; with
  no observer attached, a step allocates no event objects at all.  An
  event is one positional ``tuple.__new__`` call, and its lockset is the
  thread's current ``locks.held_by()`` frozenset, which the lock table
  rebuilds only after the thread's outermost held locks change; a lone
  observer gets each event straight from ``ObserverChain.deliver``.
  Phase 2 runs RaceFuzzer with no observer: its postponing loop reads ops
  and statements directly, never events.
* **Metrics once per execution** — the execution's counters fold into the
  telemetry once, at ``finish()``; the step kernel touches none.
* **Freed by reference counting** — the execution keeps no bound method
  of itself, and a crashed thread's exception is dropped with its
  traceback (which holds ``_execute``'s frame), so a finished execution
  is in no reference cycle and the cyclic collector never has to find it.
"""

from __future__ import annotations

import itertools
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
from repro.obs import maybe_telemetry

from .heap import Heap
from .location import use_uids
from .locks import LockTable
from .observer import ExecutionObserver, ObserverChain
from .ops import Op, OpKind
from .program import Program, resolve_tid
from .statement import (
    FINISHED_STATEMENT,
    Statement,
    label_statement,
    line_table,
    statement_at,
)
from .thread import ThreadState, ThreadStatus

# Status singletons hoisted to module scope: `is` checks against locals
# beat repeated enum attribute lookups in the per-step code below.
_RUNNABLE = ThreadStatus.RUNNABLE
_WAITING = ThreadStatus.WAITING
_SLEEPING = ThreadStatus.SLEEPING
_TERMINATED = ThreadStatus.TERMINATED

#: builds an event from its fields in order (see :mod:`repro.runtime.events`).
_new = tuple.__new__

#: ``Execution._wake_next`` when no thread has a deadline.
_NEVER = 1 << 62

#: the ``kind_index`` of each kind ``Execution._execute`` runs inline.
_READ = OpKind.READ.index
_WRITE = OpKind.WRITE.index
_YIELD = OpKind.YIELD.index

_REACQUIRE = OpKind.REACQUIRE
_ACCESS_READ = Access.READ
_ACCESS_WRITE = Access.WRITE

#: an op handler's answer when the thread is not resumed this step: it
#: parked in a wait set, fell asleep, or went back to contend for a monitor.
_PARKED = object()


class _Throw:
    """An op handler's answer: resume the thread by raising ``error`` in it."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


def pick(rng: random.Random, seq):
    """``seq[rng.randrange(len(seq))]``, drawing exactly the same bits.

    ``randrange(n)`` is CPython's ``_randbelow(n)``: ``getrandbits(k)``
    with ``k = n.bit_length()``, drawn again while the result is ``>= n``.
    That loop is done here directly, without ``randrange``'s argument
    handling, so a schedule is the same whichever of the two drew it.
    """
    n = len(seq)
    if not n:
        raise ValueError("pick from an empty sequence")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return seq[r]


@dataclass(frozen=True, slots=True)
class ThreadCrash:
    """An uncaught simulated exception that terminated a thread.

    ``error`` is the structured, picklable :class:`ErrorInfo` form — never
    the live ``BaseException`` — so an :class:`ExecutionResult` can always
    cross a process-pool boundary (tracebacks don't pickle, and custom
    exception constructors break naive re-raising).
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
        #: threads are removed).
        self._live: list[ThreadState] = []
        #: tids of the live threads whose ``enabled`` answer is True, in
        #: tid order; None once an answer changed, until the next read.
        self._enabled_list: list[int] | None = []
        #: tid -> thread whose pending op is a LOCK or REACQUIRE: the only
        #: threads a lock's change of owner can enable or disable.
        self._contending: dict[int, ThreadState] = {}
        #: the soonest deadline of a sleeper or timed waiter that is not
        #: enabled yet; may lag below the true one, never above it.  The
        #: clock moves at every step, but the answers of deadline holders
        #: are brought up to date only when an answer is read.
        self._wake_next = _NEVER
        #: the abstract clock: advances by 1 per executed op and jumps
        #: forward when only sleepers remain.
        self.step_count = 0
        self.max_steps = max_steps
        #: the clock reading at which the op budget (``max_steps``) is
        #: spent: it moves with every fast-forward, since virtual sleep
        #: time is free, so a step only advances the clock.
        self.step_limit = max_steps
        self.result = ExecutionResult(program=program.name, seed=seed)
        self._next_tid = 0
        self._next_msg = 0
        self._term_msg: dict[int, int] = {}  # tid -> its termination message id
        #: this execution's location/lock uids, installed while it runs.
        self._uids = itertools.count(1)
        self._started = False
        self._finished = False
        self._start_time = 0.0
        self.observer = ObserverChain(observers)
        self._observing = bool(self.observer.observers)
        self._deliver = self.observer.deliver
        self._observe_mem = self._observing and self.observer.wants_mem_events
        # Dispatch: one handler per OpKind, indexed by Op.kind_index (None
        # for READ, WRITE and YIELD, which _execute runs inline).  Plain
        # functions taken from the class, so a subclass's override applies
        # and the execution holds no bound method of itself: a finished
        # one is freed by reference counting, not by the cyclic collector.
        cls = type(self)
        self._dispatch = tuple(getattr(cls, name, None) for name in _HANDLER_NAMES)
        # Direct aliases of the heap's dicts: READ/WRITE are the two
        # hottest ops and go straight to dict.get / dict.__setitem__ on
        # the location's key.
        self._cells = self.heap._cells
        self._written = self.heap._locations
        # Metrics: resolved once per execution and folded into the
        # telemetry at finish(); the step kernel never touches them.
        self._metrics = maybe_telemetry()

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
        use_uids(self._uids)
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
                self._deliver(
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
            m.inc("interp.crashes", len(self.result.crashes))
            if self.result.deadlock:
                m.inc("interp.deadlocks")
            if self.result.truncated:
                m.inc("interp.truncated")
        return self.result

    def close(self) -> None:
        """Close every live thread body that is not a plain generator.

        A token thread (:mod:`repro.native`) parks a real OS thread until
        it is closed; a suspended generator needs nothing.  ``finish``
        calls this, and so do the driver loops when an error aborts the
        run, so no OS thread outlives its execution; and uninstalls the
        uid counter.  Idempotent.
        """
        for ts in self._live:
            if ts.gen.__class__ is not GeneratorType:
                ts.gen.close()
        use_uids(None)

    def run(self, scheduler) -> ExecutionResult:
        """Convenience loop: let ``scheduler`` pick among enabled threads.

        ``scheduler.choose(execution, enabled)`` gets the maintained list
        itself (see :meth:`schedulable`), so the call costs no scan.
        """
        choose = scheduler.choose
        schedulable = self.schedulable
        execute = self._execute
        threads = self.threads
        try:
            self.start()
            while True:
                # schedulable()'s fast path, inlined: the maintained list,
                # unless a deadline fell due, it is empty or the budget is
                # spent.
                enabled = self._enabled_list
                if (
                    not enabled
                    or self.step_count >= self._wake_next
                    or self.step_count >= self.step_limit
                ):
                    enabled = schedulable()
                    if not enabled:
                        break
                tid = choose(self, enabled)
                try:
                    ts = threads[tid]
                except KeyError:
                    self.step(tid)  # raises SchedulerMisuse
                if not ts.enabled:
                    self.step(tid)  # raises SchedulerMisuse
                # schedulable() checked the budget; no other execution
                # has run since start() installed this one's uids.
                execute(ts)
        except BaseException:
            self.close()
            raise
        return self.finish()

    # ------------------------------------------------------------------ #
    # state inspection (the paper's Enabled / Alive / NextStmt)

    def _enabled(self, ts: ThreadState) -> bool:
        """Enabledness of one thread: the definition the maintained answers
        (``ThreadState.enabled``) are re-derived from by :meth:`_note`."""
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
            # JOIN: enabled once the target is dead.  The target is resolved
            # once per pending JOIN; _do_join clears it.
            target = ts.join_target
            if target is None:
                target = ts.join_target = self.threads[resolve_tid(op.target)]
            return target.status is _TERMINATED
        if status is _WAITING:
            # A timed wait becomes enabled at its deadline: the next step
            # transitions it to monitor re-acquisition (Object.wait(long)).
            return bool(ts.wake_at) and self.step_count >= ts.wake_at
        if status is _SLEEPING:
            return ts.deliver_interrupt or self.step_count >= ts.wake_at
        return False  # TERMINATED

    def _note(self, ts: ThreadState) -> None:
        """Re-derive the maintained answer of one thread after a transition
        that may have changed it."""
        answer = self._enabled(ts)
        if answer != ts.enabled:
            ts.enabled = answer
            self._enabled_list = None

    def _lock_moved(self, lock, free: bool) -> None:
        """``lock`` was just released (``free``) or taken: every thread
        still contending for it is now enabled, or disabled."""
        contending = self._contending
        if contending:
            uid = lock.uid
            for ts in contending.values():
                if ts.enabled != free and ts.pending.lock.uid == uid:
                    ts.enabled = free
                    self._enabled_list = None

    def _clock_moved(self) -> None:
        """The clock reached the soonest deadline: re-derive the answer of
        every thread whose deadline has passed, and find the next one."""
        now = self.step_count
        soonest = _NEVER
        for ts in self._live:
            status = ts.status
            if status is _SLEEPING or (status is _WAITING and ts.wake_at):
                if ts.wake_at <= now:
                    self._note(ts)
                elif ts.wake_at < soonest:
                    soonest = ts.wake_at
        self._wake_next = soonest

    def _add_deadline(self, wake_at: int) -> None:
        if wake_at < self._wake_next:
            self._wake_next = wake_at

    def enabled_tids(self) -> list[int]:
        """All currently enabled thread ids, in tid order.

        The list is the engine's own and stays the same object until some
        thread's answer changes: read it, never mutate it.
        """
        if self.step_count >= self._wake_next:
            self._clock_moved()
        enabled = self._enabled_list
        if enabled is None:
            enabled = self._enabled_list = [
                ts.tid for ts in self._live if ts.enabled
            ]
        return enabled

    def schedulable(self) -> list[int]:
        """Enabled tids, fast-forwarding the clock past an all-sleeping lull.

        Returns ``[]`` when the execution is over (all dead or deadlocked)
        or the step budget is exhausted (``result.truncated`` is set).
        Otherwise it returns :meth:`enabled_tids`' list.
        """
        if self.step_count >= self._wake_next:
            self._clock_moved()
        enabled = self._enabled_list
        if enabled and self.step_count < self.step_limit:
            return enabled
        if enabled is None:
            enabled = self.enabled_tids()
        if not enabled:
            deadlines = self.deadlines()
            if deadlines:
                # Nothing runnable but time can pass: jump to the earliest
                # sleeper wakeup or timed-wait deadline.
                now = max(self.step_count, min(deadlines))
                self.step_limit += now - self.step_count
                self.step_count = now
                self._clock_moved()
                enabled = self.enabled_tids()
        if enabled and self.step_count >= self.step_limit:
            self.result.truncated = True
            return []
        return enabled

    def deadlines(self) -> list[int]:
        """Wake steps of the live threads that change state on their own
        once the clock reaches them: sleepers and timed waiters."""
        return [
            ts.wake_at
            for ts in self._live
            if ts.status is _SLEEPING or (ts.status is _WAITING and ts.wake_at)
        ]

    @property
    def ops_executed(self) -> int:
        """Ops actually executed: the clock less the virtual time skipped,
        what ``max_steps`` is charged against."""
        return self.step_count - self.step_limit + self.max_steps

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
        if self.step_count >= self._wake_next:
            self._clock_moved()
        if not ts.enabled:
            raise SchedulerMisuse(f"thread {ts} is not enabled")
        if self.step_count >= self.step_limit:
            raise ExecutionLimitExceeded(
                f"{self.program.name}: exceeded {self.max_steps} steps"
            )
        # Executions stepped alternately each keep their own uid sequence.
        use_uids(self._uids)
        self._execute(ts)

    def _execute(self, ts: ThreadState, prime: bool = False) -> None:
        """:meth:`step` without its checks, and the one place a thread body
        is resumed.

        The caller must already know that ``ts`` is enabled, that
        ``step_count < step_limit`` (the budget has room) and that no other
        execution has run since this one's ``start()`` (whose uid counter
        is installed): :meth:`run` and the postponing driver's burst both
        do.

        READ, WRITE and YIELD execute here; every other kind goes to its
        handler, which returns the value to send into the thread,
        :data:`_PARKED` when the thread does not resume this step, or a
        :class:`_Throw`.  With ``prime`` nothing executes and the thread, a
        new one, is resumed with None to reach its first op.
        """
        throw = None
        if prime:
            value = None
        else:
            self.step_count += 1
            # A sleeper's or timed waiter's pending op stays its SLEEP or
            # WAIT, whose handler performs the wake.
            op = ts.pending
            kind = op.kind_index
            if kind == _READ:
                if self._observe_mem:
                    self._emit_mem(ts, op, _ACCESS_READ)
                value = self._cells.get(op.location.key, op.default)
            elif kind == _WRITE:
                location = op.location
                self._cells[location.key] = op.value
                self._written[location.key] = location
                if self._observe_mem:
                    self._emit_mem(ts, op, _ACCESS_WRITE)
                value = None
            elif kind == _YIELD:
                value = None
            else:
                value = self._dispatch[kind](self, ts, op)
                if value is _PARKED:
                    return
                if value.__class__ is _Throw:
                    throw = value.error
        # Resume the body until its next yield (or its end).  ``ts`` was
        # enabled, or is new and _create_thread derives its answer, so only
        # a pending op that can block needs its answer re-derived here.
        try:
            if throw is None:
                op = ts.gen.send(value)
            else:
                op = ts.gen.throw(throw)
        except StopIteration:
            self._terminate(ts, None)
        except EngineError:
            raise
        except BaseException as error:  # the thread's crash domain
            # The traceback holds this frame, and so the execution and, when
            # the error was thrown in, ``throw``: a cycle.  Nothing reads it.
            error.__traceback__ = None
            self._terminate(ts, error)
        else:
            if op.__class__ is not Op and not isinstance(op, Op):
                raise EngineError(
                    f"{ts} yielded {op!r}; thread bodies must yield Op values"
                )
            ts.pending = op
            if op.blocking:
                if op.blocking == 1:
                    self._contending[ts.tid] = ts
                self._note(ts)
            if op.label is not None:
                ts.pending_stmt = label_statement(op.label)
                ts.stmt_code = None
                ts.stmt_line = 0  # a labelled statement's line
            else:
                # Capture the raw site eagerly (the frame is only readable
                # while the generator is suspended, and a later crash must
                # attribute to this op); intern the Statement lazily.
                # Follow the yield-from chain so composed helpers (the
                # mini-JDK, Barrier, ...) attribute to the line that
                # actually performed the access, as bytecode
                # instrumentation does.  A generator leaves the chain only
                # by finishing, so the last innermost one is still innermost
                # while it is suspended and delegates to nothing; otherwise
                # the walk resumes from it, or from the body once it ended.
                gen = ts.inner
                frame = gen.gi_frame
                if frame is None or gen.gi_yieldfrom is not None:
                    if frame is None:
                        gen = ts.gen
                    while True:
                        nested = gen.gi_yieldfrom
                        if nested is None or nested.__class__ is not GeneratorType:
                            break
                        gen = nested
                    ts.inner = gen
                    frame = gen.gi_frame
                if frame is None:
                    ts.pending_stmt = FINISHED_STATEMENT
                    ts.stmt_code = None
                    ts.stmt_line = 0
                else:
                    # The line from the code's {f_lasti: line} table,
                    # which the thread keeps while its code stays the same.
                    code = frame.f_code
                    if code is not ts.stmt_code:
                        ts.stmt_code = code
                        ts.lines = line_table(code)
                    ts.stmt_line = ts.lines[frame.f_lasti]

    # --- op handlers ---------------------------------------------------- #
    # READ, WRITE and YIELD have none: _execute runs them inline.

    def _do_lock(self, ts: ThreadState, op: Op) -> None:
        outermost = self.locks.acquire(op.lock, ts.tid)
        del self._contending[ts.tid]
        if outermost:
            self._lock_moved(op.lock, False)
            if self._observing:
                self._deliver(_new(
                    AcquireEvent, (self.step_count, ts.tid, op.lock, self._stmt(ts))
                ))
        return None

    def _do_unlock(self, ts: ThreadState, op: Op) -> None:
        if self.locks.release(op.lock, ts.tid):  # fully released
            self._lock_moved(op.lock, True)
            if self._observing:
                self._deliver(_new(
                    ReleaseEvent, (self.step_count, ts.tid, op.lock, self._stmt(ts))
                ))
        return None

    def _do_wait(self, ts: ThreadState, op: Op) -> Any:
        if ts.status is _WAITING:  # a timed wait at its deadline
            self._wake_from_timed_wait(ts)
            return _PARKED
        # Java: wait with the interrupt flag already set throws immediately.
        if ts.interrupt_flag:
            ts.interrupt_flag = False
            return _Throw(InterruptedException(f"{ts.name} interrupted"))
        ts.wake_at = self.step_count + op.duration if op.duration else 0
        depth = self.locks.release_all(op.lock, ts.tid)
        if self._observing:
            self._deliver(
                _new(ReleaseEvent, (self.step_count, ts.tid, op.lock, self._stmt(ts)))
            )
        self.locks.park_waiter(op.lock, ts.tid)
        ts.status = _WAITING
        ts.waiting_on = op.lock
        ts.wait_depth = depth
        # pending stays the WAIT op (not executable) until notify/interrupt.
        self._note(ts)
        self._lock_moved(op.lock, True)
        if ts.wake_at:
            self._add_deadline(ts.wake_at)
        return _PARKED

    def _do_notify(self, ts: ThreadState, op: Op) -> None:
        self._require_held(ts, op)
        wait_set = self.locks.monitor(op.lock).wait_set
        if wait_set:
            woken = pick(self.rng, wait_set)
            self.locks.remove_waiter(op.lock, woken)
            msg = self._snd(ts.tid)
            self._transition_to_reacquire(self.threads[woken], msg)
        return None

    def _do_notify_all(self, ts: ThreadState, op: Op) -> None:
        self._require_held(ts, op)
        woken = self.locks.unpark_all(op.lock)
        if woken:
            msg = self._snd(ts.tid)
            for tid in woken:
                self._transition_to_reacquire(self.threads[tid], msg)
        return None

    def _do_spawn(self, ts: ThreadState, op: Op) -> Any:
        gen = op.func(*op.args)
        if not isinstance(gen, Generator):
            raise EngineError(
                f"spawn target {op.func!r} must return a generator "
                f"(a thread body), got {type(gen).__name__}"
            )
        child = self._create_thread(
            gen, name=op.name or getattr(op.func, "__name__", "thread"), parent=ts.tid
        )
        return child.handle

    def _do_join(self, ts: ThreadState, op: Op) -> None:
        target = resolve_tid(op.target)
        ts.join_target = None
        msg = self._term_msg.get(target)
        if msg is not None and self._observing:
            self._deliver(_new(RcvEvent, (self.step_count, ts.tid, msg)))
        return None

    def _do_sleep(self, ts: ThreadState, op: Op) -> Any:
        if ts.status is _SLEEPING:  # the wake step
            return self._wake_from_sleep(ts)
        if ts.interrupt_flag:
            ts.interrupt_flag = False
            return _Throw(InterruptedException(f"{ts.name} interrupted"))
        ts.status = _SLEEPING
        ts.wake_at = self.step_count + max(1, op.duration)
        # pending stays the SLEEP op; the wake step resumes the generator.
        self._note(ts)
        self._add_deadline(ts.wake_at)
        return _PARKED

    def _wake_from_timed_wait(self, ts: ThreadState) -> None:
        """A timed wait hit its deadline: leave the wait set and re-contend
        for the monitor."""
        self.locks.remove_waiter(ts.waiting_on, ts.tid)
        self._contend(ts, ts.waiting_on)
        ts.waiting_on = None
        ts.wake_at = 0

    def _wake_from_sleep(self, ts: ThreadState) -> Any:
        ts.status = _RUNNABLE
        if ts.deliver_interrupt:
            ts.deliver_interrupt = False
            ts.interrupt_flag = False
            msg = ts.waiting_on if isinstance(ts.waiting_on, int) else None
            if msg is not None and self._observing:
                self._deliver(
                    _new(RcvEvent, (self.step_count, ts.tid, msg))
                )
            ts.waiting_on = None
            return _Throw(InterruptedException(f"{ts.name} interrupted"))
        return None

    def _do_interrupt(self, ts: ThreadState, op: Op) -> None:
        target = self.threads.get(resolve_tid(op.target))
        if target is None or not target.alive:
            return None
        if target.status is _WAITING:
            self.locks.remove_waiter(target.waiting_on, target.tid)
            msg = self._snd(ts.tid)
            self._contend(target, target.waiting_on)
            target.waiting_on = msg  # stash the HB message for delivery
            target.deliver_interrupt = True
        elif target.status is _SLEEPING:
            msg = self._snd(ts.tid)
            target.waiting_on = msg
            target.deliver_interrupt = True
            self._note(target)
        else:
            target.interrupt_flag = True
        return None

    def _do_interrupted(self, ts: ThreadState, op: Op) -> bool:
        flag = ts.interrupt_flag
        ts.interrupt_flag = False
        return flag

    def _do_check(self, ts: ThreadState, op: Op) -> Any:
        if op.condition:
            return None
        return _Throw(AssertionViolation(op.message or "check failed"))

    def _do_reacquire(self, ts: ThreadState, op: Op) -> Any:
        self.locks.acquire(op.lock, ts.tid, depth=op.reacquire_count)
        del self._contending[ts.tid]
        self._lock_moved(op.lock, False)
        if self._observing:
            self._deliver(
                _new(AcquireEvent, (self.step_count, ts.tid, op.lock, self._stmt(ts)))
            )
        msg = ts.waiting_on if isinstance(ts.waiting_on, int) else None
        if msg is not None and self._observing:
            self._deliver(_new(RcvEvent, (self.step_count, ts.tid, msg)))
        ts.waiting_on = None
        ts.wait_depth = 0
        if ts.deliver_interrupt:
            ts.deliver_interrupt = False
            ts.interrupt_flag = False
            return _Throw(InterruptedException(f"{ts.name} interrupted"))
        return None

    # ------------------------------------------------------------------ #
    # internals

    def _stmt(self, ts: ThreadState) -> Statement | None:
        """The statement of ``ts``'s pending op, interned from its raw site
        (``statement_at`` keeps one per site) unless it is already known."""
        code = ts.stmt_code
        if code is None:
            return ts.pending_stmt
        return statement_at(code, ts.stmt_line)

    def _require_held(self, ts: ThreadState, op: Op) -> None:
        if not self.locks.holds(op.lock, ts.tid):
            from .errors import IllegalMonitorState

            raise IllegalMonitorState(
                f"{ts} notified {op.lock} without holding it"
            )

    def _transition_to_reacquire(self, ts: ThreadState, msg: int) -> None:
        """Move a woken waiter to the monitor-entry competition."""
        self._contend(ts, ts.waiting_on)
        ts.wake_at = 0  # a pending timed-wait deadline is void once notified
        ts.waiting_on = msg  # carry the SND message until re-acquisition

    def _contend(self, ts: ThreadState, lock) -> None:
        """A waiter left the wait set: its wait returns only after it
        re-acquires the monitor, which it now contends for."""
        ts.pending = Op(
            _REACQUIRE, None, None, None, lock, None, None, (), None, 0, True,
            "", None, ts.wait_depth,
        )
        ts.status = _RUNNABLE
        self._contending[ts.tid] = ts
        self._note(ts)

    def _snd(self, tid: int) -> int:
        msg = self.fresh_msg()
        if self._observing:
            self._deliver(_new(SndEvent, (self.step_count, tid, msg)))
        return msg

    def _emit_mem(self, ts: ThreadState, op: Op, access: Access) -> None:
        # Only reached when an observer wants MemEvents (_observe_mem).
        self._deliver(
            _new(MemEvent, (
                self.step_count, ts.tid, self._stmt(ts), op.location, access,
                self.locks.held_by(ts.tid),
            ))
        )

    def _create_thread(self, gen, name: str, parent: int | None) -> ThreadState:
        tid = self._next_tid
        self._next_tid += 1
        ts = ThreadState(tid=tid, name=f"{name}", gen=gen, inner=gen)
        self.threads[tid] = ts
        self._live.append(ts)
        if self._observing:
            self._deliver(
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
                self._deliver(
                    _new(RcvEvent, (self.step_count, tid, msg))
                )
        # send(None) primes a fresh body.  The base method is named so that
        # a subclass hooking _execute sees executed ops only.
        Execution._execute(self, ts, True)
        self._note(ts)
        return ts

    def _terminate(self, ts: ThreadState, error: BaseException | None) -> None:
        ts.status = _TERMINATED
        stmt = self._stmt(ts)
        ts.pending = None
        # Keep the (materialized) last statement readable via next_stmt();
        # clear the raw site so _stmt() never touches a dead frame's code.
        ts.pending_stmt = stmt
        ts.stmt_code = None
        self._live.remove(ts)
        if ts.enabled:
            ts.enabled = False
            self._enabled_list = None
        for other in self._live:  # its joiners
            op = other.pending
            if op is not None and op.blocking == 2:
                self._note(other)
        # Events and crash records carry the picklable ErrorInfo form.
        info = ErrorInfo.from_exception(error) if error is not None else None
        if error is not None:
            crash = ThreadCrash(
                tid=ts.tid, name=ts.name, error=info, stmt=stmt,
                step=self.step_count,
            )
            self.result.crashes.append(crash)
            if self._observing:
                self._deliver(
                    ErrorEvent(step=self.step_count, tid=ts.tid, stmt=stmt, error=info)
                )
        # Termination message: join edges receive from this.
        self._term_msg[ts.tid] = self._snd(ts.tid)
        if self._observing:
            self._deliver(
                ThreadEndEvent(step=self.step_count, tid=ts.tid, error=info)
            )


#: handler method names in OpKind declaration order; ``Execution.__init__``
#: looks these up once so ``_execute`` dispatches via ``tuple[kind_index]``.
#: READ, WRITE and YIELD name no method: ``_execute`` runs them inline.
_HANDLER_NAMES = tuple(f"_do_{kind.value}" for kind in OpKind)
