"""Operation descriptors — the instruction set of the abstract machine.

A simulated thread is a Python generator that *yields* :class:`Op` values;
the interpreter executes each op and sends the result back into the
generator.  Everything between two yields is thread-local, atomic, and
invisible to other threads (the 3-address-code discipline of the paper:
shared state is touched only through ops, one location per op).

The yielded-but-not-yet-executed op of a thread is exactly the paper's
``NextStmt(s, t)``: the scheduler can inspect its statement identity, its
dynamic memory location, and whether it writes — which is all that
Algorithm 2's ``Racing()`` needs — *before* committing to execute it.

Construct ops through the module-level helpers (``read``, ``write``,
``lock`` ...) or, more conveniently, through the sugar classes in
:mod:`repro.runtime.sugar`.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import Any, Callable

from .location import Location, LockId


class OpKind(enum.Enum):
    """Discriminator for operation descriptors."""

    READ = "read"
    WRITE = "write"
    LOCK = "lock"
    UNLOCK = "unlock"
    WAIT = "wait"
    NOTIFY = "notify"
    NOTIFY_ALL = "notify_all"
    SPAWN = "spawn"
    JOIN = "join"
    SLEEP = "sleep"
    INTERRUPT = "interrupt"
    INTERRUPTED = "interrupted"  # poll-and-clear, like Thread.interrupted()
    YIELD = "yield"  # pure scheduling point (Thread.yield / local step)
    CHECK = "check"  # assertion; raises AssertionViolation when false
    REACQUIRE = "reacquire"  # internal: woken waiter re-entering the monitor

    # Per-member metadata (set below, after MEM_KINDS/SYNC_KINDS exist):
    #   index    dense 0..N-1 position, the key of every per-kind table
    #            (handler dispatch, metrics tallies) — one list index
    #            instead of an enum hash per executed op.
    #   mem/write/sync
    #            classification flags copied onto each Op at construction.
    #   block    how enabledness is decided for a pending op of this kind:
    #            0 = always enabled, 1 = needs the lock free/reentrant,
    #            2 = needs the join target dead.


#: Kinds that access shared memory (candidates for racing pairs).
MEM_KINDS = frozenset({OpKind.READ, OpKind.WRITE})

#: Kinds that are synchronization operations — the preemption points of the
#: sync-only scheduling mode (Section 4, citing Musuvathi & Qadeer).
SYNC_KINDS = frozenset(
    {
        OpKind.LOCK,
        OpKind.UNLOCK,
        OpKind.WAIT,
        OpKind.NOTIFY,
        OpKind.NOTIFY_ALL,
        OpKind.SPAWN,
        OpKind.JOIN,
        OpKind.SLEEP,
        OpKind.INTERRUPT,
        OpKind.YIELD,
        OpKind.REACQUIRE,
    }
)


for _index, _kind in enumerate(OpKind):
    _kind.index = _index
    _kind.mem = _kind in MEM_KINDS
    _kind.write = _kind is OpKind.WRITE
    _kind.sync = _kind in SYNC_KINDS
    if _kind in (OpKind.LOCK, OpKind.REACQUIRE):
        _kind.block = 1
    elif _kind is OpKind.JOIN:
        _kind.block = 2
    else:
        _kind.block = 0
    _kind.flags = (_kind.index, _kind.mem, _kind.write, _kind.sync, _kind.block)
del _index, _kind


#: the fields of an :class:`Op`, in positional order: the fourteen a
#: caller may pass, then the five derived from ``kind``.
_FIELDS = (
    "kind", "location", "value", "default", "lock", "target", "func",
    "args", "name", "duration", "condition", "message", "label",
    "reacquire_count",
    "kind_index", "is_mem", "is_write", "is_sync", "blocking",
)

#: fields shown by ``repr``: not ``reacquire_count`` or the derived flags.
_REPR_FIELDS = _FIELDS[:13]


class Op(namedtuple("_OpFields", _FIELDS)):
    """One abstract-machine operation, yielded by a simulated thread.

    Only the fields relevant to ``kind`` are populated.  ``label`` optionally
    overrides the auto-derived statement identity (see
    :mod:`repro.runtime.statement`).  The classification fields
    (``kind_index``, ``is_mem``, ``is_write``, ``is_sync``, ``blocking``)
    are ``kind.flags``, resolved once at construction.

    An op is an immutable tuple of its fields (``Op._fields``).  ``Op(kind,
    location=..., ...)`` builds one from keywords; the helpers below build
    theirs with a single positional ``tuple.__new__`` call, which runs no
    Python frame (keyword matching against fourteen parameters cost more
    than everything else an op construction does).  Ops compare equal only
    to ops, and are not hashable.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: OpKind,
        location: Location | None = None,
        value: Any = None,  # WRITE: value to store
        default: Any = None,  # READ: value if the location was never written
        lock: LockId | None = None,
        target: Any = None,  # JOIN/INTERRUPT: ThreadHandle or tid
        func: Callable[..., Any] | None = None,  # SPAWN: generator function
        args: tuple = (),
        name: str | None = None,  # SPAWN: thread name
        duration: int = 0,  # SLEEP/WAIT: ticks
        condition: bool = True,  # CHECK: the asserted condition
        message: str = "",  # CHECK: failure message
        label: str | None = None,
        reacquire_count: int = 0,  # REACQUIRE internal
    ) -> "Op":
        return _new(
            cls,
            (
                kind, location, value, default, lock, target, func, args,
                name, duration, condition, message, label, reacquire_count,
            )
            + kind.flags,
        )

    def __getnewargs__(self) -> tuple:
        return tuple(self[:14])

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(_REPR_FIELDS, self)
        )
        return f"Op({fields})"

    def describe(self) -> str:
        """Short human-readable rendering for traces and error messages."""
        k = self.kind.value
        if self.is_mem:
            return f"{k} {self.location}"
        if self.lock is not None:
            return f"{k} {self.lock}"
        if self.kind is OpKind.SPAWN:
            return f"spawn {self.name or getattr(self.func, '__name__', '?')}"
        if self.kind is OpKind.JOIN:
            return f"join {self.target}"
        if self.kind is OpKind.SLEEP:
            return f"sleep {self.duration}"
        if self.kind is OpKind.CHECK:
            return f"check {self.message or self.condition}"
        return k


_new = tuple.__new__

# Each helper builds its op with one positional ``tuple.__new__`` call, in
# field order: kind, location, value, default, lock, target, func,
# args, name, duration, condition, message, label, reacquire_count, then
# the kind's flags (kind_index, is_mem, is_write, is_sync, blocking)
# spelled out, since a literal tuple is one instruction.
# tests/runtime/test_ops.py checks every helper against ``Op(kind, ...)``.
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_LOCK = OpKind.LOCK
_UNLOCK = OpKind.UNLOCK
_WAIT = OpKind.WAIT
_NOTIFY = OpKind.NOTIFY
_NOTIFY_ALL = OpKind.NOTIFY_ALL
_SPAWN = OpKind.SPAWN
_JOIN = OpKind.JOIN
_SLEEP = OpKind.SLEEP
_INTERRUPT = OpKind.INTERRUPT
_INTERRUPTED = OpKind.INTERRUPTED
_YIELD = OpKind.YIELD
_CHECK = OpKind.CHECK


def read(location: Location, default: Any = None, label: str | None = None) -> Op:
    """Read a shared location; the executed op sends the value back."""
    return _new(Op, (_READ, location, None, default, None, None, None, (),
                     None, 0, True, "", label, 0, 0, True, False, False, 0))


def write(location: Location, value: Any, label: str | None = None) -> Op:
    """Write ``value`` to a shared location."""
    return _new(Op, (_WRITE, location, value, None, None, None, None, (),
                     None, 0, True, "", label, 0, 1, True, True, False, 0))


def lock(lock_id: LockId, label: str | None = None) -> Op:
    """Acquire a reentrant monitor (blocks while another thread holds it)."""
    return _new(Op, (_LOCK, None, None, None, lock_id, None, None, (),
                     None, 0, True, "", label, 0, 2, False, False, True, 1))


def unlock(lock_id: LockId, label: str | None = None) -> Op:
    """Release a monitor held by the current thread."""
    return _new(Op, (_UNLOCK, None, None, None, lock_id, None, None, (),
                     None, 0, True, "", label, 0, 3, False, False, True, 0))


def wait(lock_id: LockId, timeout: int | None = None, label: str | None = None) -> Op:
    """Java-style ``wait``: release the (held) monitor and park on its wait set.

    With a positive ``timeout`` (abstract ticks) the thread wakes on its own
    at the deadline and re-contends for the monitor, exactly like
    ``Object.wait(long)``; without one it parks until notified or
    interrupted.
    """
    if timeout is not None and timeout <= 0:
        raise ValueError("wait timeout must be positive (or None for untimed)")
    return _new(Op, (_WAIT, None, None, None, lock_id, None, None, (),
                     None, timeout or 0, True, "", label, 0,
                     4, False, False, True, 0))


def notify(lock_id: LockId, label: str | None = None) -> Op:
    """Wake one waiter of the (held) monitor, if any."""
    return _new(Op, (_NOTIFY, None, None, None, lock_id, None, None, (),
                     None, 0, True, "", label, 0, 5, False, False, True, 0))


def notify_all(lock_id: LockId, label: str | None = None) -> Op:
    """Wake every waiter of the (held) monitor."""
    return _new(Op, (_NOTIFY_ALL, None, None, None, lock_id, None, None, (),
                     None, 0, True, "", label, 0, 6, False, False, True, 0))


def spawn(func: Callable[..., Any], *args: Any, name: str | None = None,
          label: str | None = None) -> Op:
    """Start a new thread running ``func(*args)``; sends back a ThreadHandle."""
    return _new(Op, (_SPAWN, None, None, None, None, None, func, args,
                     name, 0, True, "", label, 0, 7, False, False, True, 0))


def join(target: Any, label: str | None = None) -> Op:
    """Block until the target thread terminates."""
    return _new(Op, (_JOIN, None, None, None, None, target, None, (),
                     None, 0, True, "", label, 0, 8, False, False, True, 2))


def sleep(ticks: int, label: str | None = None) -> Op:
    """Sleep for ``ticks`` abstract time units (1 tick = 1 executed op)."""
    return _new(Op, (_SLEEP, None, None, None, None, None, None, (),
                     None, ticks, True, "", label, 0, 9, False, False, True, 0))


def interrupt(target: Any, label: str | None = None) -> Op:
    """Interrupt the target thread (wakes it from wait/sleep with an error)."""
    return _new(Op, (_INTERRUPT, None, None, None, None, target, None, (),
                     None, 0, True, "", label, 0, 10, False, False, True, 0))


def interrupted(label: str | None = None) -> Op:
    """Poll-and-clear the current thread's interrupt flag; sends back a bool."""
    return _new(Op, (_INTERRUPTED, None, None, None, None, None, None, (),
                     None, 0, True, "", label, 0, 11, False, False, False, 0))


def yield_point(label: str | None = None) -> Op:
    """A pure scheduling point; executes no shared effect.

    The paper's Figure 2 pads thread bodies with many statements to make the
    race hard to hit for passive schedulers — ``yield_point`` is how our
    programs model those filler statements.
    """
    return _new(Op, (_YIELD, None, None, None, None, None, None, (),
                     None, 0, True, "", label, 0, 12, False, False, True, 0))


def check(condition: bool, message: str = "", label: str | None = None) -> Op:
    """Assert a condition; raises ``AssertionViolation`` in the thread if false.

    This models the paper's ``ERROR`` statements: reaching the statement with
    a falsified condition is the observable "harmful race" outcome.
    """
    return _new(Op, (_CHECK, None, None, None, None, None, None, (),
                     None, 0, condition, message, label, 0,
                     13, False, False, False, 0))
