"""Runtime events delivered to execution observers.

These mirror Section 2.1 of the paper: an execution is a sequence of events,
where ``MEM(s, m, a, t, L)`` is a memory access and ``SND(g, t)`` /
``RCV(g, t)`` carry the inter-thread happens-before edges (thread start,
join, and notify→wait).  We additionally expose lock acquire/release and
thread-lifecycle events, which the detectors and the harness use.

Every event carries ``step``, the global step index at which it occurred,
so observers can reconstruct the total order of the execution.

Every event class is an immutable tuple, built on ``namedtuple`` as
:class:`~repro.runtime.ops.Op` is: campaigns construct millions of events,
and the hot emit sites (``Execution._emit_mem``, the SND/RCV/ACQ/REL
sites, ``EventDecoder.decode``) build each with one positional
``tuple.__new__`` call, which runs no Python frame.  Field names and order
are the constructor's parameters; :class:`Event` is the common base, so
``isinstance`` dispatch and subclassing work as for any class.

Events are pure value objects: hashable, picklable, equal only to an
event of the same class, and every payload (statements, locations, lock
ids, errors) is a frozen dataclass of primitives, so a whole event stream
pickles and round-trips through the :mod:`repro.trace` codec losslessly.
In particular, uncaught simulated exceptions are carried as structured
:class:`ErrorInfo` records — never as live ``BaseException`` objects, which
cannot leave the process reliably (tracebacks don't pickle, and custom
exception constructors break naive re-raising).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass


class Access(enum.Enum):
    """The ``a`` in ``MEM(s, m, a, t, L)``."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, slots=True)
class ErrorInfo:
    """Structured, picklable description of an uncaught simulated exception.

    Attributes:
        type: the exception class name (``AssertionViolation``, ...).
        message: ``str(exception)``.
        module: the defining module of the exception class, so analyses can
            distinguish simulated errors from engine or stdlib ones.
    """

    type: str
    message: str = ""
    module: str = ""

    @classmethod
    def from_exception(cls, error: BaseException) -> "ErrorInfo":
        return cls(
            type=type(error).__name__,
            message=str(error),
            module=type(error).__module__,
        )

    def describe(self) -> str:
        return f"{self.type}({self.message})" if self.message else self.type

    def __str__(self) -> str:
        return self.describe()


class Event(namedtuple("Event", ("step", "tid"))):
    """Base class for runtime events: ``step`` and ``tid`` lead every event.

    An event is an immutable tuple of its fields (``type(event)._fields``),
    built by keywords (``SndEvent(step=3, tid=0, msg_id=7)``), positionally,
    or, on the hot paths, with one positional ``tuple.__new__`` call.  It
    compares equal only to an event of the same class, so ``SndEvent(0, 0,
    1) != RcvEvent(0, 0, 1)`` although the two tuples are equal.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


def _tuple_base(name: str, *fields: str, defaults: tuple = ()):
    """The tuple base of one event class: ``step``, ``tid``, then ``fields``."""
    return namedtuple(name, ("step", "tid") + fields, defaults=defaults)


class MemEvent(
    _tuple_base("MemEvent", "stmt", "location", "access", "locks_held"), Event
):
    """``MEM(s, m, a, t, L)``: thread ``tid`` accessed location ``location``
    (a :class:`Location`) at statement ``stmt`` (a :class:`Statement`) with
    ``access`` (an :class:`Access`), holding the set of locks
    ``locks_held`` (a ``frozenset`` of :class:`LockId`)."""

    __slots__ = ()

    @property
    def is_write(self) -> bool:
        return self.access is Access.WRITE


class SndEvent(_tuple_base("SndEvent", "msg_id"), Event):
    """``SND(g, t)``: thread ``tid`` sent the message ``msg_id``."""

    __slots__ = ()


class RcvEvent(_tuple_base("RcvEvent", "msg_id"), Event):
    """``RCV(g, t)``: thread ``tid`` received the message ``msg_id``."""

    __slots__ = ()


class AcquireEvent(
    _tuple_base("AcquireEvent", "lock", "stmt", defaults=(None,)), Event
):
    """Thread ``tid`` acquired ``lock`` (outermost acquisition only) at
    ``stmt`` (None when unknown)."""

    __slots__ = ()


class ReleaseEvent(
    _tuple_base("ReleaseEvent", "lock", "stmt", defaults=(None,)), Event
):
    """Thread ``tid`` released ``lock`` (outermost release only) at
    ``stmt`` (None when unknown)."""

    __slots__ = ()


class ThreadStartEvent(_tuple_base("ThreadStartEvent", "child", "name"), Event):
    """A new thread ``child`` was spawned by ``tid`` (tid 0's start has tid 0)."""

    __slots__ = ()


class ThreadEndEvent(_tuple_base("ThreadEndEvent", "error"), Event):
    """Thread ``tid`` terminated; ``error`` (an :class:`ErrorInfo`, or
    None) describes its uncaught exception, if any."""

    __slots__ = ()


class ErrorEvent(_tuple_base("ErrorEvent", "stmt", "error"), Event):
    """An uncaught simulated exception (``error``, an :class:`ErrorInfo`)
    escaped thread ``tid`` at ``stmt`` (a :class:`Statement`, or None)."""

    __slots__ = ()


class DeadlockEvent(_tuple_base("DeadlockEvent", "blocked"), Event):
    """Execution ended with live but permanently blocked threads: the
    tuple ``blocked`` of their tids."""

    __slots__ = ()


__all__ = [
    "Access",
    "ErrorInfo",
    "Event",
    "MemEvent",
    "SndEvent",
    "RcvEvent",
    "AcquireEvent",
    "ReleaseEvent",
    "ThreadStartEvent",
    "ThreadEndEvent",
    "ErrorEvent",
    "DeadlockEvent",
]
