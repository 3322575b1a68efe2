"""Runtime events as tuples, and the per-thread lockset they carry."""

import copy
import dataclasses
import pickle

import pytest

from repro.runtime.events import (
    Access,
    AcquireEvent,
    DeadlockEvent,
    ErrorEvent,
    ErrorInfo,
    Event,
    MemEvent,
    RcvEvent,
    ReleaseEvent,
    SndEvent,
    ThreadEndEvent,
    ThreadStartEvent,
)
from repro.runtime.location import LockId, VarLoc
from repro.runtime.locks import LockTable
from repro.runtime.statement import Statement

STMT = Statement(file="prog.py", line=7, func="worker")
LOCK = LockId(3, "L")

#: one event of every class, built by keywords.
EVENTS = [
    MemEvent(
        step=1, tid=0, stmt=STMT, location=VarLoc(4, "x"),
        access=Access.WRITE, locks_held=frozenset({LOCK}),
    ),
    SndEvent(step=2, tid=0, msg_id=11),
    RcvEvent(step=3, tid=1, msg_id=11),
    AcquireEvent(step=4, tid=0, lock=LOCK, stmt=STMT),
    ReleaseEvent(step=5, tid=0, lock=LOCK, stmt=None),
    ThreadStartEvent(step=6, tid=0, child=1, name="worker-1"),
    ThreadEndEvent(step=7, tid=1, error=ErrorInfo("AssertionViolation", "boom")),
    ErrorEvent(step=8, tid=1, stmt=STMT, error=ErrorInfo("RuntimeError")),
    DeadlockEvent(step=9, tid=-1, blocked=(1, 2)),
]

ids = [type(event).__name__ for event in EVENTS]


@pytest.mark.parametrize("event", EVENTS, ids=ids)
class TestEventValue:
    def test_positional_build_equals_keyword_build(self, event):
        cls = type(event)
        assert cls(*event) == event
        assert tuple.__new__(cls, tuple(event)) == event
        assert cls(**dict(zip(cls._fields, event))) == event

    def test_fields_lead_with_step_and_tid(self, event):
        assert type(event)._fields[:2] == ("step", "tid")
        assert (event.step, event.tid) == tuple(event)[:2]

    def test_is_an_event_and_no_dataclass(self, event):
        assert isinstance(event, Event)
        assert not dataclasses.is_dataclass(event)

    def test_hashable(self, event):
        twin = type(event)(*event)
        assert hash(twin) == hash(event)
        assert len({event, twin}) == 1

    def test_pickles_and_copies(self, event):
        for clone in (pickle.loads(pickle.dumps(event)), copy.deepcopy(event)):
            assert clone == event
            assert type(clone) is type(event)

    def test_repr_is_dataclass_style(self, event):
        cls = type(event)
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(cls._fields, event)
        )
        assert repr(event) == f"{cls.__name__}({fields})"

    def test_immutable(self, event):
        with pytest.raises(AttributeError):
            event.step = 99


class TestEventEquality:
    def test_equal_only_to_the_same_class(self):
        assert SndEvent(0, 0, 1) != RcvEvent(0, 0, 1)
        assert not SndEvent(0, 0, 1) == RcvEvent(0, 0, 1)
        assert SndEvent(0, 0, 1) != (0, 0, 1)
        assert len({SndEvent(0, 0, 1), RcvEvent(0, 0, 1)}) == 2

    def test_repr_example(self):
        assert repr(SndEvent(step=3, tid=0, msg_id=7)) == (
            "SndEvent(step=3, tid=0, msg_id=7)"
        )

    def test_lock_events_default_their_statement(self):
        assert AcquireEvent(step=1, tid=0, lock=LOCK).stmt is None
        assert ReleaseEvent(1, 0, LOCK) == ReleaseEvent(1, 0, LOCK, None)

    def test_is_write(self):
        read = MemEvent(1, 0, STMT, VarLoc(4, "x"), Access.READ, frozenset())
        assert not read.is_write
        assert EVENTS[0].is_write

    def test_subclass_dispatches_as_its_base(self):
        class Tagged(SndEvent):
            __slots__ = ()

        tagged = Tagged(0, 0, 1)
        assert isinstance(tagged, SndEvent) and isinstance(tagged, Event)
        assert tagged != SndEvent(0, 0, 1)
        assert repr(tagged) == "Tagged(step=0, tid=0, msg_id=1)"


class TestHeldBy:
    """``held_by`` hands out one frozenset until the held locks change,
    and always equals the set of locks the thread holds."""

    def test_one_object_until_the_held_locks_change(self):
        table = LockTable()
        a, b = LockId(1, "a"), LockId(2, "b")
        empty = table.held_by(1)
        assert empty == frozenset()
        assert table.held_by(1) is empty

        def check(expected):
            held = table.held_by(1)
            assert held == frozenset(expected)
            assert held == frozenset(table._held.get(1, ()))
            assert table.held_by(1) is held
            return held

        table.acquire(a, 1)  # outermost acquire
        first = check({a})
        assert table.acquire(a, 1) is False  # reentrant acquire
        assert check({a}) is first
        table.acquire(b, 1)
        both = check({a, b})
        assert table.release(b, 1) is True  # full release
        assert check({a}) is not both
        table.release(a, 1)  # inner release of the reentrant acquire
        only_a = check({a})
        assert table.release_all(a, 1) == 1  # wait
        check(set())
        table.acquire(a, 1, depth=1)  # reacquire after the wait
        assert check({a}) is not only_a

    def test_threads_have_their_own_locksets(self):
        table = LockTable()
        a, b = LockId(1, "a"), LockId(2, "b")
        table.acquire(a, 1)
        held = table.held_by(1)
        table.acquire(b, 2)
        assert table.held_by(1) is held
        assert table.held_by(2) == {b}
