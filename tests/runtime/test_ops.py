"""Operation descriptor construction and classification."""

import copy
import pickle

import pytest

from repro.core import RandomScheduler
from repro.runtime import (
    Execution,
    Lock,
    Program,
    SharedArray,
    SharedCells,
    SharedObject,
    SharedVar,
    ops,
)
from repro.runtime.location import LockId, VarLoc, fresh_uid
from repro.runtime.ops import MEM_KINDS, SYNC_KINDS, Op, OpKind


@pytest.fixture
def loc():
    return VarLoc(fresh_uid(), "x")


@pytest.fixture
def lock_id():
    return LockId(fresh_uid(), "L")


class TestConstructors:
    def test_read(self, loc):
        op = ops.read(loc, default=42)
        assert op.kind is OpKind.READ
        assert op.location == loc
        assert op.default == 42
        assert op.is_mem and not op.is_write and not op.is_sync

    def test_write(self, loc):
        op = ops.write(loc, "v")
        assert op.kind is OpKind.WRITE
        assert op.value == "v"
        assert op.is_mem and op.is_write

    def test_lock_unlock(self, lock_id):
        assert ops.lock(lock_id).kind is OpKind.LOCK
        assert ops.unlock(lock_id).kind is OpKind.UNLOCK
        assert ops.lock(lock_id).is_sync
        assert not ops.lock(lock_id).is_mem

    def test_wait_notify(self, lock_id):
        assert ops.wait(lock_id).kind is OpKind.WAIT
        assert ops.notify(lock_id).kind is OpKind.NOTIFY
        assert ops.notify_all(lock_id).kind is OpKind.NOTIFY_ALL

    def test_spawn_carries_function_and_args(self):
        def body(a, b):
            yield ops.yield_point()

        op = ops.spawn(body, 1, 2, name="worker")
        assert op.kind is OpKind.SPAWN
        assert op.func is body
        assert op.args == (1, 2)
        assert op.name == "worker"

    def test_join_interrupt_targets(self):
        assert ops.join(3).target == 3
        assert ops.interrupt(5).target == 5

    def test_sleep_duration(self):
        assert ops.sleep(7).duration == 7

    def test_check(self):
        op = ops.check(False, "boom")
        assert op.kind is OpKind.CHECK
        assert op.condition is False
        assert op.message == "boom"

    def test_yield_point_and_interrupted(self):
        assert ops.yield_point().kind is OpKind.YIELD
        assert ops.interrupted().kind is OpKind.INTERRUPTED

    def test_label_passthrough(self, loc):
        assert ops.read(loc, label="7").label == "7"
        assert ops.write(loc, 1, label="8").label == "8"


class TestClassification:
    def test_mem_and_sync_kinds_are_disjoint(self):
        assert not (MEM_KINDS & SYNC_KINDS)

    def test_every_kind_classified(self):
        # CHECK and INTERRUPTED are neither mem nor sync (local effects).
        unclassified = set(OpKind) - MEM_KINDS - SYNC_KINDS
        assert unclassified == {OpKind.CHECK, OpKind.INTERRUPTED}

    def test_reacquire_is_sync(self):
        assert Op(OpKind.REACQUIRE).is_sync


class TestDescribe:
    def test_describe_variants(self, loc, lock_id):
        assert "read" in ops.read(loc).describe()
        assert "x" in ops.read(loc).describe()
        assert "L" in ops.lock(lock_id).describe()
        assert "sleep 3" == ops.sleep(3).describe()
        assert "join" in ops.join(1).describe()
        assert "check" in ops.check(True, "msg").describe()

        def body():
            yield ops.yield_point()

        assert "spawn" in ops.spawn(body).describe()


def _body():
    yield ops.yield_point()


def _helper_cases(label):
    """``(built, reference)`` for every ``ops`` helper: the helper's op and
    the same op built from keywords."""
    loc = VarLoc(7, "x")
    lock = LockId(8, "L")
    return [
        (ops.read(loc, 3, label),
         Op(OpKind.READ, location=loc, default=3, label=label)),
        (ops.write(loc, "v", label),
         Op(OpKind.WRITE, location=loc, value="v", label=label)),
        (ops.lock(lock, label), Op(OpKind.LOCK, lock=lock, label=label)),
        (ops.unlock(lock, label), Op(OpKind.UNLOCK, lock=lock, label=label)),
        (ops.wait(lock, label=label), Op(OpKind.WAIT, lock=lock, label=label)),
        (ops.wait(lock, 5, label),
         Op(OpKind.WAIT, lock=lock, duration=5, label=label)),
        (ops.notify(lock, label), Op(OpKind.NOTIFY, lock=lock, label=label)),
        (ops.notify_all(lock, label),
         Op(OpKind.NOTIFY_ALL, lock=lock, label=label)),
        (ops.spawn(_body, 1, 2, name="w", label=label),
         Op(OpKind.SPAWN, func=_body, args=(1, 2), name="w", label=label)),
        (ops.join(3, label), Op(OpKind.JOIN, target=3, label=label)),
        (ops.sleep(4, label), Op(OpKind.SLEEP, duration=4, label=label)),
        (ops.interrupt(5, label), Op(OpKind.INTERRUPT, target=5, label=label)),
        (ops.interrupted(label), Op(OpKind.INTERRUPTED, label=label)),
        (ops.yield_point(label), Op(OpKind.YIELD, label=label)),
        (ops.check(False, "m", label),
         Op(OpKind.CHECK, condition=False, message="m", label=label)),
    ]


def _sugar_cases(label):
    """``(built, reference)`` for every sugar method that returns an op."""
    var = SharedVar("v", 1)
    cells = SharedCells("c", 2)
    array = SharedArray(4, "a", 3)
    obj = SharedObject("o", f=4)
    lock = Lock("L")
    return [
        (var.read(label),
         Op(OpKind.READ, location=var.loc, default=1, label=label)),
        (var.write(9, label),
         Op(OpKind.WRITE, location=var.loc, value=9, label=label)),
        (cells.read(5, label),
         Op(OpKind.READ, location=cells.loc(5), default=2, label=label)),
        (cells.write(5, 9, label),
         Op(OpKind.WRITE, location=cells.loc(5), value=9, label=label)),
        (cells.write(6, 9, label),  # never read: the write builds the location
         Op(OpKind.WRITE, location=cells.loc(6), value=9, label=label)),
        (array.read(1, label),
         Op(OpKind.READ, location=array.loc(1), default=3, label=label)),
        (array.write(1, 9, label),
         Op(OpKind.WRITE, location=array.loc(1), value=9, label=label)),
        (obj.get("f", label),
         Op(OpKind.READ, location=obj.loc("f"), default=4, label=label)),
        (obj.set("f", 9, label),
         Op(OpKind.WRITE, location=obj.loc("f"), value=9, label=label)),
        (obj.set("g", 9, label),
         Op(OpKind.WRITE, location=obj.loc("g"), value=9, label=label)),
        (lock.acquire(label), Op(OpKind.LOCK, lock=lock.id, label=label)),
        (lock.release(label), Op(OpKind.UNLOCK, lock=lock.id, label=label)),
        (lock.wait(label=label), Op(OpKind.WAIT, lock=lock.id, label=label)),
        (lock.wait(6, label),
         Op(OpKind.WAIT, lock=lock.id, duration=6, label=label)),
        (lock.notify(label), Op(OpKind.NOTIFY, lock=lock.id, label=label)),
        (lock.notify_all(label),
         Op(OpKind.NOTIFY_ALL, lock=lock.id, label=label)),
    ]


class TestPositionalConstruction:
    """Helpers and sugar build their ops positionally; each must equal the
    keyword-built op field for field, so a slip in positional order shows."""

    @pytest.mark.parametrize("label", [None, "site"])
    @pytest.mark.parametrize("cases", [_helper_cases, _sugar_cases])
    def test_equals_keyword_reference(self, cases, label):
        for built, reference in cases(label):
            assert built == reference
            assert repr(built) == repr(reference)
            for name in Op._fields:
                assert getattr(built, name) == getattr(reference, name), (
                    built.kind, name,
                )
            kind = reference.kind
            assert (
                built.kind_index, built.is_mem, built.is_write,
                built.is_sync, built.blocking,
            ) == (kind.index, kind.mem, kind.write, kind.sync, kind.block)

    def test_reacquire_of_a_woken_waiter(self):
        lock = Lock("L")
        seen = []

        class Spy(Execution):
            def _execute(self, ts):
                if ts.pending.kind is OpKind.REACQUIRE:
                    seen.append(ts.pending)
                super()._execute(ts)

        def waiter():
            yield lock.acquire()
            yield lock.acquire()
            yield lock.wait()
            yield lock.release()
            yield lock.release()

        def main():
            handle = yield ops.spawn(waiter)
            while not seen:
                yield lock.acquire()
                yield lock.notify()
                yield lock.release()
            yield ops.join(handle)

        Spy(Program(main), seed=0).run(RandomScheduler())
        assert seen[0] == Op(OpKind.REACQUIRE, lock=lock.id, reacquire_count=2)
        assert seen[0].blocking == 1 and seen[0].is_sync


class TestOpValue:
    def test_only_ops_compare_equal(self, loc):
        op = ops.read(loc)
        assert op != tuple(op) and tuple(op) != op
        with pytest.raises(TypeError):
            hash(op)

    def test_copies_and_pickles(self, loc):
        op = ops.write(loc, [1], label="l")
        assert copy.copy(op) == op
        assert copy.deepcopy(op) == op
        assert pickle.loads(pickle.dumps(op)) == op
