"""Location value objects and lock identities."""

from repro.core import RandomScheduler
from repro.runtime import Execution, Program, SharedVar, ops
from repro.runtime.location import (
    ElemLoc,
    FieldLoc,
    LockId,
    VarLoc,
    fresh_uid,
)
from repro.workloads import get


def _allocating(uids):
    """A program that allocates two uids at build time and one per step of
    each of its two threads, appending every uid to ``uids``."""

    def make():
        uids.extend([fresh_uid(), fresh_uid()])

        def worker():
            for _ in range(3):
                uids.append(SharedVar("v").loc.uid)
                yield ops.yield_point()

        def main():
            a = yield ops.spawn(worker)
            b = yield ops.spawn(worker)
            yield ops.join(a)
            yield ops.join(b)

        return main()

    return Program(make, name="allocating")


class TestUids:
    def test_fresh_uids_are_unique_and_increasing(self):
        # Inside an execution, uids count up from 1 in allocation order.
        uids = []
        Execution(_allocating(uids), seed=3).run(RandomScheduler())
        assert uids == list(range(1, 9))

    def test_same_seed_same_heap(self):
        # linkedlist allocates its nodes in thread bodies, so run-time
        # uids follow the schedule.  The snapshot is keyed by location,
        # and a cell holding a node holds it by the node's uid.
        spec = get("linkedlist")

        def heap(seed):
            execution = Execution(spec.build(), seed=seed, max_steps=spec.max_steps)
            execution.run(RandomScheduler(preemption="every"))
            return {
                loc: getattr(value, "uid", value)
                for loc, value in execution.heap.snapshot().items()
            }

        for seed in range(3):
            first, second = heap(seed), heap(seed)
            assert first == second
            assert [loc.uid for loc in first] == [loc.uid for loc in second]

    def test_executions_stepped_alternately_keep_their_own_sequence(self):
        a_uids, b_uids = [], []
        a = Execution(_allocating(a_uids), seed=0)
        b = Execution(_allocating(b_uids), seed=0)
        a.start()
        b.start()
        while True:
            a_enabled, b_enabled = a.enabled_tids(), b.enabled_tids()
            if not a_enabled and not b_enabled:
                break
            if a_enabled:
                a.step(a_enabled[0])
            if b_enabled:
                b.step(b_enabled[-1])
        a.finish()
        b.finish()
        assert a_uids == b_uids == list(range(1, 9))

    def test_outside_allocations_never_collide(self):
        before = fresh_uid()
        inside = []
        Execution(_allocating(inside), seed=0).run(RandomScheduler())
        after = fresh_uid()
        assert before < 0 and after < before
        assert not {before, after} & set(inside)


class TestVarLoc:
    def test_equality_by_uid_not_name(self):
        uid = fresh_uid()
        assert VarLoc(uid, "a") == VarLoc(uid, "b")  # name is debug-only
        assert VarLoc(fresh_uid(), "a") != VarLoc(fresh_uid(), "a")

    def test_describe(self):
        assert VarLoc(1, "x").describe() == "x"
        assert VarLoc(7, "").describe() == "var#7"
        assert str(VarLoc(1, "x")) == "x"


class TestFieldLoc:
    def test_fields_of_same_object_differ(self):
        uid = fresh_uid()
        assert FieldLoc(uid, "o", "a") != FieldLoc(uid, "o", "b")
        assert FieldLoc(uid, "o", "a") == FieldLoc(uid, "other-name", "a")

    def test_describe(self):
        assert FieldLoc(3, "task", "busy").describe() == "task.busy"
        assert FieldLoc(3, "", "busy").describe() == "obj#3.busy"


class TestElemLoc:
    def test_elements_differ_by_index(self):
        uid = fresh_uid()
        assert ElemLoc(uid, "a", 0) != ElemLoc(uid, "a", 1)
        assert ElemLoc(uid, "a", 2) == ElemLoc(uid, "b", 2)

    def test_describe(self):
        assert ElemLoc(5, "arr", 2).describe() == "arr[2]"


class TestCrossKindInequality:
    def test_different_kinds_never_equal(self):
        uid = fresh_uid()
        assert VarLoc(uid, "x") != FieldLoc(uid, "x", "")
        assert FieldLoc(uid, "x", "f") != ElemLoc(uid, "x", 0)


class TestLockId:
    def test_identity_and_describe(self):
        uid = fresh_uid()
        assert LockId(uid, "L") == LockId(uid, "M")
        assert LockId(uid, "L").describe() == "L"
        assert LockId(uid, "").describe() == f"lock#{uid}"
        assert LockId(uid, "L") != LockId(fresh_uid(), "L")

    def test_locks_are_not_locations(self):
        uid = fresh_uid()
        assert LockId(uid, "L") != VarLoc(uid, "L")
