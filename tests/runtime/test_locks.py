"""LockTable unit tests: reentrancy, wait sets, misuse errors."""

import pytest

from repro.runtime.errors import IllegalMonitorState
from repro.runtime.location import LockId, fresh_uid
from repro.runtime.locks import LockTable


@pytest.fixture
def lock_id():
    return LockId(fresh_uid(), "L")


@pytest.fixture
def table():
    return LockTable()


class TestAcquireRelease:
    def test_acquire_free_lock_is_outermost(self, table, lock_id):
        assert table.can_acquire(lock_id, 1)
        assert table.acquire(lock_id, 1) is True
        assert table.holds(lock_id, 1)
        assert table.held_by(1) == {lock_id}

    def test_reentrant_acquire(self, table, lock_id):
        table.acquire(lock_id, 1)
        assert table.can_acquire(lock_id, 1)
        assert table.acquire(lock_id, 1) is False  # inner, not outermost
        assert table.release(lock_id, 1) is False  # still held
        assert table.release(lock_id, 1) is True  # fully released
        assert not table.holds(lock_id, 1)
        assert table.held_by(1) == frozenset()

    def test_contention_blocks_other_thread(self, table, lock_id):
        table.acquire(lock_id, 1)
        assert not table.can_acquire(lock_id, 2)
        with pytest.raises(IllegalMonitorState):
            table.acquire(lock_id, 2)

    def test_release_unheld_raises(self, table, lock_id):
        with pytest.raises(IllegalMonitorState):
            table.release(lock_id, 1)
        table.acquire(lock_id, 1)
        with pytest.raises(IllegalMonitorState):
            table.release(lock_id, 2)

    def test_held_by_multiple_locks(self, table):
        a, b = LockId(fresh_uid(), "a"), LockId(fresh_uid(), "b")
        table.acquire(a, 1)
        table.acquire(b, 1)
        assert table.held_by(1) == {a, b}
        table.release(a, 1)
        assert table.held_by(1) == {b}


class TestWaitSets:
    def test_release_all_returns_depth(self, table, lock_id):
        table.acquire(lock_id, 1)
        table.acquire(lock_id, 1)
        assert table.release_all(lock_id, 1) == 2
        assert not table.holds(lock_id, 1)

    def test_release_all_requires_ownership(self, table, lock_id):
        with pytest.raises(IllegalMonitorState):
            table.release_all(lock_id, 1)

    def test_unpark_all(self, table, lock_id):
        for tid in (1, 2, 3):
            table.park_waiter(lock_id, tid)
        assert table.unpark_all(lock_id) == [1, 2, 3]
        assert table.unpark_all(lock_id) == []

    def test_remove_waiter(self, table, lock_id):
        table.park_waiter(lock_id, 1)
        assert table.remove_waiter(lock_id, 1) is True
        assert table.remove_waiter(lock_id, 1) is False

    def test_reacquire_with_depth(self, table, lock_id):
        table.acquire(lock_id, 1, depth=3)
        assert table.release(lock_id, 1) is False
        assert table.release(lock_id, 1) is False
        assert table.release(lock_id, 1) is True
