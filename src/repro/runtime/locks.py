"""Monitor (lock) state for one execution — Java semantics.

Monitors are reentrant.  ``wait`` fully releases the monitor (remembering
the recursion depth) and parks the thread on the monitor's wait set;
``notify``/``notify_all`` move waiters out of the wait set, after which they
must *re-acquire* the monitor before ``wait`` returns — exactly Java's
two-stage wakeup.  The engine models the re-acquisition with an internal
``REACQUIRE`` op so that active schedulers see the contention point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IllegalMonitorState
from .location import LockId


@dataclass(slots=True)
class MonitorState:
    """Dynamic state of one monitor."""

    owner: int | None = None
    depth: int = 0
    #: tids parked in this monitor's wait set, in arrival order.
    wait_set: list[int] = field(default_factory=list)


class LockTable:
    """All monitor state for one execution, keyed by :class:`LockId`.

    The monitors dict is keyed by ``LockId.uid``, the whole of a lock's
    identity, so a lookup hashes an int in C rather than calling
    ``LockId.__hash__``.

    Each thread's lockset is kept as one ``frozenset``: an outermost
    :meth:`acquire`, a full :meth:`release` or a :meth:`release_all`
    marks it stale, and :meth:`held_by` rebuilds a stale one once.  Until
    the thread's held locks change, :meth:`held_by` returns the same
    object, so a MEM event costs no set construction, and a run without
    an observer builds no lockset at all.
    """

    def __init__(self) -> None:
        self._monitors: dict[int, MonitorState] = {}
        #: locks currently held by each thread, as a multiset-ish ordered list
        #: of outermost acquisitions (used for MEM-event locksets).
        self._held: dict[int, list[LockId]] = {}
        #: ``frozenset(self._held[tid])``, or None once that list changed.
        self._locksets: dict[int, frozenset[LockId] | None] = {}

    def monitor(self, lock: LockId) -> MonitorState:
        state = self._monitors.get(lock.uid)
        if state is None:
            state = self._monitors[lock.uid] = MonitorState()
        return state

    def can_acquire(self, lock: LockId, tid: int) -> bool:
        """True if ``tid`` could acquire ``lock`` right now (free or reentrant).

        Called for every enabledness probe of a blocked LOCK/REACQUIRE op,
        so it must not allocate: a never-acquired monitor reads as free
        without materializing a :class:`MonitorState` for it.
        """
        state = self._monitors.get(lock.uid)
        return state is None or state.owner is None or state.owner == tid

    def acquire(self, lock: LockId, tid: int, depth: int = 1) -> bool:
        """Acquire the monitor; returns True if this was the outermost entry.

        Callers must have checked :meth:`can_acquire`; acquiring a monitor
        owned by another thread is a scheduler bug.
        """
        state = self._monitors.get(lock.uid) or self.monitor(lock)
        if state.owner is not None and state.owner != tid:
            raise IllegalMonitorState(
                f"thread {tid} acquired {lock} owned by thread {state.owner}"
            )
        outermost = state.owner is None
        state.owner = tid
        state.depth += depth
        if outermost:
            self._held.setdefault(tid, []).append(lock)
            self._locksets[tid] = None
        return outermost

    def release(self, lock: LockId, tid: int) -> bool:
        """Release one level of the monitor; returns True if fully released."""
        state = self._monitors.get(lock.uid) or self.monitor(lock)
        if state.owner != tid:
            raise IllegalMonitorState(
                f"thread {tid} released {lock} it does not hold"
            )
        state.depth -= 1
        if state.depth == 0:
            state.owner = None
            self._held[tid].remove(lock)
            self._locksets[tid] = None
            return True
        return False

    def release_all(self, lock: LockId, tid: int) -> int:
        """Fully release a monitor for ``wait``; returns the depth released."""
        state = self.monitor(lock)
        if state.owner != tid:
            raise IllegalMonitorState(f"thread {tid} waits on {lock} it does not hold")
        depth = state.depth
        state.owner = None
        state.depth = 0
        self._held[tid].remove(lock)
        self._locksets[tid] = None
        return depth

    def holds(self, lock: LockId, tid: int) -> bool:
        return self.monitor(lock).owner == tid

    def held_by(self, tid: int) -> frozenset[LockId]:
        """The lockset ``L`` attached to MEM events of thread ``tid``: one
        shared object until the thread's held locks change."""
        locks = self._locksets.get(tid)
        if locks is None:
            locks = self._locksets[tid] = frozenset(self._held.get(tid, ()))
        return locks

    def park_waiter(self, lock: LockId, tid: int) -> None:
        self.monitor(lock).wait_set.append(tid)

    def unpark_all(self, lock: LockId) -> list[int]:
        wait_set = self.monitor(lock).wait_set
        woken, wait_set[:] = list(wait_set), []
        return woken

    def remove_waiter(self, lock: LockId, tid: int) -> bool:
        """Drop ``tid`` from the wait set (interrupt path); True if present."""
        wait_set = self.monitor(lock).wait_set
        if tid in wait_set:
            wait_set.remove(tid)
            return True
        return False
