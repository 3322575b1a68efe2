"""Passive schedulers: the baselines RaceFuzzer is compared against.

All scheduler randomness is drawn from ``execution.rng`` — never from a
private RNG — so that one seed determines one schedule (the paper's
replay-by-seed property holds for the baselines too).

* :class:`RandomScheduler` — "simple random" (Table 1, column "Simple"):
  picks a uniformly random enabled thread.  With ``preemption="every"`` it
  may switch at any statement; with ``preemption="sync"`` it only switches
  at synchronization operations (the Musuvathi-Qadeer discipline cited in
  Section 4), which is the fast mode used for the "Normal" timing column.
* :class:`DefaultScheduler` — a deterministic JVM-like baseline: runs one
  thread until it blocks or terminates, then hands off FIFO.  This is the
  scheduler the paper's column 10 is measured against.
* :class:`RaposScheduler` — RAPOS, random partial-order sampling (Sen,
  ASE 2007; [45] in the paper), the author's own earlier baseline that
  Section 6 compares RaceFuzzer against.
"""

from __future__ import annotations

from collections import deque

from repro.runtime.interpreter import Execution
from repro.runtime.ops import Op, OpKind


class Scheduler:
    """Strategy interface used by :meth:`Execution.run`."""

    def choose(self, execution: Execution, enabled: list[int]) -> int:
        """Pick the next thread from ``enabled``, the engine's maintained
        list: the same object for as long as no thread's enabledness
        changes, and never to be mutated."""
        raise NotImplementedError


class RandomScheduler(Scheduler):
    """Uniformly random choice among enabled threads.

    Args:
        preemption: ``"every"`` switches at every operation; ``"sync"``
            keeps running the previous thread until it is about to execute
            a synchronization operation (or is no longer enabled).
    """

    def __init__(self, preemption: str = "every"):
        if preemption not in ("every", "sync"):
            raise ValueError(f"unknown preemption mode: {preemption!r}")
        self.preemption = preemption
        self._sync = preemption == "sync"
        self._last: int | None = None

    def choose(self, execution: Execution, enabled: list[int]) -> int:
        last = self._last
        if self._sync and last is not None:
            ts = execution.threads[last]
            # An enabled thread always has a pending op.
            if ts.enabled and not ts.pending.is_sync:
                return last
        # pick(execution.rng, enabled) inlined, drawing the same bits;
        # the engine never hands over an empty list.
        getrandbits = execution.rng.getrandbits
        n = len(enabled)
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        last = self._last = enabled[r]
        return last


class DefaultScheduler(Scheduler):
    """Run-to-block FIFO handoff, approximating an unloaded JVM scheduler.

    A ``quantum`` bounds how long one thread may run uninterrupted, standing
    in for OS time slices — without it, a busy-polling thread (moldyn's
    spin-wait, montecarlo's coordinator) would starve everyone forever,
    which real JVM schedulers do not do.  Actual slice lengths jitter
    between ``quantum/2`` and ``quantum`` (drawn from the execution's
    seeded RNG, so runs stay replayable): a perfectly periodic scheduler
    would make every seed produce the same schedule, which is not how the
    paper's "default scheduler" baseline behaves.
    """

    def __init__(self, quantum: int = 50) -> None:
        if quantum < 1:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self._queue: deque[int] = deque()
        self._current: int | None = None
        #: steps the current thread may still take in its slice.
        self._slice_left = 0
        #: the enabled list of the last choice (see ``choose``).
        self._seen: list[int] | None = None

    def _new_slice(self, execution: Execution) -> None:
        low = max(1, self.quantum // 2)
        self._slice_left = execution.rng.randint(low, self.quantum) - 1

    def choose(self, execution: Execution, enabled: list[int]) -> int:
        if enabled is self._seen and self._slice_left:
            # The engine hands over the same list object until some
            # thread's enabledness changes, so the enabled set is the one
            # the last choice saw: that choice returned ``_current`` from
            # it and left every other member queued, so the full path
            # below would queue nothing and return ``_current`` too.
            self._slice_left -= 1
            return self._current
        self._seen = enabled
        enabled_set = set(enabled)
        for tid in enabled:
            if tid != self._current and tid not in self._queue:
                self._queue.append(tid)
        if self._current in enabled_set and self._slice_left:
            self._slice_left -= 1
            return self._current
        if self._current in enabled_set:
            self._queue.append(self._current)
        while self._queue:
            tid = self._queue.popleft()
            if tid in enabled_set:
                self._current = tid
                self._new_slice(execution)
                return tid
        self._current = enabled[0]
        self._new_slice(execution)
        return self._current


_STRUCTURAL = (OpKind.SPAWN, OpKind.JOIN, OpKind.INTERRUPT)


def _dependent(first: Op, second: Op) -> bool:
    """Would executing these two operations in either order differ?

    Conservative dependence: conflicting accesses to one location, any two
    operations on the same lock, and all thread-lifecycle ops (spawn/join/
    interrupt) depend on everything — they change the thread structure the
    batch was sampled against.
    """
    if first.kind in _STRUCTURAL or second.kind in _STRUCTURAL:
        return True
    if first.is_mem and second.is_mem:
        if first.location == second.location:
            return first.is_write or second.is_write
        return False
    if first.lock is not None and second.lock is not None:
        return first.lock == second.lock
    return False


class RaposScheduler(Scheduler):
    """RAPOS: run random batches of pairwise-independent operations.

    "RAPOS cannot often discover error-prone schedules with high
    probability because the number of partial orders ... can be
    astronomically large" (Section 6).  Instead of a uniform walk over
    interleavings, which oversamples schedules with many equivalent
    linearizations, RAPOS repeatedly

    1. samples a random subset of the enabled threads whose pending
       operations are pairwise independent (:func:`_dependent`): each
       independent candidate joins with probability 1/2, so batch
       composition itself is sampled rather than maximal;
    2. executes that whole batch in random order, one tid per
       :meth:`choose`, then samples the next batch.

    Batching independent operations collapses equivalent interleavings,
    so the walk is spread over partial orders rather than totals.  It
    remains a *passive* technique: nothing steers it toward the racing
    pair, which is exactly the gap RaceFuzzer fills.
    """

    def __init__(self) -> None:
        #: the members of the current batch not yet handed out.
        self._rest = iter(())

    def choose(self, execution: Execution, enabled: list[int]) -> int:
        for tid in self._rest:
            # A member is disabled by an earlier one only if the
            # independence test missed an interaction; skip it then.
            if tid in enabled:
                return tid
        rng = execution.rng
        candidates = list(enabled)
        rng.shuffle(candidates)
        batch: list[int] = []
        batch_ops: list[Op] = []
        for tid in candidates:
            op = execution.next_op(tid)
            if op is None:
                continue
            if any(_dependent(op, other) for other in batch_ops):
                continue
            if rng.random() < 0.5:
                batch.append(tid)
                batch_ops.append(op)
        if not batch:  # always make progress
            batch = [candidates[0]]
        rng.shuffle(batch)
        self._rest = iter(batch[1:])
        return batch[0]


#: the one name table for passive schedulers, shared by ``repro run``
#: (its ``--scheduler`` choices), schedule coverage and the baseline
#: campaigns: each name's factory builds a fresh scheduler.
BASELINE_SCHEDULERS = {
    "default": DefaultScheduler,
    "random": lambda: RandomScheduler(preemption="every"),
    "random-sync": lambda: RandomScheduler(preemption="sync"),
    "rapos": RaposScheduler,
}


def baseline_scheduler(spec: str) -> Scheduler:
    """Build a fresh passive scheduler for one run, by its
    :data:`BASELINE_SCHEDULERS` name (``ValueError`` for another).

    A new instance per run matters: schedulers carry per-execution state
    (queues, slice budgets, the rest of a RAPOS batch).
    """
    try:
        factory = BASELINE_SCHEDULERS[spec]
    except KeyError:
        raise ValueError(
            f"unknown scheduler: {spec!r}; expected one of "
            f"{', '.join(BASELINE_SCHEDULERS)}"
        ) from None
    return factory()
