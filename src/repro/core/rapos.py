"""RAPOS — random partial-order sampling (Sen, ASE 2007; [45] in the paper).

The paper positions RaceFuzzer against the author's own earlier baseline:
"We recently proposed an effective random testing algorithm, called RAPOS,
to sample partial orders almost uniformly at random.  However, we observed
that RAPOS cannot often discover error-prone schedules with high
probability because the number of partial orders ... can be astronomically
large.  Therefore, we focused on testing error-prone schedules."

This module reimplements RAPOS from its published description so the
comparison can be *run* (``tests/core/test_rapos.py``): instead
of a uniform random walk over interleavings (which oversamples schedules
with many equivalent linearizations), RAPOS repeatedly

1. takes the set of enabled threads,
2. samples a random subset whose pending operations are pairwise
   *independent* (no two touch the same location with a write, contend for
   the same lock, or otherwise interact) — each independent candidate is
   included with probability 1/2, so batch composition itself is sampled
   rather than maximal,
3. executes that whole batch in random order, then repeats.

Batching independent operations collapses equivalent interleavings, so the
walk is spread over partial orders rather than totals.  It remains a
*passive* technique: nothing steers it toward the racing pair, which is
exactly the gap RaceFuzzer fills.
"""

from __future__ import annotations

from repro.runtime.interpreter import Execution, ExecutionResult
from repro.runtime.ops import Op, OpKind
from repro.runtime.program import Program


def _dependent(first: Op, second: Op) -> bool:
    """Would executing these two operations in either order differ?

    Conservative dependence: conflicting accesses to one location, any two
    operations on the same lock, and all thread-lifecycle ops (spawn/join/
    interrupt) depend on everything — they change the thread structure the
    batch was sampled against.
    """
    structural = (OpKind.SPAWN, OpKind.JOIN, OpKind.INTERRUPT)
    if first.kind in structural or second.kind in structural:
        return True
    if first.is_mem and second.is_mem:
        if first.location == second.location:
            return first.is_write or second.is_write
        return False
    if first.lock is not None and second.lock is not None:
        return first.lock == second.lock
    return False


class RaposDriver:
    """Executes a program by sampling batches of independent operations."""

    def __init__(self, max_steps: int = 1_000_000):
        self.max_steps = max_steps

    def run(self, program: Program, seed: int = 0, observers=()) -> ExecutionResult:
        """One RAPOS-sampled execution (optionally observed, e.g. traced)."""
        execution = Execution(
            program, seed=seed, observers=observers, max_steps=self.max_steps
        )
        execution.start()
        rng = execution.rng
        while True:
            enabled = execution.schedulable()
            if not enabled:
                break
            batch = self._sample_independent_batch(execution, enabled)
            rng.shuffle(batch)
            for tid in batch:
                # A batch member may have been disabled by an earlier batch
                # member only if our independence test missed an interaction;
                # being conservative there makes this a no-op guard.
                if execution.is_enabled(tid):
                    execution.step(tid)
        return execution.finish()

    def _sample_independent_batch(
        self, execution: Execution, enabled: list[int]
    ) -> list[int]:
        """A random pairwise-independent subset of the enabled threads.

        Candidates are visited in shuffled order; each one that is
        independent of the batch so far joins with probability 1/2 (a
        maximal batch would make the sampler nearly deterministic on
        straight-line programs — the randomness must extend to batch
        composition, not just batch order).
        """
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
        return batch


def rapos_exceptions(program: Program, runs: int = 100, **kwargs):
    """Exception census over RAPOS runs (the Table-1-style baseline column)."""
    from collections import Counter

    census: Counter = Counter()
    driver = RaposDriver(**kwargs)
    for seed in range(runs):
        result = driver.run(program, seed=seed)
        for crash_type in result.exception_types:
            census[crash_type] += 1
        if result.deadlock:
            census["Deadlock"] += 1
    return census
