"""Deadlock-directed active random testing.

Section 1 of the paper notes that the race-directed scheduler generalizes:
"we can bias the random scheduler by other potential concurrency problems
such as ... potential deadlocks.  The only thing that the random scheduler
needs to know is a set of statements whose simultaneous execution could
lead to a concurrency problem."  This module is that instantiation (it is
also the seed of the follow-up DeadlockFuzzer work):

* **Phase 1 analog** — :func:`detect_lock_order_inversions` observes one or
  more random executions and builds the lock-order graph: an edge
  ``l1 → l2`` (annotated with the acquiring statement) whenever a thread
  acquires ``l2`` while holding ``l1``.  Cycles in the graph are *potential*
  deadlocks; the statements on a cycle form the target set.  Edges come
  from *successful* acquisitions only, so the miner needs executions that
  complete (a blocked attempt emits no event) — if every passive run
  already deadlocks, there is nothing left to predict.

* **Phase 2** — :class:`DeadlockFuzzer` postpones any thread about to
  acquire a target-statement lock while already holding some lock.  Holding
  threads pile up just before their inner acquisitions; as soon as the held
  locks cross (t1 holds A wants B, t2 holds B wants A) both threads become
  disabled and the engine reports a **real deadlock** at termination
  (Algorithm 1, lines 30-32).  No conflict predicate is needed — the
  deadlock materializes structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.runtime.events import AcquireEvent, Event, ReleaseEvent
from repro.runtime.interpreter import Execution
from repro.runtime.location import LockId
from repro.runtime.observer import ExecutionObserver
from repro.runtime.ops import OpKind
from repro.runtime.program import Program
from repro.runtime.statement import Statement
from repro.runtime.thread import ThreadState

from .postponing import PostponingDriver, TargetProbe, TargetSites
from .schedulers import RandomScheduler


@dataclass(frozen=True)
class LockOrderEdge:
    """``held -> acquired`` observed at ``stmt`` in thread ``tid``."""

    held: LockId
    acquired: LockId
    stmt: Statement
    tid: int


@dataclass
class LockOrderReport:
    """The lock-order graph plus its cyclic (potential-deadlock) part."""

    program: str
    edges: set[LockOrderEdge] = field(default_factory=set)

    def cycles(self) -> list[tuple[LockOrderEdge, ...]]:
        """All simple cycles in the lock-order graph, as edge tuples.

        A two-lock inversion yields a 2-edge cycle; dining-philosophers
        style chains yield longer ones.  Each cycle's edges are drawn from
        distinct threads where possible (a single thread cannot deadlock
        with itself on reentrant monitors).
        """
        edges_by_pair: dict[tuple, list[LockOrderEdge]] = {}
        for edge in self.edges:
            edges_by_pair.setdefault((edge.held, edge.acquired), []).append(edge)
        found = []
        for cycle in _simple_cycles(edges_by_pair):
            if len(cycle) < 2:
                continue
            hops = list(zip(cycle, cycle[1:] + cycle[:1]))
            witnesses = []
            used_tids: set[int] = set()
            for held, acquired in hops:
                candidates = sorted(
                    edges_by_pair[(held, acquired)], key=lambda e: e.tid
                )
                pick = next(
                    (e for e in candidates if e.tid not in used_tids),
                    candidates[0],
                )
                used_tids.add(pick.tid)
                witnesses.append(pick)
            if len({edge.tid for edge in witnesses}) < 2:
                continue  # one thread alone cannot close a reentrant cycle
            found.append(tuple(witnesses))
        return found

    def target_statements(self) -> frozenset[Statement]:
        """Acquire statements appearing on some cycle — the fuzzing targets."""
        statements: set[Statement] = set()
        for cycle in self.cycles():
            for edge in cycle:
                statements.add(edge.stmt)
        return frozenset(statements)


def _simple_cycles(arcs) -> list[list[LockId]]:
    """Every simple cycle of the directed graph with ``arcs`` (``(held,
    acquired)`` pairs), once each, as its locks in arc order from its
    lowest-uid lock.

    Each cycle is found from its lowest-uid lock by a depth-first walk
    through higher-uid locks only.  Lock-order graphs have a handful of
    nodes, so the walk's worst case never matters.
    """
    successors: dict[LockId, list[LockId]] = {}
    for held, acquired in arcs:
        successors.setdefault(held, []).append(acquired)
    for targets in successors.values():
        targets.sort(key=lambda lock: lock.uid)
    cycles: list[list[LockId]] = []
    for start in sorted(successors, key=lambda lock: lock.uid):
        path = [start]

        def walk(node: LockId) -> None:
            for nxt in successors.get(node, ()):
                if nxt == start:
                    cycles.append(list(path))
                elif nxt.uid > start.uid and nxt not in path:
                    path.append(nxt)
                    walk(nxt)
                    path.pop()

        walk(start)
    return cycles


class _LockOrderObserver(ExecutionObserver):
    """Builds the lock-order graph from acquire/release events."""

    wants_mem_events = False

    def __init__(self) -> None:
        self.report = LockOrderReport(program="?")
        self._held: dict[int, list[LockId]] = {}

    def on_start(self, execution) -> None:
        self.report = LockOrderReport(program=execution.program.name)
        self._held.clear()

    def on_event(self, event: Event) -> None:
        if isinstance(event, AcquireEvent):
            held = self._held.setdefault(event.tid, [])
            for outer in held:
                if event.stmt is not None:
                    self.report.edges.add(
                        LockOrderEdge(
                            held=outer,
                            acquired=event.lock,
                            stmt=event.stmt,
                            tid=event.tid,
                        )
                    )
            held.append(event.lock)
        elif isinstance(event, ReleaseEvent):
            held = self._held.get(event.tid, [])
            if event.lock in held:
                held.remove(event.lock)


def detect_lock_order_inversions(
    program: Program,
    *,
    seeds: Sequence[int] = (0, 1, 2),
    max_steps: int = 1_000_000,
) -> LockOrderReport:
    """Phase 1 analog: observe executions, return the lock-order report."""
    merged: LockOrderReport | None = None
    for seed in seeds:
        observer = _LockOrderObserver()
        execution = Execution(
            program, seed=seed, observers=[observer], max_steps=max_steps
        )
        execution.run(RandomScheduler(preemption="every"))
        if merged is None:
            merged = observer.report
        else:
            merged.edges |= observer.report.edges
    assert merged is not None
    return merged


class DeadlockFuzzer(PostponingDriver):
    """Postpones inner lock acquisitions at potential-deadlock statements.

    Success is observed on the returned
    :class:`~repro.core.postponing.FuzzResult` as ``outcome.deadlock``
    (with the cyclic hold visible in
    ``outcome.result.deadlocked_tids``), not via ``hits`` — the deadlock
    forms when the cross-blocked threads all become disabled.
    """

    def __init__(self, target_statements, **kwargs):
        super().__init__(**kwargs)
        self._sites = TargetSites(target_statements)
        self.target_statements = self._sites.statements
        if not self.target_statements:
            raise ValueError("DeadlockFuzzer needs at least one target statement")

    def target_probe(self, execution: Execution) -> TargetProbe:
        at_site = self._sites.probe()
        locks = execution.locks

        def inner_acquire(ts: ThreadState) -> bool:
            if ts.pending.kind is not OpKind.LOCK or not at_site(ts):
                return False
            # Only a hold-and-wait is dangerous: the thread must already
            # hold some other lock for this acquisition to be an inner one.
            return bool(locks.held_by(ts.tid))

        return inner_acquire

    def conflicting(self, execution, tid, postponed):
        # Deadlocks are created by *keeping* threads postponed, never by the
        # rendezvous/resolution path.
        return []
