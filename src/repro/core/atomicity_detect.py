"""Phase 1 for atomicity violations: mine candidate atomic regions.

The deadlock fuzzer gets its targets from the lock-order graph; this is
the analogous front end for :class:`~repro.core.atomicityfuzzer.AtomicityFuzzer`.
It observes executions and flags the classic *stale check-then-act*
pattern (Lu et al.'s single-variable atomicity bugs):

    thread T:  acquire(L) … read x … release(L)      (the "check")
               … no write to x by T …
               acquire(L) @ stmt A … write x …        (the "act")

paired with any *rival* — another thread's acquisition of the same lock
(at statement B) whose critical section writes ``x``.  Each candidate is
an ``(AtomicRegion(check-stmt, A), B)`` triple ready to hand to the
fuzzer, which will try to force the rival's critical section between the
check and the act.

Like every Phase 1, this over-approximates: a region may be protected by
application logic the pattern cannot see.  The fuzzer is the judge —
candidates it cannot realize are dismissed exactly like false races.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.runtime.events import AcquireEvent, Event, MemEvent, ReleaseEvent
from repro.runtime.interpreter import Execution
from repro.runtime.location import Location, LockId
from repro.runtime.observer import ExecutionObserver
from repro.runtime.program import Program
from repro.runtime.statement import Statement

from .atomicityfuzzer import AtomicRegion
from .schedulers import RandomScheduler


@dataclass(frozen=True)
class AtomicityCandidate:
    """One fuzzable check-then-act pattern."""

    region: AtomicRegion
    rival: Statement
    lock: LockId
    location: Location

    def __str__(self) -> str:
        return (
            f"{self.region} vs rival {self.rival.site} "
            f"[lock {self.lock.describe()}, location {self.location.describe()}]"
        )


@dataclass
class _OpenCheck:
    """A locked read whose critical section has ended — awaiting its act."""

    location: Location
    lock: LockId
    check_stmt: Statement


class _AtomicityObserver(ExecutionObserver):
    """Streams events into per-thread pattern state."""

    def __init__(self) -> None:
        # per thread: reads seen inside the currently open critical sections
        self._reads_in_cs: dict[int, list[tuple[Location, LockId, Statement]]] = {}
        # per thread: checks whose critical section closed, not yet acted on
        self._open_checks: dict[int, list[_OpenCheck]] = {}
        # per thread: the acquire statement of each currently held lock
        self._acquire_stmt: dict[tuple[int, LockId], Statement] = {}
        self._held: dict[int, set[LockId]] = {}
        #: (lock, location) -> acquire statements of critical sections that
        #: WRITE the location — the rival candidates.
        self.writers: dict[tuple[LockId, Location], set[Statement]] = {}
        #: collected (region, lock, location, act-thread) candidates
        self.regions: set[tuple[AtomicRegion, LockId, Location]] = set()

    def on_event(self, event: Event) -> None:
        if isinstance(event, AcquireEvent):
            if event.stmt is not None:
                self._acquire_stmt[(event.tid, event.lock)] = event.stmt
            self._held.setdefault(event.tid, set()).add(event.lock)
        elif isinstance(event, ReleaseEvent):
            self._held.get(event.tid, set()).discard(event.lock)
            # Close this critical section: its reads become open checks.
            reads = self._reads_in_cs.get(event.tid, [])
            keep = []
            for location, lock, stmt in reads:
                if lock == event.lock:
                    self._open_checks.setdefault(event.tid, []).append(
                        _OpenCheck(location=location, lock=lock, check_stmt=stmt)
                    )
                else:
                    keep.append((location, lock, stmt))
            self._reads_in_cs[event.tid] = keep
        elif isinstance(event, MemEvent):
            held = self._held.get(event.tid, set())
            if event.is_write:
                # Register this critical section as a rival for (lock, loc).
                for lock in held:
                    acquire = self._acquire_stmt.get((event.tid, lock))
                    if acquire is not None:
                        self.writers.setdefault(
                            (lock, event.location), set()
                        ).add(acquire)
                # A write by the owner completes (or invalidates) checks.
                checks = self._open_checks.get(event.tid, [])
                remaining = []
                for check in checks:
                    if check.location != event.location:
                        remaining.append(check)
                        continue
                    acquire = (
                        self._acquire_stmt.get((event.tid, check.lock))
                        if check.lock in held
                        else None
                    )
                    if acquire is not None:
                        # check -> release -> re-acquire(acquire) -> write:
                        # the full stale check-then-act shape.
                        self.regions.add(
                            (
                                AtomicRegion(check.check_stmt, acquire),
                                check.lock,
                                check.location,
                            )
                        )
                    # Acted on (or overwritten bare): the check is spent.
                self._open_checks[event.tid] = remaining
            else:
                for lock in held:
                    stmt = event.stmt
                    self._reads_in_cs.setdefault(event.tid, []).append(
                        (event.location, lock, stmt)
                    )


def detect_atomic_regions(
    program: Program,
    *,
    seeds: Sequence[int] = (0, 1, 2),
    max_steps: int = 1_000_000,
) -> list[AtomicityCandidate]:
    """Observe executions; return fuzzable check-then-act candidates.

    A candidate pairs each mined region with every *other* critical
    section (different acquire statement) that writes the same location
    under the same lock.
    """
    observer = _AtomicityObserver()
    for seed in seeds:
        Execution(
            program, seed=seed, observers=[observer], max_steps=max_steps
        ).run(RandomScheduler(preemption="every"))
    candidates: dict[tuple, AtomicityCandidate] = {}
    for region, lock, location in observer.regions:
        for rival in observer.writers.get((lock, location), ()):
            if rival == region.second:
                continue  # the act's own critical section is not a rival
            # Run-time locations and locks are numbered in schedule order,
            # so their uids can differ across seeds; the fuzzer consumes
            # statements, so dedupe on those.
            key = (region, rival)
            candidates.setdefault(
                key,
                AtomicityCandidate(
                    region=region, rival=rival, lock=lock, location=location
                ),
            )
    return sorted(candidates.values(), key=str)
