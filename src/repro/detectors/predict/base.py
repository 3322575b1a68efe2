"""Shared machinery for the predictive Phase-1 detectors.

The observed-order detectors (:mod:`repro.detectors.base`) answer "which
pairs were concurrent *in this schedule*?".  The predictive detectors
answer "which pairs could be concurrent in *some* schedule consistent
with what this trace forces?" — a strictly larger candidate set from the
very same recorded events, which is exactly what Phase 2 wants to be fed
(it weeds imprecision for free; missed candidates are gone forever).

Two vector-clock families run side by side over one streamed pass:

* the **weak** (suppression) clocks order accesses only across the
  message edges in ``must_kinds`` — the sub-relation every feasible
  reordering preserves.  Both shipped predictors keep just the *spawn*
  edges: a child's events can never precede its creation.  Wakeup edges
  (which notify paired with which wait) are schedule artifacts, and join
  edges — though real in every schedule — order exactly the post-join
  suffix whose candidates the observed-order hybrid silently discards.
  Fewer edges ⇒ smaller clocks ⇒ every pair the hybrid reports is
  reported here too (the superset guarantee, asserted in the tests).

* the **strong** ("strong-dependently-precedes", SDP) clocks order
  accesses across *every* dependence the trace witnesses: all message
  edges, lock release→acquire edges, and write→read flow edges (a read
  is stamped after the write whose value it observed — reordering past
  it would change the data the code ran on).  They never suppress a
  report; they *grade* it: a pair concurrent even under SDP is
  ``schedulable`` — predictable with high confidence — while a pair
  ordered by SDP is speculative and marked so on its evidence, letting
  Phase 2 (or a human) triage candidates by confidence.

Histories are unbounded (offline analysis can afford completeness; the
observed-order detectors cap at 128 records per location and may evict
witnesses), but still key-collapsed: records equal on
``(tid, stmt, is_write, lockset)`` are interchangeable for statement-pair
detection, so only the latest is kept.

Guard modes (the lock reasoning of the Section 2.2 check):

* ``"blanket"`` — a common lock between the two accesses suppresses the
  pair (the hybrid's rule: the critical sections can never overlap);
* ``"consistent"`` — lock-acquisition-history reasoning: a common lock
  suppresses only while the location's *candidate guard set* (the
  Eraser-style intersection of every lockset it has been accessed under)
  still contains it.  Once any access skips the lock, the discipline is
  broken — the "guarded" witnesses of the pair stop vouching for it, and
  the pair is reported as an inconsistently-guarded candidate.

Known false-positive classes (every extra pair relative to the hybrid
falls in one; see INTERNALS "Predictive detection" for the discussion):

* **join-protected** — one side runs after joining the other's thread;
* **wakeup-ordered** — the sides were ordered by a notify→wait pairing;
* **inconsistently-guarded** — both sides hold the common lock, but the
  location is also accessed without it (``"consistent"`` mode only).

Phase 2 refutes all three classes cheaply (the pair is never *created*),
which is the paper's division of labour: Phase 1 may over-approximate,
Phase 2 is ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import maybe_telemetry
from repro.runtime.events import (
    AcquireEvent,
    Event,
    MemEvent,
    RcvEvent,
    ReleaseEvent,
    SndEvent,
    ThreadStartEvent,
)
from repro.runtime.location import Location, LockId
from repro.runtime.observer import ExecutionObserver
from repro.runtime.statement import Statement

from ..report import RaceReport, _program_name
from ..vectorclock import VectorClock
from .edges import SPAWN, EdgeClassifier


@dataclass
class PredictedAccess:
    """One remembered access, stamped under both clock families."""

    tid: int
    weak_epoch: int
    strong_epoch: int
    is_write: bool
    lockset: frozenset[LockId]
    stmt: Statement

    def key(self) -> tuple:
        """Same interchangeability argument as
        :meth:`repro.detectors.base.AccessRecord.key`: equal-key records
        cannot contribute different statement pairs, so keeping only the
        latest loses nothing."""
        return (self.tid, self.stmt, self.is_write, self.lockset)


class PredictiveDetector(ExecutionObserver):
    """Base class: weak clocks to report, strong clocks to grade."""

    #: message-edge kinds folded into the weak (suppression) clocks.
    must_kinds: frozenset[str] = frozenset({SPAWN})
    #: "blanket" or "consistent" (see module docstring).
    guard_mode: str = "blanket"
    name: str = "predictive"

    def __init__(self) -> None:
        self.report: RaceReport = RaceReport(program="?", detector=self.name)
        self._edges = EdgeClassifier()
        self._weak: dict[int, VectorClock] = {}
        self._strong: dict[int, VectorClock] = {}
        #: msg_id -> (weak snapshot, strong snapshot) at SND time.
        self._messages: dict[int, tuple[VectorClock, VectorClock]] = {}
        self._last_release: dict[LockId, VectorClock] = {}
        self._last_write: dict[Location, VectorClock] = {}
        self._histories: dict[Location, list[PredictedAccess]] = {}
        #: Eraser-style candidate guard set per location (consistent mode).
        self._guards: dict[Location, frozenset[LockId]] = {}
        self.soft_edges = 0
        self.guard_breaks = 0

    # ------------------------------------------------------------------ #

    def on_start(self, execution) -> None:
        self.report = RaceReport(
            program=_program_name(execution), detector=self.name
        )
        self._edges.reset()
        self._weak.clear()
        self._strong.clear()
        self._messages.clear()
        self._last_release.clear()
        self._last_write.clear()
        self._histories.clear()
        self._guards.clear()
        self.soft_edges = 0
        self.guard_breaks = 0

    def on_event(self, event: Event) -> None:
        kind = self._edges.note(event)
        if isinstance(event, MemEvent):
            self._on_mem(event)
        elif isinstance(event, SndEvent):
            weak = self._clock(self._weak, event.tid)
            strong = self._clock(self._strong, event.tid)
            self._messages[event.msg_id] = (weak.copy(), strong.copy())
            weak.tick(event.tid)
            strong.tick(event.tid)
        elif isinstance(event, RcvEvent):
            message = self._messages.get(event.msg_id)
            if message is not None:
                weak_msg, strong_msg = message
                # The strong order keeps every witnessed dependence; the
                # weak order only the kinds this detector calls "must".
                self._clock(self._strong, event.tid).join(strong_msg)
                if kind in self.must_kinds:
                    self._clock(self._weak, event.tid).join(weak_msg)
                else:
                    self.soft_edges += 1
        elif isinstance(event, ThreadStartEvent):
            self._weak.setdefault(event.child, VectorClock.for_thread(event.child))
            self._strong.setdefault(
                event.child, VectorClock.for_thread(event.child)
            )
        elif isinstance(event, ReleaseEvent):
            strong = self._clock(self._strong, event.tid)
            self._last_release[event.lock] = strong.copy()
            strong.tick(event.tid)
        elif isinstance(event, AcquireEvent):
            released = self._last_release.get(event.lock)
            if released is not None:
                self._clock(self._strong, event.tid).join(released)

    def on_finish(self, execution) -> None:
        self.report.truncated_locations = 0  # histories are unbounded
        telemetry = maybe_telemetry()
        if telemetry is not None:
            telemetry.inc(f"predict.{self.name}.pairs", len(self.report))
            telemetry.inc(f"predict.{self.name}.soft_edges", self.soft_edges)
            if self.guard_mode == "consistent":
                telemetry.inc(f"predict.{self.name}.guard_breaks", self.guard_breaks)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _clock(clocks: dict[int, VectorClock], tid: int) -> VectorClock:
        clock = clocks.get(tid)
        if clock is None:
            clock = clocks[tid] = VectorClock.for_thread(tid)
        return clock

    def _suppressed_by_lock(
        self, record: PredictedAccess, event: MemEvent, location: Location
    ) -> bool:
        common = record.lockset & event.locks_held
        if not common:
            return False
        if self.guard_mode == "blanket":
            return True
        # Consistent-guard reasoning: the lock-acquisition history must
        # show the common lock held on *every* access to this location.
        return not common.isdisjoint(self._guards.get(location, frozenset()))

    def _on_mem(self, event: MemEvent) -> None:
        weak = self._clock(self._weak, event.tid)
        strong = self._clock(self._strong, event.tid)
        location = event.location
        if self.guard_mode == "consistent":
            guards = self._guards.get(location)
            if guards is None:
                self._guards[location] = event.locks_held
            else:
                refined = guards & event.locks_held
                if refined != guards:
                    self.guard_breaks += 1
                    self._guards[location] = refined
        history = self._histories.setdefault(location, [])
        for record in history:
            if record.tid == event.tid:
                continue
            if not (record.is_write or event.is_write):
                continue
            if self._suppressed_by_lock(record, event, location):
                continue
            if weak.knows(record.tid, record.weak_epoch):
                continue  # forced before this access in every schedule
            self.report.record(
                record.stmt,
                event.stmt,
                location=location,
                tids=(record.tid, event.tid),
                both_write=record.is_write and event.is_write,
                schedulable=not strong.knows(record.tid, record.strong_epoch),
            )
        new_record = PredictedAccess(
            tid=event.tid,
            weak_epoch=weak.get(event.tid),
            strong_epoch=strong.get(event.tid),
            is_write=event.is_write,
            lockset=event.locks_held,
            stmt=event.stmt,
        )
        # Check-then-update (the SHB discipline): the write→read edge a
        # read induces must not hide the read's own race with that write.
        # The record keeps the pre-tick epoch, which is what the snapshot
        # in _last_write carries to future readers.
        if event.is_write:
            self._last_write[location] = strong.copy()
            strong.tick(event.tid)
        else:
            observed = self._last_write.get(location)
            if observed is not None:
                strong.join(observed)
        key = new_record.key()
        for i, record in enumerate(history):
            if record.key() == key:
                history[i] = new_record
                return
        history.append(new_record)
