"""One kernel for the history-based race detectors: the Section 2.2 check.

Every history detector keeps, per memory location, a history of accesses
stamped with (thread, epoch, lockset, statement) and compares each new
access against it.  Events ``e_i = MEM(s_i, m, a_i, t_i, L_i)`` and
``e_j = MEM(s_j, m, a_j, t_j, L_j)`` race iff they come from different
threads, at least one writes, no lock rule exonerates them, and neither
happens-before the other.  :class:`HistoryRaceDetector` implements that
scan once; ``hybrid``, ``happens-before``, ``shb`` and ``wcp`` are four
settings of its two class attributes.

``locks`` is the lock reasoning:

* ``"order"`` — a lock release→acquire induces a happens-before edge in
  the reporting order and no lockset filter applies (precise
  happens-before);
* ``"blanket"`` — no lock edges; a common lock between the two accesses
  suppresses the pair (the hybrid's rule: the critical sections can
  never overlap);
* ``"consistent"`` — lock-acquisition-history reasoning: a common lock
  suppresses only while the location's *candidate guard set* (the
  Eraser-style intersection of every lockset it has been accessed under)
  still contains it.  Once any access skips the lock, the discipline is
  broken — the "guarded" witnesses of the pair stop vouching for it, and
  the pair is reported as an inconsistently-guarded candidate.

``predictive`` picks what the reporting order keeps.  The observed-order
detectors (``False``) answer "which pairs were concurrent *in this
schedule*?": every message edge joins the reporting clock, and histories
cap at :attr:`~HistoryRaceDetector.max_history` records per location (a
location that overflows may lose witnesses and is counted in the report's
``truncated_locations``).  The predictive detectors (``True``) answer
"which pairs could be concurrent in *some* schedule consistent with what
this trace forces?" — a strictly larger candidate set from the very same
recorded events, which is exactly what Phase 2 wants to be fed (it weeds
imprecision for free; missed candidates are gone forever).  Two
vector-clock families then run side by side over one streamed pass:

* the **weak** (reporting) clocks order accesses only across *spawn*
  edges (see :mod:`repro.detectors.edges`) — the sub-relation every
  feasible reordering preserves: a child's events can never precede its
  creation.  Wakeup edges (which notify paired with which wait) are
  schedule artifacts, and join edges — though real in every schedule —
  order exactly the post-join suffix whose candidates the observed-order
  hybrid silently discards.

* the **strong** ("strong-dependently-precedes", SDP) clocks order
  accesses across *every* dependence the trace witnesses: all message
  edges, lock release→acquire edges, and write→read flow edges (a read
  is stamped after the write whose value it observed — reordering past
  it would change the data the code ran on).  They never suppress a
  report; they *grade* it: a pair concurrent even under SDP is
  ``schedulable`` — predictable with high confidence — while a pair
  ordered by SDP is speculative and marked so on its evidence, letting
  Phase 2 (or a human) triage candidates by confidence.

Predictive histories are unbounded (offline analysis can afford
completeness).

**The superset guarantee.**  ``shb`` is ``hybrid``'s configuration with a
subset of its reporting edges: the same lock rule, spawn edges only.
Fewer edges ⇒ smaller clocks ⇒ every pair the hybrid reports is reported
by shb too; and wcp's guard rule only ever suppresses *less* than the
blanket rule.  So ``pairs(hybrid) ⊆ pairs(shb) ⊆ pairs(wcp)`` on any
trace (asserted in the tests).

Known false-positive classes (every extra pair of a predictive detector
relative to the hybrid falls in one; see INTERNALS "Predictive detection"
for the discussion):

* **join-protected** — one side runs after joining the other's thread;
* **wakeup-ordered** — the sides were ordered by a notify→wait pairing;
* **inconsistently-guarded** — both sides hold the common lock, but the
  location is also accessed without it (``"consistent"`` only).

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

from .edges import SPAWN, EdgeClassifier
from .report import RaceReport, _program_name
from .vectorclock import VectorClock

_NO_LOCKS: frozenset[LockId] = frozenset()


@dataclass(slots=True)
class AccessRecord:
    """One remembered access for the per-location history.

    ``epoch`` is the access's stamp under the reporting clocks,
    ``strong_epoch`` under the SDP clocks (predictive detectors only).
    """

    tid: int
    epoch: int
    is_write: bool
    lockset: frozenset[LockId]
    stmt: Statement
    strong_epoch: int = 0

    def key(self) -> tuple:
        """Records with equal keys are interchangeable for *pair* detection:
        keeping only the latest cannot lose a statement pair (any older
        access it would have raced with was compared before the
        replacement happened, because histories are updated in execution
        order)."""
        return (self.tid, self.stmt, self.is_write, self.lockset)


def _clock(clocks: dict[int, VectorClock], tid: int) -> VectorClock:
    clock = clocks.get(tid)
    if clock is None:
        clock = clocks[tid] = VectorClock.for_thread(tid)
    return clock


def _publish(clocks: dict[int, VectorClock], tid: int) -> VectorClock:
    """Snapshot ``tid``'s clock for a send or release, then tick it."""
    clock = _clock(clocks, tid)
    snapshot = clock.copy()
    clock.tick(tid)
    return snapshot


class HistoryRaceDetector(ExecutionObserver):
    """The Section 2.2 race check, configured by ``locks`` and
    ``predictive`` (see the module docstring)."""

    #: "order", "blanket" or "consistent".
    locks: str = "blanket"
    #: spawn-only reporting order, SDP grading, unbounded histories.
    predictive: bool = False
    #: per-location history bound of the observed-order detectors.
    max_history: int = 128
    name: str = "history"

    def __init__(self) -> None:
        self.report: RaceReport = RaceReport(program="?", detector=self.name)
        self._edges = EdgeClassifier()
        #: reporting clocks, and the SDP clocks (predictive only).
        self._clocks: dict[int, VectorClock] = {}
        self._strong: dict[int, VectorClock] = {}
        #: msg_id -> clock snapshot at SND time, per clock family.
        self._messages: dict[int, VectorClock] = {}
        self._strong_messages: dict[int, VectorClock] = {}
        #: lock -> clock snapshot at its last release, per clock family.
        self._last_release: dict[LockId, VectorClock] = {}
        self._strong_release: dict[LockId, VectorClock] = {}
        self._last_write: dict[Location, VectorClock] = {}
        self._histories: dict[Location, list[AccessRecord]] = {}
        #: Eraser-style candidate guard set per location ("consistent").
        self._guards: dict[Location, frozenset[LockId]] = {}
        self._overflowed: set[Location] = set()
        self.soft_edges = 0
        self.guard_breaks = 0

    # ------------------------------------------------------------------ #

    def on_start(self, execution) -> None:
        """Reset every clock, history and counter for a new execution."""
        self.report = RaceReport(
            program=_program_name(execution), detector=self.name
        )
        self._edges.reset()
        for state in (
            self._clocks, self._strong, self._messages, self._strong_messages,
            self._last_release, self._strong_release, self._last_write,
            self._histories, self._guards, self._overflowed,
        ):
            state.clear()
        self.soft_edges = 0
        self.guard_breaks = 0

    def on_event(self, event: Event) -> None:
        """Check a memory access, or fold a synchronisation edge into the
        clocks."""
        predictive = self.predictive
        kind = self._edges.note(event) if predictive else None
        if isinstance(event, MemEvent):
            self._on_mem(event)
        elif isinstance(event, SndEvent):
            self._messages[event.msg_id] = _publish(self._clocks, event.tid)
            if predictive:
                self._strong_messages[event.msg_id] = _publish(
                    self._strong, event.tid
                )
        elif isinstance(event, RcvEvent):
            message = self._messages.get(event.msg_id)
            if message is not None:
                # The strong order keeps every witnessed dependence; the
                # predictive reporting order only spawn edges.
                if predictive:
                    _clock(self._strong, event.tid).join(
                        self._strong_messages[event.msg_id]
                    )
                if predictive and kind != SPAWN:
                    self.soft_edges += 1
                else:
                    _clock(self._clocks, event.tid).join(message)
        elif isinstance(event, ThreadStartEvent):
            self._clocks.setdefault(event.child, VectorClock.for_thread(event.child))
            if predictive:
                self._strong.setdefault(
                    event.child, VectorClock.for_thread(event.child)
                )
        elif isinstance(event, ReleaseEvent):
            if self.locks == "order":
                self._last_release[event.lock] = _publish(self._clocks, event.tid)
            if predictive:
                self._strong_release[event.lock] = _publish(
                    self._strong, event.tid
                )
        elif isinstance(event, AcquireEvent):
            if self.locks == "order":
                released = self._last_release.get(event.lock)
                if released is not None:
                    _clock(self._clocks, event.tid).join(released)
            if predictive:
                released = self._strong_release.get(event.lock)
                if released is not None:
                    _clock(self._strong, event.tid).join(released)

    def on_finish(self, execution) -> None:
        """Publish the truncation count and the predictive counters."""
        self.report.truncated_locations = len(self._overflowed)
        telemetry = maybe_telemetry()
        if telemetry is not None and self.predictive:
            telemetry.inc(f"predict.{self.name}.pairs", len(self.report))
            telemetry.inc(f"predict.{self.name}.soft_edges", self.soft_edges)
            if self.locks == "consistent":
                telemetry.inc(f"predict.{self.name}.guard_breaks", self.guard_breaks)

    # ------------------------------------------------------------------ #

    def _guard_set(self, location: Location, held: frozenset[LockId]):
        """Refine and return ``location``'s candidate guard set."""
        guards = self._guards.get(location)
        if guards is None:
            guards = self._guards[location] = held
        else:
            refined = guards & held
            if refined != guards:
                self.guard_breaks += 1
                guards = self._guards[location] = refined
        return guards

    def _on_mem(self, event: MemEvent) -> None:
        tid = event.tid
        location = event.location
        held = event.locks_held
        is_write = event.is_write
        clock = _clock(self._clocks, tid)
        strong = _clock(self._strong, tid) if self.predictive else None
        # A record sharing a lock in ``shield`` with this access is
        # exonerated.  "consistent" suppresses on a common lock still in
        # the guard set; the refined guard set is a subset of ``held``, so
        # that is a lock the record shares with the guard set itself.
        locks = self.locks
        if locks == "blanket":
            shield = held
        elif locks == "consistent":
            shield = self._guard_set(location, held)
        else:
            shield = _NO_LOCKS
        history = self._histories.setdefault(location, [])
        for record in history:
            if record.tid == tid:
                continue
            if not (record.is_write or is_write):
                continue
            if not record.lockset.isdisjoint(shield):
                continue
            if clock.knows(record.tid, record.epoch):
                continue  # record happens-before this access
            self.report.record(
                record.stmt,
                event.stmt,
                location=location,
                tids=(record.tid, tid),
                both_write=record.is_write and is_write,
                schedulable=(
                    None
                    if strong is None
                    else not strong.knows(record.tid, record.strong_epoch)
                ),
            )
        new_record = AccessRecord(
            tid=tid,
            epoch=clock.get(tid),
            is_write=is_write,
            lockset=held,
            stmt=event.stmt,
            strong_epoch=0 if strong is None else strong.get(tid),
        )
        if strong is not None:
            # Check-then-update (the SHB discipline): the write→read edge a
            # read induces must not hide the read's own race with that
            # write.  The record keeps the pre-tick epoch, which is what
            # the snapshot in _last_write carries to future readers.
            if is_write:
                self._last_write[location] = _publish(self._strong, tid)
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
        if strong is None and len(history) > self.max_history:
            history.pop(0)
            self._overflowed.add(location)


class HybridRaceDetector(HistoryRaceDetector):
    """Lockset + happens-before predictive race detection — the paper's
    Phase 1 ([37] in the paper).

    The happens-before relation is generated *only* by thread start,
    join, and notify→wait edges, and a common lock suppresses the pair
    (``L_i ∩ L_j = ∅`` in Section 2.2).  Because lock release→acquire
    edges are deliberately excluded, the detector *predicts* races that
    could happen under other lock orderings — which is what gives it
    coverage, and also what produces the false positives that Phase 2
    weeds out (e.g. Figure 1's flag-synchronized variable ``x``).
    """

    name = "hybrid"
    locks = "blanket"


class HappensBeforeDetector(HistoryRaceDetector):
    """Precise happens-before race detection (Schonberg [44] in the paper).

    Reports a pair only when two conflicting accesses are truly concurrent
    in the *observed* execution: the happens-before relation here includes
    lock release→acquire edges in addition to start/join/notify→wait, and
    no lockset filtering is applied.  This is the baseline the paper
    contrasts with: precise (no false warnings for the observed run) but
    unable to predict races that need a different schedule — and
    expensive, since every access is tracked.
    """

    name = "happens-before"
    locks = "order"


class ShbRaceDetector(HistoryRaceDetector):
    """SHB-style prediction: keep predicting past the first race.

    Classical happens-before detection is only *sound up to the first
    race*: once two accesses race, the observed order of everything after
    them is one arbitrary resolution of that race, and treating it as
    forced both misses predictable races and mis-grades reported ones.
    The SHB line of work (Mathur, Kini & Viswanathan, "What
    happens-after the first race?", arXiv:1808.00185) shows how to keep
    extracting *guaranteed-predictable* races from the whole trace by
    tracking the dependences that every correct reordering must respect —
    the reads-from and program-order skeleton — instead of the full
    observed order.  Adapted to this engine's event model:

    * the reporting order keeps only **spawn** edges, so candidates the
      observed-order hybrid discards because of a join return or a
      notify→wait pairing are reported rather than silently lost;
    * the full strong-dependently-precedes order — every message edge,
      lock release→acquire, and write→read flow — is still tracked, and
      grades each reported pair: ``schedulable`` pairs are concurrent
      even under SDP (predictable with high confidence, the SHB
      guarantee), the rest are explicitly speculative.

    Relative to ``hybrid`` this is a guaranteed superset with identical
    lock reasoning; the extra candidates fall in the documented
    join-protected / wakeup-ordered false-positive classes that Phase 2
    refutes cheaply.
    """

    name = "shb"
    locks = "blanket"
    predictive = True


class WcpRaceDetector(HistoryRaceDetector):
    """WCP-style prediction: near-complete candidates via weak causality.

    The weak-causally-precedes line of work (Kini, Mathur & Viswanathan;
    complexity results in arXiv:2004.06969) weakens happens-before around
    locks: critical sections on a common lock constrain each other only
    through the conflicts they actually contain, so many pairs an HB-based
    detector orders away remain predictable races.  The price of the extra
    recall is paid in candidates that need checking — which is free here,
    because Phase 2 *is* the checker.

    This takes :class:`ShbRaceDetector`'s reporting order (spawn edges
    only) and adds lock-acquisition-history reasoning in place of the
    blanket lockset rule: per location it maintains the Eraser-style
    candidate guard set, and a common lock suppresses a conflicting pair
    only while it is still in that set.  Once the acquisition history
    shows the discipline broken (any access skipped the lock), the
    "protected" witnesses stop vouching for the pair and it is reported
    as an inconsistently-guarded candidate: in a run where the
    undisciplined access pattern wins, the statements can collide.

    Ordering of reports: ``pairs(hybrid) ⊆ pairs(shb) ⊆ pairs(wcp)`` on
    any trace — the reporting order is the same as shb's and the guard
    rule only ever suppresses *less* (asserted by the superset suite).
    The extra pairs relative to shb form the documented
    inconsistently-guarded class.
    """

    name = "wcp"
    locks = "consistent"
    predictive = True
