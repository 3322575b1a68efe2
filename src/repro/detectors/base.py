"""One kernel for the history-based race detectors: the Section 2.2 check.

Every history detector keeps, per memory location, a history of accesses
stamped with (thread, epoch, lockset, statement) and compares each new
access against it.  Events ``e_i = MEM(s_i, m, a_i, t_i, L_i)`` and
``e_j = MEM(s_j, m, a_j, t_j, L_j)`` race iff they come from different
threads, at least one writes, no lock rule exonerates them, and neither
happens-before the other.  :class:`HistoryRaceDetector` implements that
scan once, over any non-empty set of four named configurations
(:data:`CONFIGURATIONS`), each a lock rule and a reporting order.

The lock rule:

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

The reporting order.  The observed-order configurations (``hybrid``,
``happens-before``) answer "which pairs were concurrent *in this
schedule*?": every message edge joins the reporting clock, and histories
cap at :attr:`~HistoryRaceDetector.max_history` records per location (a
location that overflows may lose witnesses and is counted in the report's
``truncated_locations``).  The predictive configurations (``shb``,
``wcp``) answer "which pairs could be concurrent in *some* schedule
consistent with what this trace forces?" — a strictly larger candidate
set from the very same recorded events, which is exactly what Phase 2
wants to be fed (it weeds imprecision for free; missed candidates are
gone forever).  Two vector-clock families serve them:

* the **spawn** (reporting) clocks order accesses only across *spawn*
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

**One walk.**  A kernel handles each event once, whatever its set of
configurations: one dispatch on the event's class, one edge
classification per RCV (:func:`~repro.detectors.edges.classify`), and
each clock family kept once — message clocks for ``hybrid``,
message+lock clocks for ``happens-before``, spawn and SDP clocks shared
by ``shb`` and ``wcp`` (with their message, release and last-write
snapshots).  A racing pair of statements is built once per execution
and reused from a cache keyed by the two statements' ids.  Each location
has up to two histories, each walked once per access:

* the **observed** history, shared by ``hybrid`` and ``happens-before``:
  both keep the latest record per ``(tid, stmt, is_write, lockset)`` key
  and evict the oldest past 128 records, so the two histories would hold
  the same keys in the same order — one history, each record carrying
  both epochs;
* the **predictive** history, shared by ``shb`` and ``wcp``: records carry
  the spawn and SDP epochs.  wcp's guard set is a subset of the access's
  lockset, so a record shb's shield passes, wcp's passes too.

Keeping only the latest record per key cannot lose a statement pair: any
older access the replaced record would have raced with was compared
before the replacement, because histories are updated in execution order.

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
from typing import Callable, Iterable

from repro.obs import maybe_telemetry
from repro.runtime.events import (
    Access,
    AcquireEvent,
    Event,
    MemEvent,
    RcvEvent,
    ReleaseEvent,
    SndEvent,
    ThreadStartEvent,
)
from repro.runtime.location import LockId
from repro.runtime.observer import ExecutionObserver
from repro.runtime.statement import Statement, StatementPair

from .edges import SPAWN, classify
from .report import RaceReport, _program_name
from .vectorclock import VectorClock

#: name -> (lock rule, predictive): the configurations of the kernel.
CONFIGURATIONS: dict[str, tuple[str, bool]] = {
    "hybrid": ("blanket", False),
    "happens-before": ("order", False),
    "shb": ("blanket", True),
    "wcp": ("consistent", True),
}

_WRITE = Access.WRITE

# Clock families, as indices into a thread's clock list and a message's
# snapshot list: hybrid's message clocks, happens-before's message+lock
# clocks, and the spawn and SDP clocks of the predictive configurations.
_MESSAGE, _ORDER, _SPAWN, _STRONG = range(4)


@dataclass(slots=True)
class _Record:
    """One access in a shared per-location history.

    ``tid``, ``stmt``, ``is_write`` and ``lockset`` are the dedupe key.
    ``epoch`` and ``epoch2`` stamp the access under the history's two clock
    families: message and message+lock clocks in the observed history,
    spawn and SDP clocks in the predictive one.
    """

    tid: int
    stmt: Statement
    is_write: bool
    lockset: frozenset[LockId]
    epoch: int
    epoch2: int


class _LocationState:
    """What the kernel keeps per memory location: its two histories, wcp's
    candidate guard set, and the SDP snapshot at its last write."""

    __slots__ = ("observed", "predictive", "guards", "last_write")

    def __init__(self, held: frozenset[LockId]) -> None:
        self.observed: list[_Record] = []
        self.predictive: list[_Record] = []
        self.guards = held
        self.last_write: VectorClock | None = None


def _publish(clock: VectorClock, tid: int) -> VectorClock:
    """Snapshot ``tid``'s clock for a send, release or write, then tick it."""
    snapshot = clock.copy()
    clock.tick(tid)
    return snapshot


class HistoryRaceDetector(ExecutionObserver):
    """The Section 2.2 race check for a set of configurations (see the
    module docstring); ``reports`` holds one :class:`RaceReport` per name."""

    #: per-location bound of the observed history.
    max_history: int = 128
    #: the kernel's own name; a named subclass is the one configuration it
    #: names.
    name: str = "history"

    def __init__(self, names: Iterable[str] | None = None) -> None:
        names = (self.name,) if names is None else tuple(dict.fromkeys(names))
        if not names or any(name not in CONFIGURATIONS for name in names):
            raise ValueError(
                f"a history kernel needs a non-empty subset of "
                f"{sorted(CONFIGURATIONS)}, got {list(names)}"
            )
        self.names = names
        self._observed = "hybrid" in names or "happens-before" in names
        self._predictive = "shb" in names or "wcp" in names
        #: which clock families are kept, in family order.
        self._families = (
            "hybrid" in names,
            "happens-before" in names,
            self._predictive,
            self._predictive,
        )
        #: event class -> handler, a plain function called with the kernel
        #: (see :meth:`on_event`): no bound method of the kernel is kept, so
        #: a kernel is freed by reference counting.
        self._handlers: dict[type, Callable[[HistoryRaceDetector, Event], None]] = {}
        self._prev: Event | None = None
        self._prev2: Event | None = None
        #: (id(record stmt), id(access stmt)) -> their pair (see
        #: :meth:`_pair`).  Ids are sound keys: each cached pair holds both
        #: statements, so neither id can be reused while it is cached.
        self._pairs: dict[tuple[int, int], StatementPair] = {}
        #: tid -> one clock per family (None for a family not kept).
        self._threads: dict[int, list[VectorClock | None]] = {}
        #: msg_id -> clock snapshots at SND time, one per family.
        self._messages: dict[int, list[VectorClock | None]] = {}
        #: lock uid -> (message+lock, SDP) snapshots at its last release.
        self._releases: dict[int, tuple[VectorClock | None, VectorClock | None]] = {}
        #: keyed by ``Location.key``, which hashes in C.
        self._locations: dict[tuple, _LocationState] = {}
        #: keys of the locations whose observed history dropped a record.
        self._overflowed: set[tuple] = set()
        self.soft_edges = 0
        self.guard_breaks = 0
        self._fresh_reports("?")

    def _fresh_reports(self, program: str) -> None:
        self.reports = {
            name: RaceReport(program=program, detector=name) for name in self.names
        }
        get = self.reports.get
        self._hybrid = get("hybrid")
        self._precise = get("happens-before")
        self._consistent = get("wcp")
        #: the reports a record disjoint from the access's lockset races in.
        self._blanket = tuple(
            report for report in (get("shb"), get("wcp")) if report is not None
        )

    @property
    def report(self) -> RaceReport:
        """The report of a one-configuration kernel."""
        if len(self.names) != 1:
            raise AttributeError(
                f"a kernel over {list(self.names)} has one report per name "
                f"in .reports"
            )
        return self.reports[self.names[0]]

    # ------------------------------------------------------------------ #

    def on_start(self, execution) -> None:
        """Reset every clock, history and counter for a new execution."""
        self._fresh_reports(_program_name(execution))
        self._prev = self._prev2 = None
        for state in (
            self._threads, self._messages, self._releases, self._locations,
            self._overflowed, self._pairs,
        ):
            state.clear()
        self.soft_edges = 0
        self.guard_breaks = 0

    def _thread(self, tid: int) -> list[VectorClock | None]:
        clocks = self._threads.get(tid)
        if clocks is None:
            clocks = self._threads[tid] = [
                VectorClock.for_thread(tid) if kept else None
                for kept in self._families
            ]
        return clocks

    def on_event(self, event: Event) -> None:
        """Check a memory access, or fold a synchronisation edge into the
        clocks of every family kept: one dispatch on the event's class."""
        handler = self._handlers.get(event.__class__)
        if handler is None:
            handler = self._handler_for(event.__class__)
        handler(self, event)
        # The last two events, which classify a predictive RCV's edge.
        self._prev2 = self._prev
        self._prev = event

    def _handler_for(self, cls: type) -> Callable[[HistoryRaceDetector, Event], None]:
        """The handler of the nearest event class ``cls`` derives from
        (a no-op for an event no clock reads), cached for ``cls``; taken
        from the kernel's class, so a subclass's override applies."""
        for base in cls.__mro__:
            name = _HANDLER_NAMES.get(base)
            if name is not None:
                handler = getattr(type(self), name)
                break
        else:
            handler = _ignore
        self._handlers[cls] = handler
        return handler

    def _on_snd(self, event: SndEvent) -> None:
        tid = event.tid
        self._messages[event.msg_id] = [
            None if clock is None else _publish(clock, tid)
            for clock in self._thread(tid)
        ]

    def _on_rcv(self, event: RcvEvent) -> None:
        message = self._messages.get(event.msg_id)
        if message is None:
            return
        seen, order, spawn, strong = self._thread(event.tid)
        if seen is not None:
            seen.join(message[_MESSAGE])
        if order is not None:
            order.join(message[_ORDER])
        if spawn is not None:
            # The strong order keeps every witnessed dependence; the
            # predictive reporting order only spawn edges.
            strong.join(message[_STRONG])
            if classify(event, self._prev, self._prev2) == SPAWN:
                spawn.join(message[_SPAWN])
            else:
                self.soft_edges += 1

    def _on_thread_start(self, event: ThreadStartEvent) -> None:
        self._thread(event.child)

    def _on_release(self, event: ReleaseEvent) -> None:
        _, order, _, strong = self._thread(event.tid)
        if order is not None or strong is not None:
            self._releases[event.lock.uid] = (
                None if order is None else _publish(order, event.tid),
                None if strong is None else _publish(strong, event.tid),
            )

    def _on_acquire(self, event: AcquireEvent) -> None:
        released = self._releases.get(event.lock.uid)
        if released is not None:
            _, order, _, strong = self._thread(event.tid)
            if order is not None:
                order.join(released[0])
            if strong is not None:
                strong.join(released[1])

    def on_finish(self, execution) -> None:
        """Publish the truncation count and the predictive counters."""
        for report in (self._hybrid, self._precise):
            if report is not None:
                report.truncated_locations = len(self._overflowed)
        telemetry = maybe_telemetry()
        if telemetry is None:
            return
        for name in ("shb", "wcp"):
            if name in self.reports:
                telemetry.inc(f"predict.{name}.pairs", len(self.reports[name]))
                telemetry.inc(f"predict.{name}.soft_edges", self.soft_edges)
        if self._consistent is not None:
            telemetry.inc("predict.wcp.guard_breaks", self.guard_breaks)

    # ------------------------------------------------------------------ #

    def _pair(self, first: Statement, second: Statement) -> StatementPair:
        """The cached pair of two statements, in either order: one object
        per pair, so a report's evidence lookup matches it by identity."""
        pair = self._pairs.get((id(second), id(first)))
        if pair is None:
            pair = StatementPair(first, second)
        self._pairs[(id(first), id(second))] = pair
        return pair

    def _on_mem(self, event: MemEvent) -> None:
        """Walk each of the location's histories once: race the access
        against every record under each configuration, find the record of
        the access's key, then replace or append it.

        The walks read the clocks' component maps directly (``_clock``):
        they are the kernel's hot loop.
        """
        _, tid, stmt, location, access, held = event
        is_write = access is _WRITE
        pairs = self._pairs
        sid = id(stmt)
        seen, order, spawn, strong = self._threads.get(tid) or self._thread(tid)
        state = self._locations.get(location.key)
        if state is None:
            state = self._locations[location.key] = _LocationState(held)
        if self._observed:
            hybrid = self._hybrid
            precise = self._precise
            # hybrid: a common lock exonerates, message edges order;
            # happens-before: message and lock edges order.
            seen_of = None if seen is None else seen._clock.get
            order_of = None if order is None else order._clock.get
            history = state.observed
            slot = None
            for record in history:
                rtid = record.tid
                if rtid == tid:
                    if (
                        record.is_write is is_write
                        and (record.lockset is held or record.lockset == held)
                        and (record.stmt is stmt or record.stmt == stmt)
                    ):
                        slot = record
                    continue
                if not (is_write or record.is_write):
                    continue
                racing = (
                    seen_of is not None
                    and seen_of(rtid, 0) < record.epoch
                    and record.lockset.isdisjoint(held)
                )
                racing_precise = order_of is not None and order_of(rtid, 0) < record.epoch2
                if racing or racing_precise:
                    pair = pairs.get((id(record.stmt), sid))
                    if pair is None:
                        pair = self._pair(record.stmt, stmt)
                    tids = (rtid, tid)
                    both_write = record.is_write and is_write
                    if racing:
                        hybrid.witness(pair, location, tids, both_write)
                    if racing_precise:
                        precise.witness(pair, location, tids, both_write)
            epoch = 0 if seen_of is None else seen_of(tid, 0)
            epoch2 = 0 if order_of is None else order_of(tid, 0)
            if slot is not None:
                slot.epoch = epoch
                slot.epoch2 = epoch2
            else:
                history.append(_Record(tid, stmt, is_write, held, epoch, epoch2))
                if len(history) > self.max_history:
                    history.pop(0)
                    self._overflowed.add(location.key)
        if self._predictive:
            # A record sharing a lock in the shield with this access is
            # exonerated: shb's shield is the access's lockset, wcp's the
            # location's guard set, a subset of it — so a record disjoint
            # from the lockset races under both.
            consistent = self._consistent
            guards = state.guards
            if consistent is not None and not guards <= held:
                self.guard_breaks += 1
                guards = state.guards = guards & held
            blanket = self._blanket
            spawn_of = spawn._clock.get
            strong_of = strong._clock.get
            history = state.predictive
            slot = None
            for record in history:
                rtid = record.tid
                if rtid == tid:
                    if (
                        record.is_write is is_write
                        and (record.lockset is held or record.lockset == held)
                        and (record.stmt is stmt or record.stmt == stmt)
                    ):
                        slot = record
                    continue
                if not (is_write or record.is_write):
                    continue
                if spawn_of(rtid, 0) >= record.epoch:
                    continue  # record happens-before this access
                if record.lockset.isdisjoint(held):
                    racing = blanket
                elif consistent is not None and record.lockset.isdisjoint(guards):
                    racing = (consistent,)
                else:
                    continue
                pair = pairs.get((id(record.stmt), sid))
                if pair is None:
                    pair = self._pair(record.stmt, stmt)
                tids = (rtid, tid)
                both_write = record.is_write and is_write
                schedulable = strong_of(rtid, 0) < record.epoch2
                for report in racing:
                    report.witness(pair, location, tids, both_write, schedulable)
            epoch = spawn_of(tid, 0)
            epoch2 = strong_of(tid, 0)
            if slot is not None:
                slot.epoch = epoch
                slot.epoch2 = epoch2
            else:
                history.append(_Record(tid, stmt, is_write, held, epoch, epoch2))
            # Check-then-update (the SHB discipline): the write→read edge a
            # read induces must not hide the read's own race with that
            # write.  The record keeps the pre-tick epoch, which is what
            # the snapshot in last_write carries to future readers.
            if is_write:
                state.last_write = _publish(strong, tid)
            elif state.last_write is not None:
                strong.join(state.last_write)


def _ignore(kernel: HistoryRaceDetector, event: Event) -> None:
    """The handler of an event no clock reads (thread end, error, deadlock)."""


#: event class -> the name of the kernel method that handles it.
_HANDLER_NAMES = {
    MemEvent: "_on_mem",
    SndEvent: "_on_snd",
    RcvEvent: "_on_rcv",
    ThreadStartEvent: "_on_thread_start",
    ReleaseEvent: "_on_release",
    AcquireEvent: "_on_acquire",
}


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
    locks, predictive = CONFIGURATIONS[name]


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
    locks, predictive = CONFIGURATIONS[name]


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
    locks, predictive = CONFIGURATIONS[name]


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
    locks, predictive = CONFIGURATIONS[name]
