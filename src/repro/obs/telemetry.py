"""One telemetry stream: counters, gauges, histograms, spans and events.

Observability in this codebase follows the same discipline as its
nondeterminism: one explicit owner, deterministic everywhere.  A single
process-wide :class:`Telemetry` is either *active* (every layer records
into it) or absent (the default — :func:`maybe_telemetry` returns
``None`` and every instrumentation site collapses to that one check, so
an uninstrumented campaign allocates nothing for telemetry; the
benchmark's ``obs.overhead_ratio`` on ``campaign-adaptive`` measures the
on/off cost).  ``--metrics-out`` switches the stream on and writes all of
it, aggregates and events, into one run report.

What one telemetry object holds:

* **aggregates** — counters, gauges (high-water marks), fixed-bucket
  histograms and wall-clock spans (``with span("phase2.fuzz"): ...``),
  cheap enough to wrap every (pair, chunk) in a campaign;
* **events** — typed, sparse :class:`TimelineEvent` entries (*why* the
  campaign did what it did: binds, Thompson draws, posterior deltas,
  trials, retries, health, store traffic) in a bounded ring.  An event's
  identity is ``(kind, key, attrs)`` — schedule-determined values only;
  wall time, duration and the worker track are display fields that never
  take part in equality, ordering or dedup.

Three rules make serial == ``--jobs N`` == resumed hold for telemetry
exactly as it does for campaign results:

1. **Snapshots are picklable value objects.**  A worker collects into
   its own :class:`Telemetry` (installed by the supervisor around each
   task attempt) and ships a :class:`TelemetrySnapshot` home with the
   result in a :class:`MeteredResult`.
2. **One merge law, field by field** (:meth:`TelemetrySnapshot.merged`):
   counters add, gauges take the max, histograms add bucket-wise (equal
   bounds required), spans aggregate ``(count, total, min, max)``, and
   events are a dedup-union by identity truncated to the ring budget
   keeping the *smallest* identities.  The fold is associative and
   commutative up to display fields (and float rounding of span/histogram
   totals), so worker snapshots can settle in any order.  ``dropped``
   counts identities cut per fold, so once the budget overflows it is a
   count of cuts, not of distinct lost identities.
3. **Only settled work counts.**  The supervisor merges a snapshot only
   when the attempt's result is accepted, so retried or quarantined
   attempts never double-count (their partial telemetry dies with them).
"""

from __future__ import annotations

import bisect
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

#: default histogram bounds for step-count style distributions.
STEP_BUCKETS: tuple[float, ...] = (
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)

#: default histogram bounds for wall-clock seconds.
WALL_BUCKETS: tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0)

#: default ring budget: events retained per snapshot.
DEFAULT_BUDGET = 8192


@dataclass
class HistogramData:
    """One fixed-bucket histogram: ``counts[i]`` observations ``<= bounds[i]``,
    plus one overflow bucket; ``total``/``count`` give the exact mean."""

    bounds: tuple[float, ...]
    counts: list[int]
    total: float = 0.0
    count: int = 0

    @classmethod
    def empty(cls, bounds: Sequence[float]) -> "HistogramData":
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        return cls(bounds=bounds, counts=[0] * (len(bounds) + 1))

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def add(self, other: "HistogramData") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count

    def copy(self) -> "HistogramData":
        return HistogramData(
            bounds=self.bounds,
            counts=list(self.counts),
            total=self.total,
            count=self.count,
        )

    def to_jsonable(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "HistogramData":
        return cls(
            bounds=tuple(float(b) for b in obj["bounds"]),
            counts=[int(c) for c in obj["counts"]],
            total=float(obj["total"]),
            count=int(obj["count"]),
        )


@dataclass
class SpanData:
    """Aggregated wall-clock timings of one named span."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = 0.0
    max_s: float = 0.0

    def observe(self, seconds: float) -> None:
        if self.count == 0:
            self.min_s = self.max_s = seconds
        else:
            self.min_s = min(self.min_s, seconds)
            self.max_s = max(self.max_s, seconds)
        self.count += 1
        self.total_s += seconds

    def add(self, other: "SpanData") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.min_s, self.max_s = other.min_s, other.max_s
        else:
            self.min_s = min(self.min_s, other.min_s)
            self.max_s = max(self.max_s, other.max_s)
        self.count += other.count
        self.total_s += other.total_s

    def copy(self) -> "SpanData":
        return SpanData(
            count=self.count, total_s=self.total_s,
            min_s=self.min_s, max_s=self.max_s,
        )

    def to_jsonable(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "SpanData":
        return cls(
            count=int(obj["count"]),
            total_s=float(obj["total_s"]),
            min_s=float(obj["min_s"]),
            max_s=float(obj["max_s"]),
        )


def _canon(value) -> str:
    """Canonical JSON encoding used for identity comparison and order."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _canonical_attrs(attrs) -> tuple:
    """Normalise an attrs mapping/iterable into the sorted tuple form."""
    if attrs is None:
        return ()
    items = attrs.items() if hasattr(attrs, "items") else attrs
    return tuple(sorted((str(name), value) for name, value in items))


@dataclass(frozen=True)
class TimelineEvent:
    """One event of the stream.

    ``kind``/``key``/``attrs`` are the deterministic identity; ``wall_s``
    (absolute unix start), ``dur_s`` and ``track`` are display-only.
    """

    kind: str
    key: tuple
    attrs: tuple  # sorted ((name, value), ...)
    wall_s: float = 0.0
    dur_s: float = 0.0
    track: str = ""

    @property
    def identity(self):
        return (self.kind, _canon(list(self.key)), _canon([list(a) for a in self.attrs]))

    @property
    def attrs_dict(self):
        return dict(self.attrs)

    def to_jsonable(self):
        entry = {
            "kind": self.kind,
            "key": list(self.key),
            "attrs": {name: value for name, value in self.attrs},
        }
        if self.wall_s:
            entry["wall_s"] = self.wall_s
        if self.dur_s:
            entry["dur_s"] = self.dur_s
        if self.track:
            entry["track"] = self.track
        return entry

    @classmethod
    def from_jsonable(cls, entry):
        """An event from its :meth:`to_jsonable` form."""
        return cls(
            kind=entry["kind"],
            key=tuple(entry.get("key", ())),
            attrs=_canonical_attrs(entry.get("attrs", {})),
            wall_s=entry.get("wall_s", 0.0),
            dur_s=entry.get("dur_s", 0.0),
            track=entry.get("track", ""),
        )


def _merge_events(event_lists, budget: int) -> tuple[list, int]:
    """Dedup-union by identity, canonical sort, truncate to ``budget``.

    Returns ``(retained, cut)``.  Keeping the *smallest* identities
    (rather than dropping by arrival) is what makes truncation
    associative: any grouping of the same events converges on the same
    retained set.  The first event seen for an identity keeps its
    display fields.
    """
    seen = {}
    for events in event_lists:
        for event in events:
            seen.setdefault(event.identity, event)
    ordered = [seen[identity] for identity in sorted(seen)]
    return ordered[:budget], max(0, len(ordered) - budget)


def _merge_into(mine: dict, theirs: Mapping) -> None:
    """Fold histogram or span aggregates ``theirs`` into ``mine``."""
    for name, data in theirs.items():
        if name in mine:
            mine[name].add(data)
        else:
            mine[name] = data.copy()


@dataclass(frozen=True)
class TelemetrySnapshot:
    """A picklable, mergeable point-in-time copy of a :class:`Telemetry`.

    ``events`` is sorted by canonical identity and bounded by ``budget``;
    ``dropped`` counts identities cut by the ring budget so far.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramData] = field(default_factory=dict)
    spans: dict[str, SpanData] = field(default_factory=dict)
    events: tuple = ()
    dropped: int = 0
    budget: int = DEFAULT_BUDGET

    def merged(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """A new snapshot combining ``self`` and ``other`` (the merge law)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        histograms = {name: h.copy() for name, h in self.histograms.items()}
        _merge_into(histograms, other.histograms)
        spans = {name: s.copy() for name, s in self.spans.items()}
        _merge_into(spans, other.spans)
        budget = max(self.budget, other.budget)
        events, cut = _merge_events((self.events, other.events), budget)
        return TelemetrySnapshot(
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            spans=spans,
            events=tuple(events),
            dropped=self.dropped + other.dropped + cut,
            budget=budget,
        )

    def to_jsonable(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: h.to_jsonable()
                for name, h in sorted(self.histograms.items())
            },
            "spans": {
                name: s.to_jsonable() for name, s in sorted(self.spans.items())
            },
            "budget": self.budget,
            "dropped": self.dropped,
            "events": [event.to_jsonable() for event in self.events],
        }

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "TelemetrySnapshot":
        """Rebuild a snapshot from :meth:`to_jsonable` output, a run
        report's aggregates or its ``timeline`` section — every field is
        optional."""
        budget = obj.get("budget", DEFAULT_BUDGET)
        events, cut = _merge_events(
            ([TimelineEvent.from_jsonable(e) for e in obj.get("events", ())],),
            budget,
        )
        return cls(
            counters={str(k): int(v) for k, v in obj.get("counters", {}).items()},
            gauges={str(k): float(v) for k, v in obj.get("gauges", {}).items()},
            histograms={
                str(k): HistogramData.from_jsonable(v)
                for k, v in obj.get("histograms", {}).items()
            },
            spans={
                str(k): SpanData.from_jsonable(v)
                for k, v in obj.get("spans", {}).items()
            },
            events=tuple(events),
            dropped=obj.get("dropped", 0) + cut,
            budget=budget,
        )


@dataclass(frozen=True)
class MeteredResult:
    """A task attempt's result bundled with the telemetry it recorded.

    The supervisor unwraps this before validation/journaling and merges
    ``snapshot`` into the parent's telemetry only when the result is
    accepted — the mechanism behind retry-safe, serial-equivalent
    parallel telemetry.
    """

    result: Any
    snapshot: TelemetrySnapshot


class _Span:
    """Times one ``with`` block into its telemetry's span aggregate."""

    __slots__ = ("_telemetry", "name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self.name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._telemetry.observe_span(self.name, time.perf_counter() - self._start)


class Telemetry:
    """Counters, gauges, histograms, spans and the event ring.

    Event appends are O(1); the ring compacts lazily (dedup + canonical
    sort + keep-smallest truncation) once the raw list exceeds twice the
    budget, and always at :meth:`snapshot`.
    """

    def __init__(self, *, budget: int = DEFAULT_BUDGET) -> None:
        self.budget = max(1, int(budget))
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramData] = {}
        self._spans: dict[str, SpanData] = {}
        self._events: list[TimelineEvent] = []
        self._dropped = 0
        self._track = f"p{os.getpid()}"

    # -- recording ------------------------------------------------------ #

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is a new high-water mark."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def observe(
        self, name: str, value: float, *, bounds: Sequence[float] = STEP_BUCKETS
    ) -> None:
        """Record ``value`` into the fixed-bucket histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = HistogramData.empty(bounds)
        histogram.observe(value)

    def span(self, name: str) -> _Span:
        """A context manager timing its block into span ``name``."""
        return _Span(self, name)

    def observe_span(self, name: str, seconds: float) -> None:
        """Record one completed timing for span ``name``."""
        data = self._spans.get(name)
        if data is None:
            data = self._spans[name] = SpanData()
        data.observe(seconds)

    def emit(self, kind, key, attrs=None, *, wall_s=0.0, dur_s=0.0, track=None):
        """Append one event; ``kind``/``key``/``attrs`` are its identity."""
        self._events.append(
            TimelineEvent(
                kind=kind,
                key=tuple(key),
                attrs=_canonical_attrs(attrs),
                wall_s=wall_s,
                dur_s=dur_s,
                track=track if track is not None else self._track,
            )
        )
        if len(self._events) > 2 * self.budget:
            self._compact()

    # -- reading / merging ---------------------------------------------- #

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    def _compact(self) -> None:
        self._events, cut = _merge_events((self._events,), self.budget)
        self._dropped += cut

    def snapshot(self) -> TelemetrySnapshot:
        """A picklable copy of everything recorded so far."""
        self._compact()
        return TelemetrySnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={k: h.copy() for k, h in self._histograms.items()},
            spans={k: s.copy() for k, s in self._spans.items()},
            events=tuple(self._events),
            dropped=self._dropped,
            budget=self.budget,
        )

    def merge_snapshot(self, snapshot: TelemetrySnapshot) -> None:
        """Fold a worker's snapshot in, by the snapshot merge law."""
        for name, value in snapshot.counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in snapshot.gauges.items():
            self.gauge_max(name, value)
        _merge_into(self._histograms, snapshot.histograms)
        _merge_into(self._spans, snapshot.spans)
        self._events.extend(snapshot.events)
        self._dropped += snapshot.dropped
        if len(self._events) > 2 * self.budget:
            self._compact()


# --------------------------------------------------------------------- #
# The process-wide active telemetry.
# --------------------------------------------------------------------- #

#: telemetry is off by default; `collecting()` installs an instance.
_active: Telemetry | None = None

_NULL_SPAN = nullcontext()


def maybe_telemetry() -> Telemetry | None:
    """The active telemetry, or ``None`` when telemetry is off.

    The hot-path idiom: fetch once per unit of work, branch on ``None``
    per event.  A telemetry-off campaign's entire cost is that branch.
    """
    return _active


def span(name: str):
    """Time a block into the active telemetry (a no-op when off)."""
    telemetry = _active
    return _NULL_SPAN if telemetry is None else telemetry.span(name)


@contextmanager
def collecting() -> Iterator[Telemetry]:
    """Turn telemetry on for a block; restores what was active before.

    This is both the user-facing switch (the CLI wraps a command in it
    when ``--metrics-out`` is given) and the worker-side scope the
    supervisor installs around each task attempt.
    """
    global _active
    telemetry = Telemetry()
    previous, _active = _active, telemetry
    try:
        yield telemetry
    finally:
        _active = previous


#: The old name of the timeline switch, kept because ``bench/workloads.py``
#: imports it: the benchmark's own code stays the same across the commits
#: it compares.
recording_timeline = collecting


__all__ = [
    "DEFAULT_BUDGET",
    "STEP_BUCKETS",
    "WALL_BUCKETS",
    "HistogramData",
    "MeteredResult",
    "SpanData",
    "Telemetry",
    "TelemetrySnapshot",
    "TimelineEvent",
    "collecting",
    "maybe_telemetry",
    "recording_timeline",
    "span",
]
