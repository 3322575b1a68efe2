"""A constant-space sampling screener: the fast first pass over a trace.

Predictive clock analyses pay per-event vector-clock work; on a huge
trace that is exactly the cost a first pass should avoid.  Following the
O(1)-samples line of sampling race detection (arXiv:2506.20127), the
screener keeps only a bounded sample of accesses per memory location and
does no ordering reasoning at all: any two sampled accesses from
different threads, at least one a write, with disjoint locksets, name a
candidate pair.

That makes it the recall/precision extreme of the detector spectrum:

* it over-approximates orderings (even spawn-ordered pairs are
  reported), so its output is only a *screen* — feed it to Phase 2 or
  intersect it with a clock detector's report;
* it under-samples hot locations (at most ``sample_cap`` distinct
  record keys are retained per location, first come first kept; later
  new keys only bump the ``dropped`` counter), so on huge traces it is
  O(locations) space and close to O(events) time where the full
  analyses are not.

Deterministic by construction — the sample is a pure function of the
event stream — so offline replay equals the live run, and repeated
analysis of one trace is byte-identical.
"""

from __future__ import annotations

from repro.obs import maybe_telemetry
from repro.runtime.events import Event, MemEvent
from repro.runtime.location import Location
from repro.runtime.observer import ExecutionObserver

from ..base import AccessRecord
from ..report import RaceReport, _program_name


class SamplingRaceDetector(ExecutionObserver):
    """Bounded-sample conflict screening; no clocks, no ordering."""

    name = "sample"

    def __init__(self, sample_cap: int = 16):
        assert sample_cap > 0, "sample_cap must be positive"
        self.sample_cap = sample_cap
        self.report: RaceReport = RaceReport(program="?", detector=self.name)
        self._samples: dict[Location, list[AccessRecord]] = {}
        self.dropped = 0

    def on_start(self, execution) -> None:
        self.report = RaceReport(
            program=_program_name(execution), detector=self.name
        )
        self._samples.clear()
        self.dropped = 0

    def on_event(self, event: Event) -> None:
        if not isinstance(event, MemEvent):
            return
        sample = self._samples.setdefault(event.location, [])
        for record in sample:
            if record.tid == event.tid:
                continue
            if not (record.is_write or event.is_write):
                continue
            if not record.lockset.isdisjoint(event.locks_held):
                continue
            self.report.record(
                record.stmt,
                event.stmt,
                location=event.location,
                tids=(record.tid, event.tid),
                both_write=record.is_write and event.is_write,
            )
        new_record = AccessRecord(
            tid=event.tid,
            epoch=0,  # the screener tracks no clocks
            is_write=event.is_write,
            lockset=event.locks_held,
            stmt=event.stmt,
        )
        key = new_record.key()
        for i, record in enumerate(sample):
            if record.key() == key:
                sample[i] = new_record
                return
        if len(sample) >= self.sample_cap:
            self.dropped += 1
            return
        sample.append(new_record)

    def on_finish(self, execution) -> None:
        # Locations at cap may have missed witnesses — same contract as
        # the history cap of the observed-order detectors.
        self.report.truncated_locations = sum(
            1 for sample in self._samples.values() if len(sample) >= self.sample_cap
        )
        telemetry = maybe_telemetry()
        if telemetry is not None:
            telemetry.inc(f"predict.{self.name}.pairs", len(self.report))
            telemetry.inc(f"predict.{self.name}.dropped", self.dropped)
