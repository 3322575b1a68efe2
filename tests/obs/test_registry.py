"""Telemetry aggregates: counters, gauges, histograms, spans, merging."""

import pickle

import pytest

from repro.core import RandomScheduler
from repro.obs.telemetry import (
    STEP_BUCKETS,
    HistogramData,
    SpanData,
    Telemetry,
    TelemetrySnapshot,
    collecting,
    maybe_telemetry,
)
from repro.obs.telemetry import span as module_span
from repro.runtime import Execution
from repro.workloads import figure1


class TestCounters:
    def test_inc_creates_at_zero(self):
        telemetry = Telemetry()
        telemetry.inc("a")
        telemetry.inc("a", 4)
        assert telemetry.counter("a") == 5

    def test_unknown_counter_reads_zero(self):
        assert Telemetry().counter("nope") == 0


class TestGauges:
    def test_gauge_max_keeps_high_water(self):
        telemetry = Telemetry()
        telemetry.gauge_max("depth", 3)
        telemetry.gauge_max("depth", 1)
        assert telemetry.gauge("depth") == 3
        telemetry.gauge_max("depth", 7)
        assert telemetry.gauge("depth") == 7

    def test_unset_gauge_is_none(self):
        assert Telemetry().gauge("nope") is None


class TestHistograms:
    def test_observe_buckets_and_mean(self):
        telemetry = Telemetry()
        for value in (5, 50, 50, 5_000_000):
            telemetry.observe("steps", value)
        h = telemetry.snapshot().histograms["steps"]
        assert h.bounds == STEP_BUCKETS
        assert h.counts[0] == 1  # <= 10
        assert h.counts[1] == 2  # <= 100
        assert h.counts[-1] == 1  # overflow
        assert h.count == 4
        assert h.total == 5 + 50 + 50 + 5_000_000

    def test_boundary_value_lands_in_its_bucket(self):
        h = HistogramData.empty((10.0, 100.0))
        h.observe(10.0)
        assert h.counts == [1, 0, 0]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            HistogramData.empty((10.0, 10.0))
        with pytest.raises(ValueError):
            HistogramData.empty((100.0, 10.0))

    def test_merge_requires_equal_bounds(self):
        a = HistogramData.empty((1.0, 2.0))
        b = HistogramData.empty((1.0, 3.0))
        with pytest.raises(ValueError):
            a.add(b)


class TestSpans:
    def test_span_aggregates_min_max(self):
        data = SpanData()
        for seconds in (0.2, 0.1, 0.4):
            data.observe(seconds)
        assert data.count == 3
        assert data.min_s == pytest.approx(0.1)
        assert data.max_s == pytest.approx(0.4)
        assert data.total_s == pytest.approx(0.7)

    def test_registry_span_times_block(self):
        telemetry = Telemetry()
        with telemetry.span("work"):
            pass
        data = telemetry.snapshot().spans["work"]
        assert data.count == 1
        assert data.total_s >= 0.0

    def test_span_records_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("work"):
                raise RuntimeError("boom")
        assert telemetry.snapshot().spans["work"].count == 1


class TestDisabled:
    def test_disabled_registry_is_a_noop(self):
        # Off means absent: instrumented layers find no telemetry and
        # record nowhere, so a scope opened afterwards starts empty.
        with module_span("s"):
            Execution(figure1.build(), seed=0).run(RandomScheduler())
        with collecting() as telemetry:
            pass
        assert telemetry.snapshot() == TelemetrySnapshot()

    def test_default_active_registry_is_disabled(self):
        assert maybe_telemetry() is None

    def test_collecting_swaps_and_restores(self):
        assert maybe_telemetry() is None
        with collecting() as telemetry:
            assert maybe_telemetry() is telemetry
            telemetry.inc("x")
        assert maybe_telemetry() is None

    def test_collecting_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError("boom")
        assert maybe_telemetry() is None

    def test_module_span_noop_when_disabled(self):
        with module_span("anything"):
            pass
        assert maybe_telemetry() is None


def _snap(counters=None, gauges=None, observations=(), spans=()):
    telemetry = Telemetry()
    for name, value in (counters or {}).items():
        telemetry.inc(name, value)
    for name, value in (gauges or {}).items():
        telemetry.gauge_max(name, value)
    for name, value in observations:
        telemetry.observe(name, value)
    for name, seconds in spans:
        telemetry.observe_span(name, seconds)
    return telemetry.snapshot()


class TestSnapshotMerge:
    def test_counters_add_gauges_max(self):
        a = _snap(counters={"c": 2}, gauges={"g": 5})
        b = _snap(counters={"c": 3, "d": 1}, gauges={"g": 2, "h": 9})
        merged = a.merged(b)
        assert merged.counters == {"c": 5, "d": 1}
        assert merged.gauges == {"g": 5, "h": 9}

    def test_merge_does_not_mutate_inputs(self):
        a = _snap(counters={"c": 2})
        b = _snap(counters={"c": 3})
        a.merged(b)
        assert a.counters == {"c": 2}
        assert b.counters == {"c": 3}

    def test_merge_associative_and_commutative(self):
        snaps = [
            _snap(
                counters={"c": i, f"only{i}": 1},
                gauges={"g": float(i)},
                observations=[("h", 10.0 * i)],
                spans=[("s", 0.1 * (i + 1))],
            )
            for i in range(1, 4)
        ]
        a, b, c = snaps
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        swapped = c.merged(a).merged(b)
        for other in (right, swapped):
            assert left.counters == other.counters
            assert left.gauges == other.gauges
            assert left.histograms == other.histograms
            # span count/min/max are order-independent exactly; totals
            # only up to float-summation rounding
            for name, mine in left.spans.items():
                theirs = other.spans[name]
                assert (mine.count, mine.min_s, mine.max_s) == (
                    theirs.count, theirs.min_s, theirs.max_s,
                )
                assert mine.total_s == pytest.approx(theirs.total_s)

    def test_merge_with_empty_is_identity(self):
        a = _snap(counters={"c": 2}, observations=[("h", 5.0)])
        empty = TelemetrySnapshot()
        assert a.merged(empty).counters == a.counters
        assert empty.merged(a).counters == a.counters

    def test_snapshot_pickles(self):
        a = _snap(
            counters={"c": 2},
            gauges={"g": 1.0},
            observations=[("h", 5.0)],
            spans=[("s", 0.25)],
        )
        b = pickle.loads(pickle.dumps(a))
        assert b.counters == a.counters
        assert b.histograms == a.histograms
        assert b.spans == a.spans

    def test_jsonable_round_trip(self):
        a = _snap(
            counters={"c": 2},
            gauges={"g": 1.5},
            observations=[("h", 5.0)],
            spans=[("s", 0.25)],
        )
        b = TelemetrySnapshot.from_jsonable(a.to_jsonable())
        assert b == a


class TestRegistryMerge:
    def test_merge_snapshot_accumulates(self):
        telemetry = Telemetry()
        telemetry.inc("c", 1)
        telemetry.merge_snapshot(_snap(counters={"c": 4}, gauges={"g": 2.0}))
        assert telemetry.counter("c") == 5
        assert telemetry.gauge("g") == 2.0

    def test_fold_order_equals_single_merge(self):
        parts = [_snap(counters={"c": i}, observations=[("h", i)]) for i in (1, 2, 3)]
        left = Telemetry()
        for part in parts:
            left.merge_snapshot(part)
        right = Telemetry()
        for part in reversed(parts):
            right.merge_snapshot(part)
        assert left.snapshot() == right.snapshot()
