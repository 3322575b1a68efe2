"""`repro dash` HTML rendering and Chrome trace-event export."""

import json

import pytest

from repro.core.driver import race_directed_test
from repro.obs import chrome_trace, collecting, render_dash, write_chrome_trace
from repro.obs.dash import write_dash
from repro.obs.report import build_run_report
from repro.obs.telemetry import Telemetry
from repro.obs.traceexport import PAIR_PID, WORKER_PID
from repro.workloads import figure1, get


def _campaign():
    """One recorded figure1 campaign: (its snapshot, its run report)."""
    with collecting() as telemetry:
        race_directed_test(
            get("figure1").build(),
            phase1_seeds=range(2),
            trials=4,
            chunk_size=2,
            max_steps=20_000,
            schedule="adaptive",
        )
    snapshot = telemetry.snapshot()
    report = build_run_report(snapshot, command="fuzz", workload="figure1")
    return snapshot, report


@pytest.fixture(scope="module")
def campaign():
    return _campaign()


def _assert_standalone_html(html):
    assert html.startswith("<!DOCTYPE html>")
    assert html.rstrip().endswith("</html>")
    assert "<style>" in html  # inline CSS — no external fetches
    assert "http://" not in html and "https://" not in html


class TestDash:
    def test_renders_from_v3_report(self, campaign):
        _, report = campaign
        html = render_dash(report)
        _assert_standalone_html(html)
        label = f"{figure1.REAL_PAIR.first.site}|{figure1.REAL_PAIR.second.site}"
        assert label in html
        assert "<svg" in html  # posterior sparkline
        assert 'class="lane"' in html  # wall-clock chunk lanes

    def test_renders_lanes_and_health_from_report(self):
        telemetry = Telemetry()
        telemetry.emit("chunk", ("a|b", 0), {"trials": 2}, wall_s=5.0, dur_s=0.2)
        telemetry.emit(
            "health", (1, "degraded"), {"reason": "store-pressure"}, wall_s=5.1
        )
        telemetry.gauge_max("health.state", 1)
        report = build_run_report(telemetry.snapshot(), command="fuzz")
        html = render_dash(report)
        _assert_standalone_html(html)
        assert 'class="lane"' in html
        assert "store-pressure" in html
        assert 'class="health-degraded"' in html

    def test_write_dash(self, tmp_path, campaign):
        _, report = campaign
        path = tmp_path / "dash.html"
        write_dash(path, report)
        _assert_standalone_html(path.read_text())

    def test_renders_fixed_schedule_timeline(self):
        # Fixed-schedule campaigns record chunk events but no pair.bind,
        # so trajectories carry no bind index — the dash must still sort
        # and render them.
        from repro.core.driver import fuzz_races

        with collecting() as telemetry:
            fuzz_races(
                get("figure1").build(),
                [figure1.REAL_PAIR],
                trials=4,
                chunk_size=2,
                max_steps=20_000,
            )
        report = build_run_report(telemetry.snapshot(), command="fuzz")
        html = render_dash(report)
        _assert_standalone_html(html)
        assert "<svg" in html

    def test_renders_report_without_timeline_section(self):
        telemetry = Telemetry()
        telemetry.inc("fuzz.trials", 3)
        report = build_run_report(telemetry.snapshot(), command="fuzz")
        del report["timeline"]
        _assert_standalone_html(render_dash(report))


class TestChromeTrace:
    def test_trace_shape(self, campaign):
        snapshot, _ = campaign
        trace = chrome_trace(snapshot)
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert set(event) >= {"ph", "pid", "tid"}
            assert event["ph"] in {"M", "X", "i"}
            if event["ph"] != "M":
                assert isinstance(event["ts"], int) and event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 1
        json.dumps(trace)  # Perfetto needs plain JSON

    def test_pair_keyed_kinds_mirrored_onto_pair_process(self, campaign):
        snapshot, _ = campaign
        events = chrome_trace(snapshot)["traceEvents"]
        pids = {e["pid"] for e in events}
        assert {WORKER_PID, PAIR_PID} <= pids
        pair_rows = [
            e for e in events if e["pid"] == PAIR_PID and e["ph"] != "M"
        ]
        assert pair_rows  # chunk/trial events appear on the pair track

    def test_report_section_keeps_timed_slices(self, campaign):
        snapshot, report = campaign
        events = chrome_trace(report["timeline"])["traceEvents"]
        assert events == chrome_trace(snapshot)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X" and e["cat"] == "chunk"]
        assert slices
        assert any(e["ts"] > 0 for e in events if e["ph"] != "M")

    def test_write_chrome_trace(self, tmp_path, campaign):
        snapshot, _ = campaign
        path = tmp_path / "trace.json"
        write_chrome_trace(path, snapshot)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert loaded["displayTimeUnit"] == "ms"
