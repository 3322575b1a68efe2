"""Chrome trace-event export of a run report's timeline (Perfetto)."""

import json

import pytest

from repro.core.driver import race_directed_test
from repro.obs import chrome_trace, collecting, write_chrome_trace
from repro.obs.report import build_run_report
from repro.obs.traceexport import PAIR_PID, WORKER_PID
from repro.workloads import get


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
