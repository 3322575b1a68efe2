"""CLI surface: --metrics-out, --progress, the report readers, trace-store line."""

import json

from repro.cli import main
from repro.obs import validate_run_report


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestMetricsOut:
    def test_fuzz_writes_valid_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["fuzz", "figure1", "--trials", "4", "--metrics-out", str(out)]
        )
        capsys.readouterr()
        assert code == 1  # figure1's race confirms
        report = _load(out)
        assert validate_run_report(report) == []
        assert report["command"] == "fuzz"
        assert report["workload"] == "figure1"
        assert report["counters"]["fuzz.trials"] > 0
        assert report["counters"]["fuzz.coin_flips"] > 0
        assert report["counters"]["interp.executions"] > 0
        assert any(name.startswith("pair.") for name in report["spans"])
        assert "phase2.fuzz" in report["spans"]

    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "sor", "--metrics-out", str(out)])
        capsys.readouterr()
        report = _load(out)
        assert validate_run_report(report) == []
        assert report["command"] == "run"
        assert report["counters"]["interp.executions"] == 1

    def test_detect_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert (
            main(["detect", "figure1", "--seeds", "2", "--metrics-out", str(out)])
            == 0
        )
        capsys.readouterr()
        report = _load(out)
        assert report["command"] == "detect"
        assert report["counters"]["interp.executions"] == 2

    def test_checkpoint_resume_merges_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        journal = tmp_path / "journal.jsonl"
        argv = [
            "fuzz", "figure1", "--trials", "4", "--jobs", "2",
            "--checkpoint", str(journal), "--metrics-out", str(out),
        ]
        main(argv)
        first = _load(out)
        main(argv)  # resumed: all chunks cached
        capsys.readouterr()
        second = _load(out)
        # trials accumulate (no new ones ran), cache hits are recorded
        assert second["counters"]["fuzz.trials"] == first["counters"]["fuzz.trials"]
        assert second["counters"]["supervisor.cached"] > 0
        assert validate_run_report(second) == []


class TestProgress:
    def test_fuzz_progress_lines(self, tmp_path, capsys):
        main(["fuzz", "figure1", "--trials", "4", "--progress"])
        err = capsys.readouterr().err
        assert "[fuzz]" in err
        assert "2/2 (100%)" in err


class TestDetectTraceStoreLine:
    def test_cold_then_warm_store(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        main(["detect", "figure1", "--seeds", "2", "--trace-dir", str(traces)])
        cold = capsys.readouterr().err
        assert "trace store: 0 hit(s), 2 miss(es), 2 recorded execution(s)" in cold
        main(["detect", "figure1", "--seeds", "2", "--trace-dir", str(traces)])
        warm = capsys.readouterr().err
        assert "trace store: 2 hit(s), 0 miss(es), 0 recorded execution(s)" in warm


class TestStats:
    def _report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["fuzz", "figure1", "--trials", "4", "--metrics-out", str(out)])
        capsys.readouterr()
        return out

    def test_stats_renders_tables(self, tmp_path, capsys):
        out = self._report(tmp_path, capsys)
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "command: fuzz" in text
        assert "fuzz.trials" in text
        assert "spans (seconds)" in text

    def test_stats_shows_funnel_and_pairs(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main([
            "fuzz", "figure1", "--trials", "8", "--schedule", "adaptive",
            "--metrics-out", str(out),
        ])
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        funnel = lines.index("detector funnel")
        assert lines[funnel + 1].split()[0] == "workload"
        assert lines[funnel + 3].split() == ["figure1", "2", "0", "0", "2", "1"]
        pairs = lines.index("pairs")
        assert lines[pairs + 1].split() == [
            "workload", "pair", "grade", "trials", "created", "stopped",
        ]
        assert [line.split() for line in lines[pairs + 3:]] == [
            ["figure1", "1|10", "-", "8", "0", "-"],
            ["figure1", "5|7", "-", "8", "8", "confirmed"],
        ]

    def test_stats_rejects_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_stats_rejects_invalid_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "other"}')
        assert main(["stats", str(bad)]) == 2
        assert "invalid run report" in capsys.readouterr().err


class TestReportReaders:
    """``stats`` and ``trace-export`` read the one run report."""

    def _report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main([
            "fuzz", "figure1", "--trials", "8", "--schedule", "adaptive",
            "--metrics-out", str(out),
        ])
        capsys.readouterr()
        return out

    def test_trace_export_lays_out_timed_slices(self, tmp_path, capsys):
        report = self._report(tmp_path, capsys)
        trace = tmp_path / "trace.json"
        assert main(["trace-export", str(report), "--out", str(trace)]) == 0
        events = _load(trace)["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ts"] > 0 for e in events if e["ph"] != "M")

    def test_readers_reject_a_non_numeric_span_field(self, tmp_path, capsys):
        # A span field of the wrong type is a usage error, not a crash.
        out = self._report(tmp_path, capsys)
        report = _load(out)
        name = next(iter(report["spans"]))
        report["spans"][name]["count"] = "3"
        bad = tmp_path / "bad-span.json"
        bad.write_text(json.dumps(report))
        for command in ("stats", "trace-export"):
            assert main([command, str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"invalid run report: span {name!r}:")

    def test_readers_reject_a_v5_report(self, tmp_path, capsys):
        out = self._report(tmp_path, capsys)
        bad = tmp_path / "v5.json"
        bad.write_text(json.dumps(dict(_load(out), version=5)))
        for command in ("stats", "trace-export"):
            assert main([command, str(bad)]) == 2
            assert "version must be 6, got 5" in capsys.readouterr().err

    def test_readers_reject_an_invalid_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "other"}')
        for command in ("stats", "trace-export"):
            assert main([command, str(bad)]) == 2
            assert "invalid run report" in capsys.readouterr().err
