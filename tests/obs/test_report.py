"""Run reports: schema, validation, renderers, checkpoint merge."""

import json

from repro.obs.report import (
    REPORT_KIND,
    REPORT_VERSION,
    REQUIRED_COUNTERS,
    build_run_report,
    environment_metadata,
    load_run_report,
    render_stats_table,
    snapshot_from_report,
    validate_run_report,
    write_run_report,
)
from repro.obs.telemetry import Telemetry


def _snapshot(*seeds):
    """A snapshot with every aggregate kind plus one trial event per seed."""
    telemetry = Telemetry()
    telemetry.inc("fuzz.trials", 7)
    telemetry.inc("interp.steps", 100)
    telemetry.gauge_max("fuzz.postponed_high_water", 2)
    telemetry.observe("interp.steps_per_execution", 50)
    telemetry.observe_span("phase2.fuzz", 0.5)
    for seed in seeds or (0,):
        telemetry.emit("trial", ("figure1", seed), {"created": 1})
    return telemetry.snapshot()


class TestBuild:
    def test_report_shape(self):
        report = build_run_report(_snapshot(), command="fuzz", workload="figure1")
        assert report["kind"] == REPORT_KIND
        assert report["version"] == REPORT_VERSION
        assert report["command"] == "fuzz"
        assert report["workload"] == "figure1"
        assert report["counters"]["fuzz.trials"] == 7
        assert report["env"]["python"]

    def test_required_counters_zero_filled(self):
        report = build_run_report(_snapshot(), command="fuzz")
        for key in REQUIRED_COUNTERS:
            assert key in report["counters"]
        assert report["counters"]["supervisor.retries"] == 0

    def test_environment_metadata_keys(self):
        env = environment_metadata()
        for key in ("python", "implementation", "platform", "machine", "cpu_count"):
            assert key in env

    def test_extra_payload(self):
        report = build_run_report(_snapshot(), command="fuzz", extra={"note": "x"})
        assert report["extra"] == {"note": "x"}

    def test_report_is_json_serializable(self):
        report = build_run_report(_snapshot(), command="fuzz")
        json.dumps(report)


class TestValidate:
    def test_valid_report_passes(self):
        report = build_run_report(_snapshot(), command="fuzz")
        assert validate_run_report(report) == []

    def test_rejects_non_object(self):
        assert validate_run_report([1, 2]) != []
        assert validate_run_report("x") != []

    def test_rejects_wrong_kind_and_version(self):
        report = build_run_report(_snapshot(), command="fuzz")
        bad = dict(report, kind="something-else")
        assert any("kind" in e for e in validate_run_report(bad))
        # Only the current layout is read: older and newer versions fail
        # with the same single error.
        for version in (1, 2, REPORT_VERSION + 1, "3", None):
            errors = validate_run_report(dict(report, version=version))
            assert errors == [
                f"version must be {REPORT_VERSION}, got {version!r} "
                f"(reports of other versions are not read)"
            ]

    def test_rejects_missing_required_counter(self):
        report = build_run_report(_snapshot(), command="fuzz")
        counters = dict(report["counters"])
        del counters["fuzz.trials"]
        errors = validate_run_report(dict(report, counters=counters))
        assert any("fuzz.trials" in e for e in errors)

    def test_rejects_negative_counter(self):
        report = build_run_report(_snapshot(), command="fuzz")
        counters = dict(report["counters"], **{"fuzz.trials": -1})
        errors = validate_run_report(dict(report, counters=counters))
        assert any("non-negative" in e for e in errors)

    def test_v2_requires_schedule_counters(self):
        report = build_run_report(_snapshot(), command="fuzz")
        assert report["counters"]["schedule.rounds"] == 0
        counters = dict(report["counters"])
        del counters["schedule.rounds"]
        errors = validate_run_report(dict(report, counters=counters))
        assert any("schedule.rounds" in e for e in errors)

    def test_v3_report_with_timeline_section_passes(self):
        # The name predates v4.
        report = build_run_report(_snapshot(), command="fuzz")
        assert report["version"] == REPORT_VERSION == 4
        assert report["timeline"]["events"]
        assert validate_run_report(report) == []

    def test_timeline_on_old_version_rejected(self):
        report = build_run_report(_snapshot(), command="fuzz")
        for old in (2, 3):
            errors = validate_run_report(dict(report, version=old))
            assert any("version must be 4" in e for e in errors)

    def test_missing_timeline_section_rejected(self):
        report = build_run_report(_snapshot(), command="fuzz")
        del report["timeline"]
        assert validate_run_report(report) == ["timeline section is missing"]

    def test_malformed_timeline_section_rejected(self):
        report = build_run_report(_snapshot(), command="fuzz")
        assert validate_run_report(dict(report, timeline=[1, 2])) != []
        bad_events = {"version": 1, "budget": 8, "dropped": 0, "events": [["k"]]}
        assert validate_run_report(dict(report, timeline=bad_events)) != []

    def test_rejects_inconsistent_histogram(self):
        report = build_run_report(_snapshot(), command="fuzz")
        h = dict(report["histograms"]["interp.steps_per_execution"])
        h["count"] = h["count"] + 5
        errors = validate_run_report(
            dict(report, histograms={"interp.steps_per_execution": h})
        )
        assert any("sum" in e for e in errors)


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        written = write_run_report(
            path, _snapshot(), command="fuzz", workload="figure1"
        )
        loaded = load_run_report(path)
        assert loaded == written
        assert validate_run_report(loaded) == []
        assert snapshot_from_report(loaded).counters["fuzz.trials"] == 7

    def test_overwrite_by_default(self, tmp_path):
        path = tmp_path / "report.json"
        write_run_report(path, _snapshot(), command="fuzz")
        write_run_report(path, _snapshot(), command="fuzz")
        assert load_run_report(path)["counters"]["fuzz.trials"] == 7

    def test_merge_existing_accumulates(self, tmp_path):
        path = tmp_path / "report.json"
        write_run_report(path, _snapshot(), command="fuzz")
        write_run_report(path, _snapshot(), command="fuzz", merge_existing=True)
        report = load_run_report(path)
        assert report["counters"]["fuzz.trials"] == 14
        assert report["counters"]["interp.steps"] == 200
        # gauges take the max, not the sum
        assert report["gauges"]["fuzz.postponed_high_water"] == 2
        assert report["spans"]["phase2.fuzz"]["count"] == 2
        assert validate_run_report(report) == []

    def test_merge_existing_ignores_missing_prior(self, tmp_path):
        path = tmp_path / "report.json"
        write_run_report(path, _snapshot(), command="fuzz", merge_existing=True)
        assert load_run_report(path)["counters"]["fuzz.trials"] == 7

    def test_merge_existing_ignores_invalid_prior(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        write_run_report(path, _snapshot(), command="fuzz", merge_existing=True)
        assert load_run_report(path)["counters"]["fuzz.trials"] == 7

    def test_merge_existing_unions_timeline_sections(self, tmp_path):
        # Checkpoint-resume: two partial writes must land on the same
        # section as one uninterrupted write over all events.
        path = tmp_path / "report.json"
        write_run_report(path, _snapshot(0, 1), command="fuzz")
        write_run_report(
            path, _snapshot(1, 2), command="fuzz", merge_existing=True
        )
        merged = load_run_report(path)["timeline"]
        assert merged["events"] == build_run_report(
            _snapshot(0, 1, 2), command="fuzz"
        )["timeline"]["events"]
        assert validate_run_report(load_run_report(path)) == []

    def test_merge_existing_keeps_prior_timeline_when_not_recording(
        self, tmp_path
    ):
        # A resumed run that emitted no events keeps the prior section.
        path = tmp_path / "report.json"
        write_run_report(path, _snapshot(0), command="fuzz")
        write_run_report(
            path, Telemetry().snapshot(), command="fuzz", merge_existing=True
        )
        assert len(load_run_report(path)["timeline"]["events"]) == 1


class TestRender:
    def test_stats_table(self):
        report = build_run_report(_snapshot(), command="fuzz", workload="figure1")
        text = render_stats_table(report)
        assert "command: fuzz" in text
        assert "workload: figure1" in text
        assert "fuzz.trials" in text
        assert "phase2.fuzz" in text
        assert "counters" in text and "spans (seconds)" in text
