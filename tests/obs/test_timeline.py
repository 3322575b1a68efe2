"""Campaign timeline: identity, merge laws, sections, serial==parallel."""

import os

import pytest

from repro.core.driver import detect_races, fuzz_races, race_directed_test
from repro.obs.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    TimelineEvent,
    collecting,
    maybe_telemetry,
    recording_timeline,
)
from repro.obs.report import build_run_report, snapshot_from_report
from repro.obs.timeline import (
    DETERMINISTIC_KINDS,
    deterministic_section,
    pair_label,
    pair_trajectories,
    timeline_section,
    validate_timeline_section,
)
from repro.workloads import figure1, get


def _event(kind="trial", key=("w", 1), attrs=None, **display):
    return TimelineEvent(
        kind=kind,
        key=tuple(key),
        attrs=tuple(sorted((attrs or {"n": 1}).items())),
        **display,
    )


def _recorder_with(*events):
    recorder = Telemetry()
    for kind, key, attrs in events:
        recorder.emit(kind, key, attrs)
    return recorder


class TestOffByDefault:
    def test_maybe_timeline_is_none_outside_recording(self):
        assert maybe_telemetry() is None

    def test_disabled_recorder_ignores_emit(self):
        # A trial run with telemetry off emits into nothing: the scope
        # opened afterwards holds no events.
        fuzz_races(
            get("figure1").build(), [figure1.REAL_PAIR], trials=1,
            max_steps=20_000,
        )
        with collecting() as telemetry:
            pass
        assert telemetry.snapshot().events == ()

    def test_recording_timeline_activates_and_restores(self):
        # The old switch name is an alias of collecting().
        with recording_timeline() as recorder:
            assert maybe_telemetry() is recorder
            recorder.emit("trial", ("w", 1), {"n": 1})
        assert maybe_telemetry() is None
        assert len(recorder.snapshot().events) == 1


class TestIdentity:
    def test_display_fields_excluded_from_identity(self):
        bare = _event(wall_s=0.0, dur_s=0.0, track="")
        dressed = _event(wall_s=123.0, dur_s=4.5, track="p99")
        assert bare.identity == dressed.identity

    def test_attrs_order_is_canonical(self):
        recorder = Telemetry()
        recorder.emit("trial", ("w", 1), {"b": 2, "a": 1})
        recorder.emit("trial", ("w", 1), {"a": 1, "b": 2})
        assert len(recorder.snapshot().events) == 1

    def test_distinct_keys_are_distinct_events(self):
        recorder = _recorder_with(
            ("trial", ("w", 1), {"n": 1}), ("trial", ("w", 2), {"n": 1})
        )
        assert len(recorder.snapshot().events) == 2


class TestMergeLaws:
    def _snapshots(self):
        a = _recorder_with(("trial", ("w", 1), {"n": 1})).snapshot()
        b = _recorder_with(
            ("trial", ("w", 1), {"n": 1}), ("trial", ("w", 2), {"n": 2})
        ).snapshot()
        c = _recorder_with(("chunk", ("p", 0), {"count": 5})).snapshot()
        return a, b, c

    def test_merge_dedups_by_identity(self):
        a, b, _ = self._snapshots()
        assert len(a.merged(b).events) == 2

    def test_merge_is_commutative(self):
        a, b, c = self._snapshots()
        for x, y in ((a, b), (a, c), (b, c)):
            assert [e.identity for e in x.merged(y).events] == [
                e.identity for e in y.merged(x).events
            ]

    def test_merge_is_associative(self):
        a, b, c = self._snapshots()
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        assert [e.identity for e in left.events] == [
            e.identity for e in right.events
        ]

    def test_any_fold_order_agrees(self):
        a, b, c = self._snapshots()
        orders = [(a, b, c), (c, a, b), (b, c, a)]
        folded = []
        for first, second, third in orders:
            folded.append(
                [e.identity for e in first.merged(second).merged(third).events]
            )
        assert folded[0] == folded[1] == folded[2]



class TestRingBudget:
    def test_budget_truncates_and_counts_dropped(self):
        recorder = Telemetry(budget=4)
        for index in range(10):
            recorder.emit("trial", ("w", index), {"n": index})
        snapshot = recorder.snapshot()
        assert len(snapshot.events) == 4
        assert snapshot.dropped == 6

    def test_truncation_keeps_smallest_identities(self):
        # Keeping the N smallest identities (not the N most recent) is
        # what makes truncation independent of arrival order.
        forward = Telemetry(budget=3)
        backward = Telemetry(budget=3)
        for index in range(8):
            forward.emit("trial", ("w", index), {})
        for index in reversed(range(8)):
            backward.emit("trial", ("w", index), {})
        assert [e.identity for e in forward.snapshot().events] == [
            e.identity for e in backward.snapshot().events
        ]

    def test_compaction_bounds_the_raw_list(self):
        recorder = Telemetry(budget=8)
        for index in range(1000):
            recorder.emit("trial", ("w", index % 4), {})
        assert len(recorder._events) <= 2 * recorder.budget + 1


class TestSerialization:
    def test_event_round_trip(self):
        event = _event(wall_s=5.0, dur_s=0.25, track="p7")
        assert TimelineEvent.from_jsonable(event.to_jsonable()) == event

    def test_snapshot_round_trip(self):
        snapshot = _recorder_with(
            ("trial", ("w", 1), {"n": 1}), ("chunk", ("p", 0), {"count": 2})
        ).snapshot()
        restored = TelemetrySnapshot.from_jsonable(snapshot.to_jsonable())
        assert restored.events == snapshot.events

    def test_section_events_rebuild_as_snapshot(self):
        snapshot = _recorder_with(("trial", ("w", 1), {"n": 1})).snapshot()
        section = timeline_section(snapshot)
        restored = TelemetrySnapshot.from_jsonable(section)
        assert restored.events == snapshot.events

    def test_report_keeps_every_event_with_display_fields(self):
        telemetry = Telemetry()
        telemetry.emit("chunk", ("a|b", 0), {"trials": 2}, wall_s=7.0, dur_s=0.5)
        telemetry.emit("store", ("w", 1, "hit"), {}, wall_s=8.0)
        telemetry.emit("health", (1, "degraded"), {"reason": "x"}, wall_s=9.0)
        telemetry.emit("task.retry", ("fuzz", 0, 1), {"kind": "crash"})
        telemetry.emit("task.quarantine", ("fuzz", 0), {"kind": "crash"})
        snapshot = telemetry.snapshot()
        restored = snapshot_from_report(build_run_report(snapshot, command="fuzz"))
        assert restored.events == snapshot.events
        assert {e.kind for e in restored.events} == {
            "chunk", "store", "health", "task.retry", "task.quarantine",
        }
        chunk = next(e for e in restored.events if e.kind == "chunk")
        assert (chunk.wall_s, chunk.dur_s, chunk.track) == (
            7.0, 0.5, f"p{os.getpid()}",
        )


class TestSection:
    def test_only_deterministic_kinds_enter_the_section(self):
        # ... of the deterministic projection; the report section keeps
        # every kind.
        recorder = _recorder_with(
            ("trial", ("w", 1), {"n": 1}),
            ("store", ("w", 1, "hit"), {}),
            ("health", (0, "degraded"), {"reason": "x"}),
            ("task.retry", ("fuzz", 0, 1), {"kind": "crash"}),
        )
        snapshot = recorder.snapshot()
        kinds = {entry[0] for entry in deterministic_section(snapshot)["events"]}
        assert kinds == {"trial"}
        assert kinds <= DETERMINISTIC_KINDS
        assert len(timeline_section(snapshot)["events"]) == 4

    def test_projection_strips_display_fields(self):
        telemetry = Telemetry()
        telemetry.emit("trial", ("w", 1), {"n": 1}, wall_s=3.0, dur_s=0.1)
        projection = deterministic_section(telemetry.snapshot())
        assert projection["events"] == [["trial", ["w", 1], {"n": 1}]]

    def test_section_validates(self):
        section = timeline_section(
            _recorder_with(("trial", ("w", 1), {"n": 1})).snapshot()
        )
        assert validate_timeline_section(section) == []

    def test_validation_rejects_bad_shapes(self):
        assert validate_timeline_section([]) != []
        assert validate_timeline_section({"version": 0}) != []
        assert validate_timeline_section(
            {"version": 1, "budget": 8, "dropped": 0, "events": [["k"]]}
        ) != []
        # A bare [kind, key, attrs] triple is not an event object.
        assert validate_timeline_section(
            {"version": 1, "budget": 8, "dropped": 0,
             "events": [["trial", ["w", 1], {}]]}
        ) != []
        assert validate_timeline_section(
            {"version": 1, "budget": 8, "dropped": 0,
             "events": [{"kind": "trial", "key": [], "attrs": {}, "track": 3}]}
        ) != []
        assert validate_timeline_section(
            {"version": 1, "budget": -1, "dropped": 0, "events": []}
        ) != []

    def test_section_merge_dedups(self):
        # Sections merge through their snapshots, by the one merge law.
        a = timeline_section(
            _recorder_with(("trial", ("w", 1), {"n": 1})).snapshot()
        )
        b = timeline_section(
            _recorder_with(
                ("trial", ("w", 1), {"n": 1}), ("trial", ("w", 2), {"n": 2})
            ).snapshot()
        )
        merged = TelemetrySnapshot.from_jsonable(a).merged(
            TelemetrySnapshot.from_jsonable(b)
        )
        assert len(timeline_section(merged)["events"]) == 2


class TestPairLabel:
    def test_pair_label_uses_sites(self):
        assert pair_label(figure1.REAL_PAIR) == (
            f"{figure1.REAL_PAIR.first.site}|{figure1.REAL_PAIR.second.site}"
        )


def _campaign_section(jobs, *, schedule=None, trials=6):
    program = get("figure1").build()
    with collecting() as recorder:
        report = detect_races(
            program, seeds=range(2), max_steps=20_000, jobs=jobs
        )
        fuzz_races(
            program,
            report.pairs,
            trials=trials,
            chunk_size=2,
            max_steps=20_000,
            schedule=schedule,
            jobs=jobs,
        )
    return deterministic_section(recorder.snapshot())


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("schedule", [None, "adaptive"])
    def test_serial_equals_jobs_2(self, schedule):
        assert _campaign_section(1, schedule=schedule) == _campaign_section(
            2, schedule=schedule
        )

    def test_full_pipeline_serial_equals_jobs_2(self):
        def section(jobs):
            with collecting() as recorder:
                race_directed_test(
                    get("figure1").build(),
                    phase1_seeds=range(2),
                    trials=6,
                    chunk_size=2,
                    max_steps=20_000,
                    schedule="adaptive",
                    jobs=jobs,
                )
            return deterministic_section(recorder.snapshot())

        assert section(1) == section(2)


class TestTrajectories:
    def test_adaptive_campaign_builds_trajectories(self):
        section = _campaign_section(1, schedule="adaptive")
        label = pair_label(figure1.REAL_PAIR)
        assert label in section["pairs"]
        info = section["pairs"][label]
        trajectory = info["trajectory"]
        assert trajectory[0][1:] == info["prior"]
        # alpha + beta grows by exactly the trials folded in so far.
        for cum_trials, alpha, beta in trajectory:
            assert alpha + beta == pytest.approx(
                sum(info["prior"]) + cum_trials
            )

    def test_fixed_campaign_falls_back_to_chunk_events(self):
        section = _campaign_section(1, schedule=None)
        info = section["pairs"][pair_label(figure1.REAL_PAIR)]
        assert info["trials"] == 6
        assert info["trajectory"][-1][0] == 6

    def test_trajectories_from_raw_events(self):
        events = (
            _event("pair.bind", (0,), {"pair": "a|b", "alpha": 1.0, "beta": 1.0}),
            _event("schedule.posterior", (0, 0), {"trials": 2, "created": 1}),
            _event("schedule.posterior", (0, 2), {"trials": 2, "created": 0}),
        )
        pairs = pair_trajectories(events)
        assert pairs["a|b"]["trajectory"] == [
            [0, 1.0, 1.0],
            [2, 2.0, 2.0],
            [4, 2.0, 4.0],
        ]


class TestWorkerShipping:
    def test_worker_events_carry_worker_tracks(self):
        # With a pool, chunk events are recorded in the worker process and
        # shipped home on the MeteredResult — their track names the worker
        # pid, which must differ from the parent's.
        with collecting() as recorder:
            fuzz_races(
                get("figure1").build(),
                [figure1.REAL_PAIR],
                trials=4,
                chunk_size=2,
                max_steps=20_000,
                jobs=2,
            )
        tracks = {
            e.track for e in recorder.snapshot().events if e.kind == "chunk"
        }
        assert tracks and f"p{os.getpid()}" not in tracks
