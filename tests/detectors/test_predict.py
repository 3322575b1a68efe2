"""The predictive Phase-1 subsystem: shb and wcp.

The acceptance criteria of the subsystem, as tests:

* superset hierarchy — ``pairs(hybrid) ⊆ pairs(shb) ⊆ pairs(wcp)`` on
  stored traces, strictly on several workloads;
* every extra pair is graded (``schedulable``/speculative) and falls in a
  documented false-positive class that Phase 2 weeds;
* repeated offline analysis of one trace is byte-identical;
* the detectors register in ``make_detector`` and the new
  ``available_detectors()`` lists them.
"""

import pytest

from repro.core import RandomScheduler, detect_races, fuzz_races
from repro.detectors import (
    ShbRaceDetector,
    WcpRaceDetector,
    available_detectors,
    make_detector,
    union_reports,
)
from repro.detectors.edges import (
    COMPLETION,
    SPAWN,
    WAKEUP,
    EdgeClassifier,
)
from repro.obs import collecting
from repro.runtime import (
    Execution,
    Lock,
    Program,
    SharedVar,
    join_all,
    ops,
    spawn_all,
)
from repro.runtime.events import (
    AcquireEvent,
    RcvEvent,
    SndEvent,
    ThreadStartEvent,
)
from repro.trace import TraceStore, analyze_trace, detect_key
from repro.workloads import figure1, get

STEP_CAP = 20_000


def run_detector(factory, detector, seeds=range(5)):
    merged = None
    for seed in seeds:
        Execution(Program(factory), seed=seed, observers=[detector]).run(
            RandomScheduler(preemption="every")
        )
        if merged is None:
            merged = detector.report
        else:
            merged.merge(detector.report)
    return merged


def detect_all(workload, names, seeds=(0, 1, 2)):
    spec = get(workload)
    return detect_races(
        spec.build(),
        detector=list(names),
        seeds=seeds,
        max_steps=min(spec.max_steps, STEP_CAP),
    )


# --------------------------------------------------------------------- #
# Edge classification (stream context recovers the edge kinds).
# --------------------------------------------------------------------- #


class TestEdgeClassifier:
    def test_spawn_pattern(self):
        edges = EdgeClassifier()
        assert edges.note(ThreadStartEvent(step=3, tid=0, child=1, name="t1")) is None
        assert edges.note(SndEvent(step=3, tid=0, msg_id=7)) is None
        assert edges.note(RcvEvent(step=3, tid=1, msg_id=7)) == SPAWN

    def test_wakeup_pattern(self):
        edges = EdgeClassifier()
        assert edges.note(AcquireEvent(step=9, tid=2, lock=1)) is None
        assert edges.note(RcvEvent(step=9, tid=2, msg_id=4)) == WAKEUP

    def test_standalone_rcv_is_completion(self):
        edges = EdgeClassifier()
        assert edges.note(RcvEvent(step=5, tid=0, msg_id=2)) == COMPLETION

    def test_spawn_needs_matching_step_and_msg(self):
        edges = EdgeClassifier()
        edges.note(ThreadStartEvent(step=3, tid=0, child=1, name="t1"))
        edges.note(SndEvent(step=3, tid=0, msg_id=7))
        # A join of the spawned thread later reuses no spawn context.
        assert edges.note(RcvEvent(step=8, tid=0, msg_id=9)) == COMPLETION

    def test_reset_clears_context(self):
        edges = EdgeClassifier()
        edges.note(AcquireEvent(step=9, tid=2, lock=1))
        edges.reset()
        assert edges.note(RcvEvent(step=9, tid=2, msg_id=4)) == COMPLETION


# --------------------------------------------------------------------- #
# What prediction adds over observation, on hand-built programs.
# --------------------------------------------------------------------- #


class TestPredictionBeyondObservation:
    def test_join_protected_pair_predicted_and_graded(self):
        """The hybrid's join edge hides the post-join conflict; shb keeps
        it as a speculative candidate (the join-protected FP class)."""

        def factory():
            x = SharedVar("x", 0)

            def child():
                yield x.write(1)

            def main():
                handle = yield ops.spawn(child)
                yield ops.join(handle)
                yield x.write(2)

            return main()

        from repro.detectors import HybridRaceDetector

        assert len(run_detector(factory, HybridRaceDetector())) == 0
        report = run_detector(factory, ShbRaceDetector())
        assert len(report) == 1
        (evidence,) = report.evidence.values()
        # The join really does order the accesses: graded speculative.
        assert evidence.schedulable is False

    def test_spawn_edge_still_suppresses(self):
        """A child can never precede its creation in any schedule, so the
        spawn edge stays in the weak order and keeps suppressing."""

        def factory():
            x = SharedVar("x", 0)

            def child():
                yield x.write(2)

            def main():
                yield x.write(1)
                handle = yield ops.spawn(child)
                yield ops.join(handle)

            return main()

        assert len(run_detector(factory, ShbRaceDetector())) == 0
        assert len(run_detector(factory, WcpRaceDetector())) == 0

    def test_wakeup_ordered_pair_predicted(self):
        """The notify→wait pairing is a schedule artifact: shb reports the
        pair the hybrid's wakeup edge suppresses (the wakeup-ordered FP
        class)."""

        def factory():
            x = SharedVar("x", 0)
            lock = Lock("L")
            ready = SharedVar("ready", 0)

            def waiter():
                yield lock.acquire()
                while (yield ready.read()) == 0:
                    yield lock.wait()
                yield lock.release()
                yield x.write(2)

            def notifier():
                yield ops.sleep(50)  # guarantee the waiter parks first
                yield x.write(1)
                yield lock.acquire()
                yield ready.write(1)
                yield lock.notify()
                yield lock.release()

            def main():
                handles = yield from spawn_all([waiter, notifier])
                yield from join_all(handles)

            return main()

        from repro.detectors import HybridRaceDetector

        assert len(run_detector(factory, HybridRaceDetector(), range(10))) == 0
        report = run_detector(factory, ShbRaceDetector(), range(10))
        assert any(
            "x" in info.location.describe()
            for info in report.evidence.values()
        )

    def test_inconsistently_guarded_pair_is_wcp_only(self):
        """t1 and t2 access x under L, t3 writes it bare.  The blanket
        rule exonerates (t1, t2); consistent-guard reasoning sees the
        broken discipline and keeps it as a candidate."""

        def factory():
            x = SharedVar("x", 0)
            lock = Lock("L")

            def locked_writer():
                yield lock.acquire()
                yield x.write(1, label="sync-write")
                yield lock.release()

            def locked_reader():
                yield lock.acquire()
                yield x.read(label="sync-read")
                yield lock.release()

            def bare_writer():
                yield x.write(2, label="bare-write")

            def main():
                handles = yield from spawn_all(
                    [locked_writer, locked_reader, bare_writer]
                )
                yield from join_all(handles)

            return main()

        shb = run_detector(factory, ShbRaceDetector(), range(10))
        wcp = run_detector(factory, WcpRaceDetector(), range(10))
        shb_pairs = set(shb.pairs)
        wcp_pairs = set(wcp.pairs)
        assert shb_pairs <= wcp_pairs
        extra = {
            frozenset((p.first.label, p.second.label))
            for p in wcp_pairs - shb_pairs
        }
        assert frozenset(("sync-write", "sync-read")) in extra
        detector = WcpRaceDetector()
        Execution(Program(factory), seed=0, observers=[detector]).run(
            RandomScheduler(preemption="every")
        )
        assert detector.guard_breaks >= 1

    def test_consistent_discipline_keeps_suppressing_in_wcp(self):
        def factory():
            x = SharedVar("x", 0)
            lock = Lock("L")

            def writer():
                yield lock.acquire()
                yield x.write(1)
                yield lock.release()

            def main():
                handles = yield from spawn_all([writer, writer])
                yield from join_all(handles)

            return main()

        assert len(run_detector(factory, WcpRaceDetector(), range(10))) == 0


class TestSchedulableGrading:
    def test_figure1_real_pair_schedulable_false_pair_speculative(self):
        """The SDP clocks recover exactly the paper's Figure-1 story: the
        z race is schedulable in some reordering, while the lock-ordered
        flag handoff forces stmt1 before stmt10 in every one."""
        report = run_detector(
            figure1.build().factory, ShbRaceDetector(), range(10)
        )
        assert report.evidence[figure1.REAL_PAIR].schedulable is True
        assert report.evidence[figure1.FALSE_PAIR].schedulable is False

    def test_counter_increment_pattern_stays_reported(self):
        """Read-modify-write races: the write→read edge must grade, not
        suppress — an SHB order folded into suppression would hide the
        second increment's races with the first."""

        def factory():
            x = SharedVar("x", 0)

            def bump():
                value = yield x.read(label="load")
                yield x.write(value + 1, label="store")

            def main():
                handles = yield from spawn_all([bump, bump])
                yield from join_all(handles)

            return main()

        from repro.detectors import HybridRaceDetector

        hybrid = run_detector(factory, HybridRaceDetector(), range(10))
        shb = run_detector(factory, ShbRaceDetector(), range(10))
        assert set(hybrid.pairs) <= set(shb.pairs)
        labels = {
            frozenset((p.first.label, p.second.label)) for p in shb.pairs
        }
        assert frozenset(("load", "store")) in labels
        assert frozenset(("store",)) in labels  # store/store


# --------------------------------------------------------------------- #
# The superset hierarchy on real workloads, from stored traces.
# --------------------------------------------------------------------- #


class TestSupersetHierarchy:
    WORKLOADS = ("sor", "philosophers", "raytracer", "figure1", "moldyn")
    #: workloads where prediction strictly exceeds observation.
    STRICT_SHB = ("sor", "philosophers", "raytracer")

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_hybrid_subset_shb_subset_wcp(self, workload):
        reports = detect_all(workload, ("hybrid", "shb", "wcp"))
        hybrid = set(reports["hybrid"].pairs)
        shb = set(reports["shb"].pairs)
        wcp = set(reports["wcp"].pairs)
        assert hybrid <= shb, f"{workload}: shb lost a hybrid pair"
        assert shb <= wcp, f"{workload}: wcp lost an shb pair"

    @pytest.mark.parametrize("workload", STRICT_SHB)
    def test_prediction_strictly_exceeds_observation(self, workload):
        reports = detect_all(workload, ("hybrid", "shb"))
        hybrid = set(reports["hybrid"].pairs)
        shb = set(reports["shb"].pairs)
        assert hybrid < shb, f"{workload}: expected a strict superset"
        # Every extra pair carries a confidence grade.
        for pair in shb - hybrid:
            assert reports["shb"].evidence[pair].schedulable is not None

    def test_sor_extra_pairs_are_join_protected_and_weeded_by_phase2(self):
        """sor's four extra candidates are main's post-join boundary reads
        — the documented join-protected class.  Phase 2 never creates
        them, which is exactly the division of labour the paper sets up.
        """
        spec = get("sor")
        reports = detect_all("sor", ("hybrid", "shb"))
        extra = sorted(
            set(reports["shb"].pairs) - set(reports["hybrid"].pairs),
            key=str,
        )
        assert len(extra) == 4
        for pair in extra:
            evidence = reports["shb"].evidence[pair]
            assert evidence.schedulable is False  # graded speculative
            assert 0 in evidence.tids  # one side is main (tid 0)
        verdicts = fuzz_races(
            spec.build(),
            extra,
            trials=3,
            max_steps=min(spec.max_steps, STEP_CAP),
        )
        assert all(v.times_created == 0 for v in verdicts.values())


# --------------------------------------------------------------------- #
# Offline == live, and determinism of repeated analysis.
# --------------------------------------------------------------------- #


class TestOfflineDeterminism:
    def test_repeated_analysis_is_byte_identical(self, tmp_path):
        spec = get("sor")
        store = TraceStore(tmp_path)
        key = detect_key(spec.name, 0, max_steps=STEP_CAP)
        path = store.ensure(key, spec.build())
        names = ("shb", "wcp")
        first = analyze_trace(path, names)
        second = analyze_trace(path, names)
        for name in names:
            assert first[name] == second[name]
            assert str(first[name]) == str(second[name])

    def test_offline_equals_live_for_predictive_detectors(self, tmp_path):
        spec = get("philosophers")
        store = TraceStore(tmp_path)
        names = ("shb", "wcp")
        live = [make_detector(name) for name in names]
        Execution(spec.build(), seed=1, observers=live, max_steps=STEP_CAP).run(
            RandomScheduler(preemption="every")
        )
        key = detect_key(spec.name, 1, max_steps=STEP_CAP)
        path = store.ensure(key, spec.build())
        offline = analyze_trace(path, names)
        for observer, name in zip(live, names):
            assert observer.report == offline[name]


# --------------------------------------------------------------------- #
# Registry, options, and the report union.
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_available_detectors_lists_all_five(self):
        assert available_detectors() == [
            "happens-before",
            "hybrid",
            "lockset",
            "shb",
            "wcp",
        ]

    def test_make_detector_builds_predictive_classes(self):
        assert isinstance(make_detector("shb"), ShbRaceDetector)
        assert isinstance(make_detector("wcp"), WcpRaceDetector)

    def test_unknown_name_raises_with_valid_names(self):
        with pytest.raises(KeyError, match="shb"):
            make_detector("nope")


class TestUnionReports:
    def test_union_merges_pairs_and_grades(self):
        reports = detect_all("figure1", ("hybrid", "shb"), seeds=range(10))
        union = union_reports(reports)
        assert union.detector == "hybrid+shb"
        assert set(union.pairs) == set(reports["hybrid"].pairs) | set(
            reports["shb"].pairs
        )
        # The graded evidence survives the union.
        assert union.evidence[figure1.REAL_PAIR].schedulable is True

    def test_union_of_nothing_is_an_error(self):
        with pytest.raises(ValueError, match="at least one report"):
            union_reports([])

    def test_union_accepts_iterables_and_overrides(self):
        reports = detect_all("figure1", ("hybrid", "shb"))
        union = union_reports(
            list(reports.values()), detector="phase1", program="p"
        )
        assert union.detector == "phase1"
        assert union.program == "p"


# --------------------------------------------------------------------- #
# Observability: predict.* counters and per-detector spans.
# --------------------------------------------------------------------- #


class TestObservability:
    def test_counters_and_spans_under_collecting(self, tmp_path):
        spec = get("sor")
        with collecting() as registry:
            detect_races(
                spec.build(),
                detector=["shb", "wcp", "lockset"],
                seeds=(0,),
                max_steps=STEP_CAP,
                trace_dir=tmp_path,
            )
            snapshot = registry.snapshot()
        counters = snapshot.counters
        assert counters.get("predict.shb.pairs", 0) > 0
        assert counters.get("predict.wcp.pairs", 0) > 0
        # sor joins its workers: the softened edges are counted.
        assert counters.get("predict.shb.soft_edges", 0) > 0
        assert "predict.wcp.guard_breaks" in counters
        # shb and wcp share one walk of the history kernel; lockset is
        # its own observer.
        assert "predict.analyze.history" in snapshot.spans
        assert "predict.analyze.lockset" in snapshot.spans
        assert "predict.analyze.shb" not in snapshot.spans

    def test_no_registry_no_crash(self):
        report = run_detector(
            figure1.build().factory, ShbRaceDetector(), seeds=(0,)
        )
        assert len(report) >= 1
