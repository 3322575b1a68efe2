"""The tentpole acceptance criteria, as tests.

1. For every registered workload and every registered detector — the
   observed-order three and the predictive three — ``detect_races`` with
   no store, with a cold store and with a warm store gives reports that
   compare equal (full ``==``, evidence included).  The three calls are
   separate executions (the warm one a replay only): location uids are
   numbered per execution, so the same seed gives the same report however
   Phase 1 runs.
2. A warm ``TraceStore`` answers a repeated ``detect_races`` with zero
   program executions.
"""

import pytest

from repro.core import detect_races
from repro.detectors import make_detector
from repro.runtime.interpreter import Execution
from repro.trace import TraceReader, TraceStore, detect_key, replay_events
from repro.workloads import all_workloads, figure1, get

DETECTORS = ("hybrid", "happens-before", "lockset", "shb", "wcp")

#: enough steps for every workload to show races, small enough to be quick.
STEP_CAP = 20_000


def _capped(spec):
    return min(spec.max_steps, STEP_CAP)


@pytest.mark.parametrize(
    "workload", [spec.name for spec in all_workloads()]
)
def test_offline_reports_identical_to_live(workload, tmp_path):
    spec = get(workload)
    phase1 = dict(detector=DETECTORS, seeds=(0,), max_steps=_capped(spec))
    live = detect_races(spec.build(), **phase1)
    cold = detect_races(spec.build(), trace_dir=tmp_path, **phase1)
    warm = detect_races(spec.build(), trace_dir=tmp_path, **phase1)
    for name in DETECTORS:
        assert cold[name] == live[name], f"{workload}/{name}: cold != live"
        assert warm[name] == live[name], f"{workload}/{name}: warm != live"


def test_replay_events_drives_full_observer_lifecycle(tmp_path):
    store = TraceStore(tmp_path)
    key = detect_key("figure1", 0, max_steps=10_000)
    path = store.ensure(key, figure1.build())
    detector = make_detector("hybrid")
    with TraceReader(path) as reader:
        (driven,) = replay_events(reader, [detector], program=reader.header.program)
    assert driven is detector
    assert detector.report.program == "figure1"
    assert len(detector.report) == 1


class TestWarmCacheSkipsExecution:
    SEEDS = (0, 1)

    def _detect(self, trace_dir, detector="hybrid"):
        spec = get("figure1")
        return detect_races(
            spec.build(),
            detector=detector,
            seeds=self.SEEDS,
            max_steps=_capped(spec),
            trace_dir=trace_dir,
        )

    def test_zero_executions_on_warm_store(self, tmp_path, monkeypatch):
        cold = self._detect(tmp_path)

        def bomb(self, scheduler):
            raise AssertionError("a warm cache must not execute the program")

        monkeypatch.setattr(Execution, "run", bomb)
        warm = self._detect(tmp_path)
        assert warm == cold  # bit-identical: both sides replay the same traces

    def test_added_detectors_reuse_recorded_traces(self, tmp_path, monkeypatch):
        self._detect(tmp_path)
        monkeypatch.setattr(
            Execution,
            "run",
            lambda self, scheduler: pytest.fail("unexpected execution"),
        )
        reports = self._detect(tmp_path, detector=DETECTORS)
        assert set(reports) == set(DETECTORS)
        assert len(reports["hybrid"]) == 1

    def test_swapped_store_class_sees_every_store(self, tmp_path, monkeypatch):
        # A caller that swaps repro.trace.TraceStore (as the benchmark's
        # warm-pass check does) must see every store a detect call opens.
        import repro.trace

        opened = []

        class Watched(repro.trace.TraceStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(repro.trace, "TraceStore", Watched)
        self._detect(tmp_path)
        assert len(opened) == len(self.SEEDS)
        assert sum(store.stats.executions for store in opened) == len(self.SEEDS)
        opened.clear()
        self._detect(tmp_path)
        assert len(opened) == len(self.SEEDS)
        assert sum(store.stats.executions for store in opened) == 0

    def test_store_stats_confirm_cache_hits(self, tmp_path):
        self._detect(tmp_path)
        store = TraceStore(tmp_path)
        for seed in self.SEEDS:
            key = detect_key("figure1", seed, max_steps=_capped(get("figure1")))
            assert store.get(key) is not None
        assert store.stats.executions == 0


class TestDetectRacesTraceDir:
    def test_matches_classic_path_on_pairs(self, tmp_path):
        spec = get("figure1")
        classic = detect_races(
            spec.build(), seeds=(0, 1, 2), max_steps=_capped(spec)
        )
        traced = detect_races(
            spec.build(), seeds=(0, 1, 2), max_steps=_capped(spec),
            trace_dir=tmp_path,
        )
        assert traced == classic

    def test_parallel_workers_record_for_the_parent(self, tmp_path):
        """Pool workers fill the store the parent reads, one entry a seed."""
        spec = get("figure1")
        parallel = detect_races(
            spec.build(),
            seeds=(0, 1, 2),
            max_steps=_capped(spec),
            trace_dir=tmp_path / "par",
            jobs=2,
        )
        serial = detect_races(
            spec.build(),
            seeds=(0, 1, 2),
            max_steps=_capped(spec),
            trace_dir=tmp_path / "ser",
        )
        assert parallel.pairs == serial.pairs
        assert len(list((tmp_path / "par").glob("*.jsonl"))) == 3

    def test_multi_detector_single_execution_per_seed(self, tmp_path):
        """Without trace_dir, a detector list still means one run per seed."""
        spec = get("figure1")
        executions = 0
        original = Execution.run

        def counting(self, scheduler):
            nonlocal executions
            executions += 1
            return original(self, scheduler)

        try:
            Execution.run = counting
            reports = detect_races(
                spec.build(),
                detector=DETECTORS,
                seeds=(0, 1),
                max_steps=_capped(spec),
            )
        finally:
            Execution.run = original
        assert executions == 2  # one per seed, not one per (seed, detector)
        assert set(reports) == set(DETECTORS)
        single = detect_races(
            spec.build(), seeds=(0, 1), max_steps=_capped(spec)
        )
        assert reports["hybrid"].pairs == single.pairs
