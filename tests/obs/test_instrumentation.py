"""Layer instrumentation: the counters each subsystem is expected to emit."""

import pytest

from repro.core import (
    RaceFuzzer,
    RandomScheduler,
    detect_races,
    fuzz_races,
    race_directed_test,
)
from repro.obs import collecting
from repro.runtime import Execution
from repro.trace import TraceStore, analyze_trace, detect_key
from repro.workloads import figure1, get


class TestInterpreterCounters:
    def test_execution_counters(self):
        with collecting() as registry:
            detect_races(figure1.build(), seeds=range(2), max_steps=20_000)
        snapshot = registry.snapshot()
        assert snapshot.counters["interp.executions"] == 2
        assert snapshot.counters["interp.steps"] > 0

    def test_steps_per_execution_mean_from_counters(self):
        # The mean steps per execution is interp.steps / interp.executions:
        # the counters carry each execution's exact step count.
        with collecting() as registry:
            executions = [
                Execution(figure1.build(), seed=seed) for seed in range(3)
            ]
            for execution in executions:
                execution.run(RandomScheduler())
        counters = registry.snapshot().counters
        assert counters["interp.executions"] == 3
        assert counters["interp.steps"] == sum(e.ops_executed for e in executions)

    def test_disabled_run_records_nothing(self):
        report = detect_races(figure1.build(), seeds=range(2), max_steps=20_000)
        assert report.pairs  # campaign itself unaffected
        with collecting() as registry:
            pass
        assert registry.snapshot().counters == {}


class TestFuzzCounters:
    def test_postponing_counters(self):
        with collecting() as registry:
            phase1 = detect_races(
                figure1.build(), seeds=range(3), max_steps=20_000
            )
            verdicts = fuzz_races(
                figure1.build(), phase1.pairs, trials=5, max_steps=20_000
            )
        snapshot = registry.snapshot()
        trials = sum(v.trials for v in verdicts.values())
        assert snapshot.counters["fuzz.trials"] == trials
        assert snapshot.counters["fuzz.races_created"] == sum(
            v.times_created for v in verdicts.values()
        )
        # the real pair postpones at its racing statements every trial
        assert snapshot.counters["fuzz.postpones"] > 0
        assert snapshot.counters["fuzz.coin_flips"] > 0
        # each trial's wall time rides on its trial event
        trial_events = [e for e in snapshot.events if e.kind == "trial"]
        assert len(trial_events) == trials
        assert all(e.dur_s > 0 for e in trial_events)

    def test_postponed_high_water_stays_on_the_trial(self):
        # Each trial's postponed-set high water is a FuzzResult field (the
        # Phase-2 golden digest reads it); telemetry keeps no copy of it.
        pairs = detect_races(figure1.build(), seeds=range(3), max_steps=20_000).pairs
        with collecting() as registry:
            outcomes = [
                RaceFuzzer(pair, max_steps=20_000).run(figure1.build(), seed=seed)
                for pair in pairs
                for seed in range(4)
            ]
        assert max(o.postponed_high_water for o in outcomes) >= 1
        assert not any("high_water" in name for name in registry.snapshot().counters)

    def test_campaign_spans_present(self):
        with collecting() as registry:
            race_directed_test(
                figure1.build(),
                trials=4,
                phase1_seeds=range(3),
                max_steps=20_000,
            )
        spans = registry.snapshot().spans
        assert "phase1.detect" in spans
        assert "phase2.fuzz" in spans
        pair_spans = [name for name in spans if name.startswith("pair.")]
        assert len(pair_spans) == 2  # figure1's two potential pairs
        for name in pair_spans:
            assert spans[name].count >= 1


class TestSupervisorCounters:
    def test_supervised_run_counts_tasks(self):
        spec = get("figure1")
        with collecting() as registry:
            phase1 = detect_races(
                spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
            )
            fuzz_races(
                spec.build(),
                phase1.pairs,
                trials=4,
                max_steps=spec.max_steps,
                jobs=1,
                retries=1,
                chunk_size=2,
            )
        counters = registry.snapshot().counters
        assert counters["supervisor.batches"] >= 1
        assert counters["supervisor.tasks"] >= len(phase1.pairs)
        assert counters["supervisor.retries"] == 0
        assert counters["supervisor.quarantines"] == 0

    def test_retries_counted_under_faults(self):
        from repro.core import parse_fault_plan

        spec = get("figure1")
        with collecting() as registry:
            race_directed_test(
                spec.build(),
                trials=4,
                phase1_seeds=spec.phase1_seeds,
                max_steps=spec.max_steps,
                retries=2,
                faults=parse_fault_plan("fuzz:0:crash"),
            )
        counters = registry.snapshot().counters
        assert counters["supervisor.retries"] >= 1
        assert counters["supervisor.failed_attempts.crash"] >= 1


class TestTraceCounters:
    def test_store_hits_misses_and_bytes(self, tmp_path):
        spec = get("figure1")
        store = TraceStore(tmp_path)
        key = detect_key(spec.name, 0, max_steps=spec.max_steps)
        with collecting() as registry:
            store.ensure(key, spec.build())  # miss: records
            store.ensure(key, spec.build())  # hit
        counters = registry.snapshot().counters
        assert counters["trace.store_misses"] == 1
        assert counters["trace.store_hits"] == 1
        assert counters["trace.store_executions"] == 1
        assert counters["trace.records"] == 1
        assert counters["trace.store_bytes"] > 0

    def test_analyze_counts_replays(self, tmp_path):
        spec = get("figure1")
        store = TraceStore(tmp_path)
        key = detect_key(spec.name, 0, max_steps=spec.max_steps)
        path = store.ensure(key, spec.build())
        with collecting() as registry:
            analyze_trace(path, ("hybrid", "lockset"))
        counters = registry.snapshot().counters
        assert counters["trace.replays"] == 1
        assert counters["trace.analyses"] == 2

    def test_metrics_match_store_stats(self, tmp_path):
        """The registry's trace counters agree with StoreStats."""
        spec = get("figure1")
        store = TraceStore(tmp_path)
        with collecting() as registry:
            for seed in range(3):
                key = detect_key(spec.name, seed, max_steps=spec.max_steps)
                store.ensure(key, spec.build())
            store.ensure(
                detect_key(spec.name, 0, max_steps=spec.max_steps), spec.build()
            )
        counters = registry.snapshot().counters
        assert counters["trace.store_hits"] == store.stats.hits == 1
        assert counters["trace.store_misses"] == store.stats.misses == 3
        assert counters["trace.store_executions"] == store.stats.executions == 3


class TestResultsUnchanged:
    @pytest.mark.parametrize("collect", [False, True])
    def test_campaign_verdicts_identical_with_metrics(self, collect):
        def campaign():
            return race_directed_test(
                figure1.build(),
                trials=6,
                phase1_seeds=range(3),
                max_steps=20_000,
            )

        baseline = campaign()
        if collect:
            with collecting():
                observed = campaign()
        else:
            observed = campaign()
        assert observed.real_pairs == baseline.real_pairs
        assert {
            p: v.times_created for p, v in observed.verdicts.items()
        } == {p: v.times_created for p, v in baseline.verdicts.items()}
