"""The two-phase pipeline: detect_races, fuzz_races, race_directed_test."""

import os

import pytest

from repro.core import (
    ParallelCampaign,
    baseline_exceptions,
    detect_races,
    fuzz_races,
    race_directed_test,
)
from repro.obs import collecting
from repro.runtime import Program, SharedVar, join_all, ops, spawn_all
from repro.runtime.statement import Statement, StatementPair
from repro.workloads import figure1


class TestDetectRaces:
    def test_multiple_seeds_union_findings(self):
        single = detect_races(figure1.build(), seeds=(0,))
        multi = detect_races(figure1.build(), seeds=range(6))
        assert set(single.pairs) <= set(multi.pairs)

    def test_detector_selection(self):
        hybrid = detect_races(figure1.build(), seeds=(0,), detector="hybrid")
        lockset = detect_races(figure1.build(), seeds=(0,), detector="lockset")
        hb = detect_races(figure1.build(), seeds=(0,), detector="happens-before")
        assert hybrid.detector == "hybrid"
        assert lockset.detector == "lockset"
        assert hb.detector == "happens-before"

    def test_unknown_detector_raises(self):
        with pytest.raises(KeyError):
            detect_races(figure1.build(), detector="psychic")

    def test_needs_at_least_one_seed(self):
        with pytest.raises(ValueError, match="at least one seed"):
            detect_races(figure1.build(), seeds=())


class TestFuzzRaces:
    def test_verdict_per_pair_with_requested_trials(self):
        pairs = [figure1.REAL_PAIR, figure1.FALSE_PAIR]
        verdicts = fuzz_races(figure1.build(), pairs, trials=9)
        assert set(verdicts) == set(pairs)
        assert all(v.trials == 9 for v in verdicts.values())

    def test_base_seed_shifts_runs(self):
        verdicts_a = fuzz_races(
            figure1.build(), [figure1.REAL_PAIR], trials=5, base_seed=0
        )
        verdicts_b = fuzz_races(
            figure1.build(), [figure1.REAL_PAIR], trials=5, base_seed=1000
        )
        # Both confirm the race (robustness across seed ranges).
        assert verdicts_a[figure1.REAL_PAIR].is_real
        assert verdicts_b[figure1.REAL_PAIR].is_real


class TestRaceDirectedTest:
    def test_supplied_pairs_skip_phase1(self):
        campaign = race_directed_test(
            figure1.build(), pairs=[figure1.REAL_PAIR], trials=10
        )
        assert campaign.potential_pairs == 1
        assert campaign.phase1.detector == "supplied"
        assert campaign.real_pairs == [figure1.REAL_PAIR]

    def test_str_rendering(self):
        campaign = race_directed_test(
            figure1.build(), pairs=[figure1.REAL_PAIR], trials=5
        )
        text = str(campaign)
        assert "figure1" in text and "1 real" in text

    def test_phase1_pairs_flow_into_phase2(self):
        campaign = race_directed_test(figure1.build(), trials=5)
        assert set(campaign.verdicts) == set(campaign.phase1.pairs)


class TestBaselineExceptions:
    def test_counts_exception_types(self):
        def factory():
            def main():
                yield ops.check(False, "always")

            return main()

        counts = baseline_exceptions(Program(factory), runs=5)
        assert counts["AssertionViolation"] == 5

    def test_deadlock_counted_separately(self):
        from repro.runtime import Lock

        def factory():
            lock = Lock("L")

            def waiter():
                yield lock.acquire()
                yield lock.wait()

            def main():
                handle = yield ops.spawn(waiter)
                yield ops.join(handle)

            return main()

        counts = baseline_exceptions(Program(factory), runs=3)
        assert counts["Deadlock"] == 3

    def test_scheduler_choices(self):
        def factory():
            def main():
                yield ops.yield_point()

            return main()

        for scheduler in ("default", "random", "random-sync"):
            counts = baseline_exceptions(
                Program(factory), runs=2, scheduler=scheduler
            )
            assert not counts

    def test_unknown_scheduler_raises(self):
        def factory():
            def main():
                yield ops.yield_point()

            return main()

        with pytest.raises(ValueError):
            baseline_exceptions(Program(factory), runs=1, scheduler="magic")


class TestBaselineExceptionsParallel:
    """The satellite fix: baseline_exceptions takes jobs/deadline/retries."""

    def test_parallel_matches_serial(self):
        serial = baseline_exceptions(
            figure1.build(), runs=24, scheduler="random", max_steps=20_000
        )
        parallel = baseline_exceptions(
            figure1.build(),
            runs=24,
            scheduler="random",
            max_steps=20_000,
            jobs=2,
            chunk_size=7,
        )
        assert serial == parallel

    def test_parallel_requires_registered_workload(self):
        def factory():
            def main():
                yield ops.yield_point()

            return main()

        with pytest.raises(ValueError, match="registered workload"):
            baseline_exceptions(Program(factory), runs=1, jobs=2)

    def test_unknown_scheduler_rejected_before_dispatch(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            baseline_exceptions(figure1.build(), runs=1, scheduler="magic", jobs=2)


class TestOneEngine:
    """Every ``jobs`` value runs the same supervised tasks."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_caller_input_raises_before_dispatch(self, jobs):
        with collecting() as registry:
            with pytest.raises(KeyError, match="psychic"):
                detect_races(figure1.build(), detector="psychic", jobs=jobs)
            # Checked by raising, not assert, so python -O keeps them.
            with pytest.raises(ValueError, match="at least one seed"):
                detect_races(figure1.build(), seeds=[], jobs=jobs)
            with pytest.raises(ValueError, match="at least one detector"):
                detect_races(figure1.build(), detector=[], jobs=jobs)
            with pytest.raises(ValueError, match="only applies"):
                fuzz_races(
                    figure1.build(), [figure1.REAL_PAIR], trials=10,
                    trial_budget=3, jobs=jobs,
                )
            # The engine itself checks, for callers that open one directly.
            with ParallelCampaign(jobs=jobs) as engine:
                with pytest.raises(KeyError, match="psychic"):
                    engine.detect("figure1", detector=["hybrid", "psychic"])
                with pytest.raises(ValueError, match="unknown scheduler"):
                    engine.baseline("figure1", runs=2, scheduler="magic")
                with pytest.raises(ValueError, match="unknown schedule"):
                    engine.fuzz("figure1", [figure1.REAL_PAIR], schedule="greedy")
                with pytest.raises(ValueError, match="only applies"):
                    engine.fuzz("figure1", [figure1.REAL_PAIR], time_budget=5.0)
        assert registry.counter("supervisor.tasks") == 0

    def test_auto_jobs_on_one_core_runs_inline(self, monkeypatch):
        # jobs=0 resolves to one worker per core; on a one-core host that
        # is the inline engine, which runs the caller's own program.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        anonymous = Program(figure1.build().factory, name="anonymous")
        report = detect_races(anonymous, jobs=0)
        assert figure1.REAL_PAIR in report.pairs

    def test_raising_program_is_quarantined_inline(self):
        def factory():
            raise RuntimeError("broken factory")

        verdicts = fuzz_races(
            Program(factory, name="broken"), [figure1.REAL_PAIR], trials=2,
            retries=0,
        )
        verdict = verdicts[figure1.REAL_PAIR]
        assert verdict.trials == 0
        assert [failure.kind for failure in verdict.errors] == ["crash"]


class TestPipelineOnLostUpdateProgram:
    """A miniature end-to-end: racy counter -> detect -> fuzz -> classify."""

    @staticmethod
    def _factory():
        x = SharedVar("x", 0)
        total = SharedVar("total", 0)

        def racy():
            value = yield x.read(label="r")
            yield x.write(value + 1, label="w")

        def safe():
            yield total.read()

        def main():
            handles = yield from spawn_all([racy, racy, safe])
            yield from join_all(handles)

        return main()

    def test_end_to_end(self):
        program = Program(self._factory, name="mini")
        campaign = race_directed_test(program, trials=30, phase1_seeds=range(4))
        pair_rw = StatementPair(Statement(label="r"), Statement(label="w"))
        pair_ww = StatementPair(Statement(label="w"), Statement(label="w"))
        assert set(campaign.phase1.pairs) == {pair_rw, pair_ww}
        assert set(campaign.real_pairs) == {pair_rw, pair_ww}
        assert campaign.harmful_pairs == []
        assert campaign.mean_probability() > 0.9
