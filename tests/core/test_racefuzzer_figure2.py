"""Experiment E7: the Section 3.2 probability claims on Figure 2."""

import pytest

from repro.core import RandomScheduler, fuzz_pair
from repro.harness.figure2_prob import measure_point
from repro.runtime import Execution
from repro.workloads import figure2

RUNS = 50


class TestRaceFuzzerProbability:
    @pytest.mark.parametrize("padding", [0, 2, 5, 8, 10, 20, 25, 40, 60, 160])
    def test_race_created_with_probability_one(self, padding):
        outcomes = fuzz_pair(
            figure2.build(padding), figure2.RACING_PAIR, seeds=range(RUNS)
        )
        assert all(outcome.created for outcome in outcomes)

    @pytest.mark.parametrize("padding", [0, 25])
    def test_error_reached_in_about_half_the_runs(self, padding):
        outcomes = fuzz_pair(
            figure2.build(padding), figure2.RACING_PAIR, seeds=range(RUNS)
        )
        errors = sum(1 for o in outcomes if o.crashes)
        assert RUNS * 0.25 <= errors <= RUNS * 0.75

    def test_probability_independent_of_padding(self):
        small = measure_point(2, runs=40)
        large = measure_point(40, runs=40)
        assert small.rf_race_probability == large.rf_race_probability == 1.0


class TestPassiveSchedulerDecay:
    def test_simple_random_error_rate_decays_with_padding(self):
        def error_rate(padding, runs=150):
            errors = 0
            for seed in range(runs):
                result = Execution(figure2.build(padding), seed=seed).run(
                    RandomScheduler(preemption="every")
                )
                errors += bool(result.crashes)
            return errors / runs

        near = error_rate(0)
        far = error_rate(16)
        assert near > far, (near, far)
        assert far < 0.05  # essentially never for long padding

    def test_racefuzzer_beats_passive_at_long_padding(self):
        padding = 16
        point = measure_point(padding, runs=40)
        assert point.rf_race_probability == 1.0
        assert point.rf_error_probability > 0.25
        assert point.simple_error_probability < point.rf_error_probability
