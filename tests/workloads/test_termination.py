"""Every workload terminates under every scheduler and never hits the
engine (deadlocks and simulated exceptions are expected outcomes; engine
errors and step-budget truncation are not)."""

import pytest

from repro.core import DefaultScheduler, RaceFuzzer, RandomScheduler, detect_races
from repro.runtime import Execution
from repro.workloads import all_workloads, moldyn

WORKLOADS = [spec for spec in all_workloads()]


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda s: s.name)
class TestTermination:
    def test_random_scheduler_terminates(self, spec):
        for seed in range(5):
            result = Execution(spec.build(), seed=seed, max_steps=300_000).run(
                RandomScheduler(preemption="every")
            )
            assert not result.truncated, f"{spec.name} seed {seed} truncated"

    def test_sync_preemption_terminates(self, spec):
        for seed in range(3):
            result = Execution(spec.build(), seed=seed, max_steps=300_000).run(
                RandomScheduler(preemption="sync")
            )
            assert not result.truncated, f"{spec.name} seed {seed} truncated"

    def test_default_scheduler_terminates(self, spec):
        result = Execution(spec.build(), seed=0, max_steps=300_000).run(
            DefaultScheduler()
        )
        assert not result.truncated, f"{spec.name} truncated"

    def test_replay_is_deterministic(self, spec):
        def signature(seed):
            result = Execution(spec.build(), seed=seed, max_steps=300_000).run(
                RandomScheduler(preemption="every")
            )
            return (result.steps, tuple(result.exception_types), result.deadlock)

        assert signature(3) == signature(3)


@pytest.mark.parametrize("nthreads", [2, 3, 4])
def test_racefuzzer_trial_on_moldyn_is_not_truncated(nthreads):
    """More workers mean more postponement candidates at each racing
    statement; a directed trial must still finish inside its step budget."""
    program = moldyn.build(nthreads=nthreads, particles=6)
    pair = detect_races(program, seeds=(0,), max_steps=2_000_000).pairs[0]
    fuzzer = RaceFuzzer(pair, max_steps=2_000_000)
    for seed in range(1, 4):
        outcome = fuzzer.run(program, seed=seed)
        assert not outcome.result.truncated, f"seed {seed} truncated"
