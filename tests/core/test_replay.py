"""Seed-only replay of race-revealing executions (experiment E9)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    replay_race,
    replays_identically,
    schedule_signature,
)
from repro.workloads import figure1, figure2


class TestReplay:
    def test_replay_reproduces_outcome_and_trace(self):
        first = replay_race(figure1.build(), figure1.REAL_PAIR, seed=11)
        second = replay_race(figure1.build(), figure1.REAL_PAIR, seed=11)
        assert first.schedule_signature() == second.schedule_signature()
        assert first.outcome.created == second.outcome.created
        assert [c.error_type for c in first.outcome.crashes] == [
            c.error_type for c in second.outcome.crashes
        ]

    def test_different_seeds_can_differ(self):
        signatures = {
            replay_race(
                figure1.build(), figure1.REAL_PAIR, seed=s
            ).schedule_signature()
            for s in range(8)
        }
        assert len(signatures) > 1

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_replays_identically_for_any_seed(self, seed):
        assert replays_identically(
            figure1.build(), figure1.REAL_PAIR, seed, attempts=3
        )

    def test_replay_of_error_revealing_seed_reproduces_the_error(self):
        """The paper's debugging story: find a seed whose resolution throws,
        then replay it at will."""
        error_seed = None
        for seed in range(40):
            run = replay_race(figure2.build(8), figure2.RACING_PAIR, seed=seed)
            if run.outcome.crashes:
                error_seed = seed
                break
        assert error_seed is not None
        for _ in range(3):
            again = replay_race(
                figure2.build(8), figure2.RACING_PAIR, seed=error_seed
            )
            assert again.outcome.crashes
            assert again.outcome.crashes[0].error_type == "AssertionViolation"

    def test_trace_includes_events(self):
        run = replay_race(figure1.build(), figure1.REAL_PAIR, seed=0)
        assert run.events
        assert run.schedule_signature()[0][0] == "ThreadStartEvent"


class TestReplayToTraceFile:
    def test_signature_works_on_any_event_sequence(self):
        run = replay_race(figure1.build(), figure1.REAL_PAIR, seed=0)
        assert schedule_signature(run.events) == run.schedule_signature()
