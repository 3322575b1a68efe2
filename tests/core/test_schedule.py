"""Campaign scheduling policies: fixed equivalence, adaptive determinism.

The contract under test (ISSUE 8): ``FixedSchedule`` is byte-identical to
the pre-policy drivers for every workload, serial and parallel, so
Table 1 reproduction is untouched; ``AdaptiveSchedule`` reaches the same
confirmed races with fewer trials, deterministically per seed — same
allocation sequence and verdicts serial vs ``jobs=4``, and a mid-campaign
checkpoint/resume replays to the identical final report.
"""

import json

import pytest

from repro.core import (
    AdaptiveSchedule,
    FixedSchedule,
    ParallelCampaign,
    fuzz_races,
    make_schedule,
)
from repro.core.schedule import beta_upper_bound, chunk_spans
from repro.workloads import figure1

PAIRS = [figure1.REAL_PAIR, figure1.FALSE_PAIR]


def _verdict_signature(verdict):
    """Everything deterministic in a verdict (wall-clock is measured)."""
    return (
        verdict.trials,
        verdict.times_created,
        dict(verdict.exceptions),
        dict(verdict.unattributed_exceptions),
        verdict.deadlocks,
        verdict.truncated,
        verdict.created_pairs,
    )


def _campaign_signature(verdicts):
    return {str(pair): _verdict_signature(v) for pair, v in verdicts.items()}


class _SmallAdaptive(AdaptiveSchedule):
    """An adaptive schedule tuned small enough for fast unit campaigns."""

    ROUND_WIDTH = 4
    MIN_TRIALS = 10
    STOP_THRESHOLD = 0.2


class _PatientAdaptive(_SmallAdaptive):
    """Early stopping all but off, so only a budget ends the campaign."""

    STOP_THRESHOLD = 0.01


class _BoostedAdaptive(_SmallAdaptive):
    GRADE_BOOST = 2.5


class TestChunkSpans:
    def test_cover_exactly_once_from_any_cursor(self):
        spans = chunk_spans(start=42, count=23, chunk_size=5)
        seeds = [s for start, count in spans for s in range(start, start + count)]
        assert seeds == list(range(42, 65))

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_spans(0, 10, 0)


class TestBetaBounds:
    def test_upper_bound_shrinks_with_evidence(self):
        few = beta_upper_bound(1.0, 11.0)
        many = beta_upper_bound(1.0, 101.0)
        assert many < few < 1.0

    def test_upper_bound_clamped_to_one(self):
        assert beta_upper_bound(50.0, 1.0) == 1.0


class TestFixedSchedule:
    def test_single_batch_matches_legacy_task_layout(self):
        sched = FixedSchedule(trials=23)
        sched.bind(PAIRS, base_seed=7, chunk_size=5)
        batch = sched.next_batch()
        # Pair-major, each pair's chunks exactly chunk_spans of its range.
        expected = [
            (index, start, count)
            for index in range(len(PAIRS))
            for start, count in chunk_spans(7, 23, 5)
        ]
        assert [(c.pair_index, c.seed_start, c.count) for c in batch] == expected
        assert sched.next_batch() == []
        assert sched.trials_allocated == 23 * len(PAIRS)

    def test_planned_trials_drain_after_the_batch(self):
        sched = FixedSchedule(trials=10)
        sched.bind(PAIRS, chunk_size=25)
        assert sched.planned_trials() == 20
        sched.next_batch()
        assert sched.planned_trials() == 0

    def test_schedule_fixed_identical_to_default_serial(self):
        legacy = fuzz_races(figure1.build(), PAIRS, trials=8)
        pinned = fuzz_races(figure1.build(), PAIRS, trials=8, schedule="fixed")
        assert _campaign_signature(legacy) == _campaign_signature(pinned)


class TestMakeSchedule:
    def test_none_and_fixed_are_the_paper_protocol(self):
        for spec in (None, "fixed"):
            sched = make_schedule(spec, trials=7)
            assert isinstance(sched, FixedSchedule)
            assert sched.trials == 7

    def test_instance_passes_through(self):
        sched = _SmallAdaptive()
        assert make_schedule(sched) is sched

    def test_adaptive_budget_defaults_to_trials_per_pair(self):
        sched = make_schedule("adaptive", trials=30)
        sched.bind(PAIRS, chunk_size=5)
        assert sched.trial_budget == 30 * len(PAIRS)

    def test_explicit_budget_wins(self):
        sched = make_schedule("adaptive", trials=30, trial_budget=11)
        sched.bind(PAIRS, chunk_size=5)
        assert sched.trial_budget == 11

    def test_adaptive_default_budget_of_zero_plans_nothing(self):
        verdicts = fuzz_races(
            figure1.build(), PAIRS, trials=0, schedule="adaptive"
        )
        fixed = fuzz_races(figure1.build(), PAIRS, trials=0)
        assert [v.trials for v in verdicts.values()] == [0, 0]
        assert _campaign_signature(verdicts) == _campaign_signature(fixed)
        with pytest.raises(ValueError, match="trial_budget"):
            make_schedule("adaptive", trial_budget=0)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            make_schedule("greedy")


class TestReuse:
    """bind starts a fresh campaign: one instance serves campaigns in turn."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FixedSchedule(trials=4),
            lambda: make_schedule("adaptive", trials=4),
            lambda: _SmallAdaptive(trial_budget=20),
        ],
        ids=["fixed", "adaptive-default-budget", "adaptive"],
    )
    def test_second_campaign_repeats_the_first(self, make):
        sched = make()
        runs = []
        for _ in range(2):
            verdicts = fuzz_races(
                figure1.build(), PAIRS, trials=4, chunk_size=2, schedule=sched
            )
            runs.append((list(sched.allocation_log), _campaign_signature(verdicts)))
        assert runs[0][0]  # the first campaign planned something
        assert runs[1] == runs[0]

    def test_default_budget_follows_the_bound_pairs(self):
        sched = make_schedule("adaptive", trials=5)
        sched.bind(PAIRS, chunk_size=5)
        assert sched.trial_budget == 10
        sched.bind(PAIRS[:1], chunk_size=5)
        assert sched.trial_budget == 5


class TestAdaptiveAllocation:
    def test_confirmed_pairs_stop_receiving_trials(self):
        sched = _SmallAdaptive()
        verdicts = fuzz_races(
            figure1.build(), PAIRS, chunk_size=5, schedule=sched
        )
        # REAL_PAIR creates the race with probability 1.0: one chunk
        # confirms it and the policy never buys it more evidence.
        assert verdicts[figure1.REAL_PAIR].trials == 5
        assert verdicts[figure1.REAL_PAIR].times_created == 5
        assert sched.confirmed == 1

    def test_hopeless_pair_early_stopped(self):
        sched = _SmallAdaptive()
        verdicts = fuzz_races(
            figure1.build(), [figure1.FALSE_PAIR], chunk_size=5,
            schedule=sched,
        )
        assert verdicts[figure1.FALSE_PAIR].times_created == 0
        assert sched.early_stopped == 1
        # Stopped once the posterior upper bound sank, not at a budget.
        assert verdicts[figure1.FALSE_PAIR].trials < 100

    def test_fewer_total_trials_than_fixed_same_confirmations(self):
        trials = 50
        fixed = fuzz_races(figure1.build(), PAIRS, trials=trials)
        adaptive = fuzz_races(
            figure1.build(), PAIRS, trials=trials, schedule="adaptive"
        )
        confirmed = lambda vs: {str(p) for p, v in vs.items() if v.times_created}
        assert confirmed(adaptive) == confirmed(fixed)
        assert sum(v.trials for v in adaptive.values()) < sum(
            v.trials for v in fixed.values()
        )

    def test_trial_budget_is_a_hard_ceiling(self):
        sched = _PatientAdaptive(trial_budget=12)
        verdicts = fuzz_races(
            figure1.build(), [figure1.FALSE_PAIR], chunk_size=5,
            schedule=sched,
        )
        assert verdicts[figure1.FALSE_PAIR].trials <= 12
        assert sched.trials_allocated <= 12
        assert sched.budget_exhausted

    def test_budget_tail_is_split_evenly_across_winners(self):
        # 16 trials left for two winners of a 25-trial chunk: handing the
        # budget out in pair order gave all 16 to the first pair and none
        # to the second (the false pair (1, 10) sorts first, so figure1
        # confirmed nothing).  Each winner gets half instead.
        sched = _SmallAdaptive(trial_budget=16)
        sched.bind([figure1.FALSE_PAIR, figure1.REAL_PAIR], chunk_size=25)
        batch = sched.next_batch()
        assert [(c.pair_index, c.count) for c in batch] == [(0, 8), (1, 8)]
        assert sched.budget_exhausted

    def test_odd_budget_tail_goes_to_the_first_winners(self):
        sched = _SmallAdaptive(trial_budget=5)
        sched.bind([figure1.FALSE_PAIR, figure1.REAL_PAIR], chunk_size=25)
        assert [(c.pair_index, c.count) for c in sched.next_batch()] == [
            (0, 3), (1, 2),
        ]

    def test_small_budget_campaign_confirms_the_real_pair(self):
        verdicts = fuzz_races(
            figure1.build(), PAIRS, trials=8, schedule="adaptive"
        )
        assert verdicts[figure1.REAL_PAIR].times_created > 0
        assert verdicts[figure1.FALSE_PAIR].trials > 0

    def test_time_budget_stops_scheduling(self):
        # Not a determinism property (wall-clock), just the stop switch.
        sched = _PatientAdaptive(time_budget_s=1e-9)
        verdicts = fuzz_races(
            figure1.build(), [figure1.FALSE_PAIR], chunk_size=5,
            schedule=sched,
        )
        # The first next_batch arms the clock; the second observes it
        # expired — at most one round of chunks ever ran.
        assert verdicts[figure1.FALSE_PAIR].trials <= 5
        assert sched.time_exhausted


class TestAdaptiveDeterminism:
    def test_serial_vs_jobs4_identical_allocations_and_verdicts(self):
        serial_sched = _SmallAdaptive()
        parallel_sched = _SmallAdaptive()
        serial = fuzz_races(
            figure1.build(), PAIRS, chunk_size=5, schedule=serial_sched
        )
        parallel = fuzz_races(
            figure1.build(), PAIRS, chunk_size=5, jobs=4,
            schedule=parallel_sched,
        )
        assert serial_sched.allocation_log == parallel_sched.allocation_log
        assert _campaign_signature(serial) == _campaign_signature(parallel)

    def test_same_seed_same_campaign(self):
        one = fuzz_races(
            figure1.build(), PAIRS, schedule="adaptive", base_seed=3
        )
        two = fuzz_races(
            figure1.build(), PAIRS, schedule="adaptive", base_seed=3
        )
        assert _campaign_signature(one) == _campaign_signature(two)

    def test_different_seed_may_differ_but_stays_deterministic(self):
        sched_a = _SmallAdaptive(seed=1)
        sched_b = _SmallAdaptive(seed=1)
        sched_a.bind(PAIRS, chunk_size=5)
        sched_b.bind(PAIRS, chunk_size=5)
        assert sched_a.next_batch() == sched_b.next_batch()


class TestGradeBoost:
    def test_graded_pairs_start_with_boosted_alpha(self):
        sched = _BoostedAdaptive()
        sched.bind(PAIRS, chunk_size=5, grades=[True, None])
        alphas = [post.alpha for post in sched._posteriors]
        assert alphas == [1.0 + 2.5, 1.0]
        betas = [post.beta for post in sched._posteriors]
        assert betas == [1.0, 1.0]

    def test_speculative_and_ungraded_get_no_boost(self):
        sched = _BoostedAdaptive()
        sched.bind(PAIRS, chunk_size=5, grades=[False, None])
        assert [post.alpha for post in sched._posteriors] == [1.0, 1.0]

    def test_no_grades_leaves_priors_untouched(self):
        plain = _SmallAdaptive()
        graded = _SmallAdaptive()
        plain.bind(PAIRS, chunk_size=5)
        graded.bind(PAIRS, chunk_size=5, grades=[None, None])
        assert [p.alpha for p in plain._posteriors] == [
            p.alpha for p in graded._posteriors
        ]
        assert plain.next_batch() == graded.next_batch()

    def test_grades_length_mismatch_rejected(self):
        sched = _SmallAdaptive()
        with pytest.raises(ValueError, match="grades length"):
            sched.bind(PAIRS, chunk_size=5, grades=[True])

    def test_graded_campaign_stays_deterministic(self):
        def run():
            sched = _BoostedAdaptive()
            with ParallelCampaign(chunk_size=5) as engine:
                verdicts = engine.fuzz(
                    "figure1", PAIRS, schedule=sched, grades=[True, False]
                )
            return sched.allocation_log, _campaign_signature(verdicts)

        assert run() == run()

    def test_driver_feeds_phase1_grades_into_schedule(self):
        from repro.core import race_directed_test

        sched = _SmallAdaptive()
        race_directed_test(
            figure1.build(),
            detector="shb",
            phase1_seeds=range(2),
            trials=10,
            chunk_size=5,
            max_steps=20_000,
            schedule=sched,
        )
        # Only predictive detectors grade pairs; with shb the driver
        # must have handed a non-None grade to bind().
        assert any(grade is not None for grade in sched.grades)


class TestCheckpointResume:
    def _run(self, tmp_path, journal_name="journal.jsonl"):
        sched = _SmallAdaptive()
        verdicts = fuzz_races(
            figure1.build(),
            PAIRS,
            chunk_size=5,
            schedule=sched,
            checkpoint=tmp_path / journal_name,
        )
        return sched, verdicts

    def test_resume_mid_campaign_replays_to_identical_report(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        first_sched, first = self._run(tmp_path)
        lines = journal.read_text().splitlines()
        assert len(lines) >= 2
        # Kill the campaign "mid-flight": keep only the first half of the
        # journaled chunks, then restart with the same parameters.
        journal.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        resumed_sched, resumed = self._run(tmp_path)
        assert _campaign_signature(resumed) == _campaign_signature(first)
        assert resumed_sched.allocation_log == first_sched.allocation_log

    def test_warm_journal_re_executes_nothing(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        self._run(tmp_path)
        before = journal.read_text()
        keys_before = [json.loads(line)["key"] for line in before.splitlines()]
        _, warm = self._run(tmp_path)
        keys_after = [
            json.loads(line)["key"]
            for line in journal.read_text().splitlines()
        ]
        # Every chunk was a cache hit: nothing new was journaled, and the
        # verdicts still came out whole.
        assert keys_after == keys_before
        assert warm[figure1.REAL_PAIR].times_created > 0
