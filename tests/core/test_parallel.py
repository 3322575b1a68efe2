"""The parallel campaign engine: determinism and chunking.

The contract under test is the paper's claim that trials are independent
seeded runs, so fanning a campaign out over a process pool must yield a
``CampaignReport`` whose per-pair verdict aggregates are identical to the
inline run for the same seed set.  Chunk sizes, trace stores and resume
are varied by ``tests/integration/test_determinism.py``.
"""

import json
import os
import pickle

import pytest

from repro.core import (
    DetectTask,
    FuzzTask,
    ParallelCampaign,
    detect_races,
    fuzz_races,
    race_directed_test,
)
from repro.core.parallel import fuzz_task_key, run_detect_task, run_fuzz_task
from repro.core.schedule import chunk_spans
from repro.runtime import Program
from repro.workloads import figure1, get


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


def _campaign_signature(campaign):
    return (
        campaign.program,
        [str(p) for p in campaign.phase1.pairs],
        {str(p): _verdict_signature(v) for p, v in campaign.verdicts.items()},
    )


class TestTaskSpecs:
    def test_tasks_are_picklable(self):
        for task in (
            DetectTask(workload="figure1", seed=3),
            FuzzTask(workload="figure1", pair=figure1.REAL_PAIR, seed_start=5, count=4),
        ):
            assert pickle.loads(pickle.dumps(task)) == task

    def test_worker_results_are_picklable(self):
        report = run_detect_task(DetectTask(workload="figure1"))["hybrid"]
        verdict = run_fuzz_task(
            FuzzTask(workload="figure1", pair=figure1.REAL_PAIR, count=3)
        )
        assert pickle.loads(pickle.dumps(report)).pairs == report.pairs
        assert _verdict_signature(pickle.loads(pickle.dumps(verdict))) == (
            _verdict_signature(verdict)
        )

    def test_chunk_ranges_cover_exactly_once(self):
        ranges = chunk_spans(start=7, count=23, chunk_size=5)
        seeds = [s for start, count in ranges for s in range(start, start + count)]
        assert seeds == list(range(7, 30))

    def test_chunk_ranges_reject_bad_size(self):
        with pytest.raises(ValueError):
            chunk_spans(0, 10, 0)

    def test_journal_key_names_no_checkout_path(self):
        # A registered workload's statements live inside the package, so
        # its key spells their files relative to it: a journal written in
        # one checkout resumes in another.
        spec = get("sor")
        pair = detect_races(spec.build(), seeds=[0], max_steps=spec.max_steps).pairs[0]
        assert os.path.isabs(pair.first.file)
        key = fuzz_task_key(FuzzTask(workload="sor", pair=pair))
        assert [site[0] for site in json.loads(key)["pair"]] == [
            os.path.join("workloads", "sor.py")
        ] * 2
        assert os.path.dirname(pair.first.file) not in key


class TestDetectEquivalence:
    def test_parallel_detect_matches_serial(self):
        serial = detect_races(figure1.build(), seeds=range(5))
        parallel = detect_races(figure1.build(), seeds=range(5), jobs=4)
        assert serial.pairs == parallel.pairs
        assert {
            str(p): (e.count, e.both_write) for p, e in serial.evidence.items()
        } == {
            str(p): (e.count, e.both_write) for p, e in parallel.evidence.items()
        }
        assert serial.truncated_locations == parallel.truncated_locations


class TestFuzzEquivalence:
    PAIRS = [figure1.REAL_PAIR, figure1.FALSE_PAIR]

    def test_jobs_1_vs_jobs_4_identical_aggregates(self):
        serial = fuzz_races(figure1.build(), self.PAIRS, trials=8)
        parallel = fuzz_races(
            figure1.build(), self.PAIRS, trials=8, jobs=4, chunk_size=3
        )
        assert set(serial) == set(parallel)
        for pair in serial:
            assert _verdict_signature(serial[pair]) == _verdict_signature(
                parallel[pair]
            )

    def test_base_seed_respected_in_parallel(self):
        serial = fuzz_races(
            figure1.build(), [figure1.REAL_PAIR], trials=6, base_seed=100
        )
        parallel = fuzz_races(
            figure1.build(),
            [figure1.REAL_PAIR],
            trials=6,
            base_seed=100,
            jobs=2,
            chunk_size=2,
        )
        assert _verdict_signature(serial[figure1.REAL_PAIR]) == (
            _verdict_signature(parallel[figure1.REAL_PAIR])
        )


class TestCampaignEquivalence:
    def test_full_campaign_matches_serial(self):
        serial = race_directed_test(figure1.build(), trials=8)
        parallel = race_directed_test(
            figure1.build(), trials=8, jobs=4, chunk_size=3
        )
        assert _campaign_signature(serial) == _campaign_signature(parallel)

    def test_unregistered_program_rejected_for_parallel(self):
        def factory():
            def main():
                yield from ()

            return main()

        with pytest.raises(ValueError, match="not in"):
            race_directed_test(Program(factory, name="anonymous"), jobs=2)

    def test_unregistered_program_runs_inline(self):
        racy = Program(figure1.build().factory, name="anonymous")
        campaign = race_directed_test(racy, trials=4, jobs=1)
        assert campaign.program == "anonymous"
        assert figure1.REAL_PAIR in campaign.real_pairs
        assert not campaign.failures
        with pytest.raises(ValueError, match="not in"):
            race_directed_test(racy, trials=4, jobs=2)


class TestParallelCampaignObject:
    def test_run_end_to_end_by_name(self):
        campaign = race_directed_test(
            figure1.build(), trials=8, jobs=2, chunk_size=4
        )
        assert campaign.program == "figure1"
        assert figure1.REAL_PAIR in campaign.real_pairs
        assert figure1.FALSE_PAIR not in campaign.real_pairs

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ParallelCampaign(jobs=-1)
        with pytest.raises(ValueError):
            ParallelCampaign(chunk_size=0)

    def test_close_is_idempotent(self):
        engine = ParallelCampaign(jobs=2)
        engine.close()
        engine.close()
