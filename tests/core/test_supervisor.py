"""The campaign supervisor: deadlines, retry, quarantine, resume.

The acceptance bar (ISSUE 2): inject one crash, one hang and one pool
kill into a 20-pair parallel campaign and the campaign must complete,
quarantining only the poisoned chunk, with every other pair's verdict
identical to a fault-free serial run; kill a checkpointed campaign
mid-run and the restart must re-execute only the unfinished tasks and
produce the same final report.
"""

import json
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import (
    ParallelCampaign,
    RaceFuzzer,
    TaskDeadlineExceeded,
    fuzz_races,
    race_directed_test,
)
from repro.core import supervisor
from repro.core.faults import FaultPlan, FaultSpec, parse_fault_plan
from repro.core.supervisor import CampaignSupervisor, CheckpointJournal, resolve_jobs, wall_deadline
from repro.obs import collecting
from repro.runtime.statement import Statement, StatementPair
from repro.workloads import figure1

#: 20 pairs, 1 chunk each at chunk_size=4/trials=4 — so fuzz-task index i
#: targets pair i.  The synthetic labelled pairs never match a figure1
#: statement, which makes them cheap no-target trials.
PAIRS = [figure1.REAL_PAIR, figure1.FALSE_PAIR] + [
    StatementPair(Statement(label=f"x{i}"), Statement(label=f"y{i}"))
    for i in range(18)
]

FAST_RETRY = 2  # default retries, spelled out where tests rely on it


def _signature(verdict):
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


@pytest.fixture(scope="module")
def serial_baseline():
    """The fault-free serial reference the supervised runs must match."""
    return fuzz_races(figure1.build(), PAIRS, trials=4)


class TestPrimitives:
    def test_resolve_jobs_contract(self):
        import os

        auto = os.cpu_count() or 1
        assert resolve_jobs(None) == auto
        assert resolve_jobs(0) == auto
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5
        with pytest.raises(ValueError, match="jobs must be"):
            resolve_jobs(-1)

    def test_wall_deadline_interrupts_a_sleep(self):
        start = time.perf_counter()
        with pytest.raises(TaskDeadlineExceeded):
            with wall_deadline(0.05):
                time.sleep(5.0)
        assert time.perf_counter() - start < 1.0

    def test_wall_deadline_none_is_a_noop(self):
        with wall_deadline(None):
            pass

    def test_wall_deadline_restores_previous_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with wall_deadline(10.0):
            pass
        assert signal.getsignal(signal.SIGALRM) is before

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError, match="retries"):
            CampaignSupervisor(retries=-1)

    def test_supervisor_coerces_int_retry(self):
        assert CampaignSupervisor(retries=5).retries == 5
        assert CampaignSupervisor().retries == FAST_RETRY
        with pytest.raises(ValueError, match="deadline"):
            CampaignSupervisor(deadline=0.0)

    def test_checkpoint_validation(self, tmp_path):
        # Checked before any task: a journal that cannot be opened would
        # otherwise fail only at the first append, after work was done.
        with pytest.raises(ValueError, match="is a directory"):
            CampaignSupervisor(checkpoint=tmp_path)
        with pytest.raises(ValueError, match="no such directory"):
            CampaignSupervisor(checkpoint=tmp_path / "missing" / "j.jsonl")
        with pytest.raises(ValueError, match="is a directory"):
            race_directed_test(figure1.build(), trials=2, checkpoint=tmp_path)
        assert list(tmp_path.iterdir()) == []
        journal = tmp_path / "j.jsonl"
        assert CampaignSupervisor(checkpoint=journal).checkpoint == journal

        # A file with no journal record is refused, and left untouched.
        notes = tmp_path / "notes.txt"
        notes.write_text("hello\nworld\n")
        with pytest.raises(ValueError, match="is not a checkpoint journal"):
            CampaignSupervisor(checkpoint=notes)
        with pytest.raises(ValueError, match="is not a checkpoint journal"):
            race_directed_test(figure1.build(), trials=2, checkpoint=notes)
        assert notes.read_bytes() == b"hello\nworld\n"

        # A journal with one flipped digit is still a journal: the damaged
        # record re-runs, the intact one is reused.
        pairs = [figure1.REAL_PAIR]
        baseline = fuzz_races(figure1.build(), pairs, trials=4)
        fuzz_races(
            figure1.build(), pairs, trials=4, chunk_size=2, checkpoint=journal
        )
        first, second = journal.read_text().splitlines()
        end = first.rindex("}") - 1
        flipped = first[:end] + str((int(first[end]) + 1) % 10) + first[end + 1:]
        journal.write_text(flipped + "\n" + second + "\n")
        with ParallelCampaign(jobs=1, chunk_size=2, checkpoint=journal) as engine:
            resumed = engine.fuzz("figure1", pairs, trials=4)
            assert engine.last_report.cached == 1
        assert _signature(resumed[pairs[0]]) == _signature(baseline[pairs[0]])


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.append("a", {"x": 1})
        journal.append("b", [1, 2])
        journal.close()
        assert CheckpointJournal(tmp_path / "j.jsonl").load() == {
            "a": {"x": 1},
            "b": [1, 2],
        }

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "absent.jsonl").load() == {}

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.append("good", 42)
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"key": "torn", "resu')  # killed mid-write
        resumed = CheckpointJournal(path)
        assert resumed.load() == {"good": 42}
        # A resumed run's first record starts on a line of its own.
        resumed.append("next", 7)
        resumed.close()
        assert CheckpointJournal(path).load() == {"good": 42, "next": 7}


class TestFaultInjectionAcceptance:
    def test_injected_faults_quarantine_only_the_poisoned_chunk(
        self, serial_baseline
    ):
        """The ISSUE acceptance scenario: crash + hang + pool kill, 20 pairs."""
        plan = FaultPlan(
            [
                # Poisoned: crashes on every attempt -> quarantine.
                FaultSpec(kind="crash", index=2, attempts=99),
                # Transient wedge: first attempt hangs past the deadline,
                # the retry completes.
                FaultSpec(kind="hang", index=5, attempts=1, delay=30.0),
                # One worker death breaks the pool; the supervisor rebuilds
                # it and every in-flight task recovers on retry.
                FaultSpec(kind="pool_kill", index=9, attempts=1),
            ]
        )
        verdicts = fuzz_races(
            figure1.build(),
            PAIRS,
            trials=4,
            jobs=4,
            chunk_size=4,
            deadline=1.0,
            faults=plan,
        )
        assert set(verdicts) == set(PAIRS)
        poisoned = PAIRS[2]
        assert verdicts[poisoned].quarantined
        assert verdicts[poisoned].trials == 0
        failure = verdicts[poisoned].errors[0]
        assert failure.kind == "crash"
        assert failure.attempts == FAST_RETRY + 1
        assert len(failure.history) == failure.attempts
        for pair in PAIRS:
            if pair is poisoned:
                continue
            assert not verdicts[pair].quarantined
            assert _signature(verdicts[pair]) == _signature(
                serial_baseline[pair]
            ), f"verdict for {pair} diverged from the fault-free serial run"

    def test_transient_crash_recovers_invisibly(self, serial_baseline):
        plan = FaultPlan([FaultSpec(kind="crash", index=0, attempts=1)])
        with ParallelCampaign(jobs=1, chunk_size=4, faults=plan) as engine:
            verdicts = engine.fuzz("figure1", PAIRS[:3], trials=4)
        assert engine.last_report.retried == 1
        assert not engine.failures
        for pair in PAIRS[:3]:
            assert _signature(verdicts[pair]) == _signature(serial_baseline[pair])

    def test_malformed_result_is_retried(self, serial_baseline):
        plan = FaultPlan([FaultSpec(kind="malformed", index=1, attempts=1)])
        with ParallelCampaign(jobs=1, chunk_size=4, faults=plan) as engine:
            verdicts = engine.fuzz("figure1", PAIRS[:3], trials=4)
        assert engine.last_report.retried == 1
        assert not engine.failures
        assert _signature(verdicts[PAIRS[1]]) == _signature(
            serial_baseline[PAIRS[1]]
        )

    def test_deadline_quarantines_a_persistent_hang(self):
        plan = FaultPlan([FaultSpec(kind="hang", index=0, attempts=99, delay=30.0)])
        verdicts = fuzz_races(
            figure1.build(),
            [figure1.REAL_PAIR],
            trials=2,
            deadline=0.2,
            retries=1,
            faults=plan,
        )
        verdict = verdicts[figure1.REAL_PAIR]
        assert verdict.quarantined
        assert verdict.trials == 0
        assert verdict.errors[0].kind == "deadline"
        assert "deadline" in verdict.errors[0].message

    def test_persistent_pool_kill_goes_inline(self, serial_baseline, monkeypatch):
        # One death halves jobs=2 to 1, and width 1 is inline: the rest
        # of the batch runs in this process, never in a one-worker pool.
        widths = []

        def pool(max_workers):
            widths.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers)

        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", pool)
        plan = FaultPlan([FaultSpec(kind="pool_kill", index=0, attempts=99)])
        with ParallelCampaign(jobs=2, chunk_size=4, faults=plan) as engine:
            verdicts = engine.fuzz("figure1", PAIRS[:4], trials=4)
        assert engine.jobs == 1
        assert engine.pool_deaths == 1
        assert widths == [2]
        # The killer itself ends quarantined (inline it degrades to a
        # crash), everyone else completes with serial-identical verdicts.
        assert verdicts[PAIRS[0]].quarantined
        for pair in PAIRS[1:4]:
            assert not verdicts[pair].quarantined
            assert _signature(verdicts[pair]) == _signature(serial_baseline[pair])

    def test_a_retry_runs_at_once(self):
        # A retry re-runs the same seeds, so waiting before it could not
        # change its outcome: six inline attempts take no longer than six
        # runs of the chunk.
        pairs = [figure1.REAL_PAIR, figure1.FALSE_PAIR]
        baseline = fuzz_races(figure1.build(), pairs, trials=2)
        plan = parse_fault_plan("fuzz:0:crash:99")
        start = time.perf_counter()
        with ParallelCampaign(jobs=1, retries=5, faults=plan) as engine:
            verdicts = engine.fuzz("figure1", pairs, trials=2)
        elapsed = time.perf_counter() - start
        [failure] = engine.failures
        assert failure.index == 0
        assert failure.attempts == 6
        assert len(failure.history) == 6
        assert verdicts[pairs[0]].quarantined
        assert _signature(verdicts[pairs[1]]) == _signature(baseline[pairs[1]])
        assert elapsed < 0.3

    def test_retry_due_during_a_slow_submission_is_not_a_stall(
        self, monkeypatch
    ):
        # After the pool death, the retries are submitted one slow call
        # at a time to the rebuilt 2-wide pool; time spent submitting
        # must not read as a stalled pool.
        submit = ProcessPoolExecutor.submit

        def slow_submit(pool, *args, **kwargs):
            time.sleep(0.05)
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", slow_submit)
        plan = FaultPlan([FaultSpec(kind="pool_kill", index=0, attempts=1)])
        with ParallelCampaign(
            jobs=4, chunk_size=4, deadline=1.0, faults=plan
        ) as engine:
            engine.fuzz("figure1", PAIRS[:4], trials=4)
        assert not engine.failures
        assert engine.pool_deaths == 1
        assert engine.jobs == 2

    def test_detect_phase_quarantine_keeps_other_seeds(self):
        plan = FaultPlan(
            [FaultSpec(kind="crash", index=1, phase="detect", attempts=99)]
        )
        with ParallelCampaign(jobs=1, faults=plan, retries=0) as engine:
            report = engine.detect("figure1", seeds=[0, 1, 2])
        assert len(engine.failures) == 1
        assert engine.failures[0].phase == "detect"
        # Seeds 0 and 2 still contributed: the union covers both pairs.
        assert figure1.REAL_PAIR in report.pairs
        assert figure1.FALSE_PAIR in report.pairs

    def test_a_pool_death_halves_the_one_jobs(self):
        # The detect-phase pool death halves the campaign's width to 1, so
        # Phase 2 runs inline: its pool_kill fault degrades to a crash
        # attempt there, charged and retried, not a second pool death.
        def both_phases(engine):
            pairs = engine.detect("figure1", seeds=[0, 1]).pairs
            return pairs, engine.fuzz("figure1", pairs, trials=4)

        with ParallelCampaign(jobs=2) as clean:
            expected_pairs, expected = both_phases(clean)
        plan = parse_fault_plan("detect:0:pool_kill:1,fuzz:0:pool_kill:1")
        with collecting() as telemetry, ParallelCampaign(
            jobs=2, faults=plan
        ) as engine:
            pairs, verdicts = both_phases(engine)
        assert telemetry.counter("supervisor.failed_attempts.crash") == 1
        assert engine.last_report.retried == 1
        assert engine.jobs == 1
        assert engine.pool_deaths == 1
        assert not engine.failures
        assert pairs == expected_pairs
        assert set(verdicts) == set(expected)
        for pair, verdict in expected.items():
            assert _signature(verdicts[pair]) == _signature(verdict)

    def test_failures_reach_the_campaign_report(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=0, attempts=99)])
        campaign = race_directed_test(
            figure1.build(), trials=4, chunk_size=4, retries=0, faults=plan
        )
        assert campaign.quarantined
        assert len(campaign.failures) == 1
        assert "quarantined" in str(campaign)
        assert campaign.failures[0].describe() in str(campaign)


class TestInFlightCap:
    """At most ``2 * jobs`` futures are in flight."""

    def test_a_pool_death_charges_only_submitted_tasks(self, serial_baseline):
        # 40 chunks; the pool dies on the first.  Only what was in flight
        # (at most 4 at jobs=2) is charged a failed attempt, then the
        # batch finishes inline.
        plan = FaultPlan([FaultSpec(kind="pool_kill", index=0, attempts=1)])
        with ParallelCampaign(jobs=2, chunk_size=2, faults=plan) as engine:
            verdicts = engine.fuzz("figure1", PAIRS, trials=4)
        assert engine.pool_deaths == 1
        assert engine.last_report.retried <= 4  # 2 * jobs
        assert not engine.failures
        for pair in PAIRS:
            assert _signature(verdicts[pair]) == _signature(serial_baseline[pair])

    def test_outstanding_futures_never_exceed_the_cap(self, monkeypatch):
        high_water = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                self.futures = []

            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                self.futures.append(future)
                high_water.append(sum(not f.done() for f in self.futures))
                return future

        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", CountingPool)
        with ParallelCampaign(jobs=2, chunk_size=2) as engine:
            engine.fuzz("figure1", PAIRS, trials=4)
        assert len(high_water) == 40
        assert max(high_water) <= 4  # 2 * jobs


class TestCheckpointResume:
    def test_killed_campaign_resumes_from_journal(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        pairs = [figure1.REAL_PAIR, figure1.FALSE_PAIR]
        baseline = fuzz_races(figure1.build(), pairs, trials=6)

        full = fuzz_races(
            figure1.build(), pairs, trials=6, chunk_size=2, checkpoint=path
        )
        for pair in pairs:
            assert _signature(full[pair]) == _signature(baseline[pair])
        lines = open(path).read().splitlines()
        assert len(lines) == 6  # 3 chunks per pair

        # Simulate a campaign killed after two chunks: truncate the journal.
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:2]) + "\n")
        with ParallelCampaign(jobs=1, chunk_size=2, checkpoint=path) as engine:
            resumed = engine.fuzz("figure1", pairs, trials=6)
            assert engine.last_report.cached == 2  # only 4 tasks re-ran
        for pair in pairs:
            assert _signature(resumed[pair]) == _signature(baseline[pair])
        # The journal was replenished for the next resume.
        assert len(open(path).read().splitlines()) == 6

    def test_completed_journal_skips_all_work(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        pairs = [figure1.REAL_PAIR]
        first = fuzz_races(
            figure1.build(), pairs, trials=4, chunk_size=2, checkpoint=path
        )
        with ParallelCampaign(jobs=1, chunk_size=2, checkpoint=path) as engine:
            second = engine.fuzz("figure1", pairs, trials=4)
            assert engine.last_report.cached == 2
        assert _signature(first[pairs[0]]) == _signature(second[pairs[0]])

    def test_protocol_change_misses_the_cache(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        pairs = [figure1.REAL_PAIR]
        fuzz_races(figure1.build(), pairs, trials=4, chunk_size=2, checkpoint=path)
        # Different max_steps -> different task keys -> full re-run.
        with ParallelCampaign(jobs=1, chunk_size=2, checkpoint=path) as engine:
            engine.fuzz("figure1", pairs, trials=4, max_steps=500_000)
            assert engine.last_report.cached == 0

    def test_resume_works_under_a_pool(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        pairs = [figure1.REAL_PAIR, figure1.FALSE_PAIR]
        baseline = fuzz_races(figure1.build(), pairs, trials=6)
        fuzz_races(
            figure1.build(), pairs, trials=6, chunk_size=3, checkpoint=path
        )
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:1]) + "\n")
        resumed = fuzz_races(
            figure1.build(),
            pairs,
            trials=6,
            chunk_size=3,
            checkpoint=path,
            jobs=2,
        )
        for pair in pairs:
            assert _signature(resumed[pair]) == _signature(baseline[pair])

    def test_corrupt_record_reruns_that_task(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        pairs = [figure1.REAL_PAIR]
        baseline = fuzz_races(figure1.build(), pairs, trials=2)
        fuzz_races(figure1.build(), pairs, trials=2, chunk_size=2, checkpoint=path)
        record = json.loads(open(path).read().splitlines()[0])
        record["result"] = {"not": "a verdict"}
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        resumed = fuzz_races(
            figure1.build(), pairs, trials=2, chunk_size=2, checkpoint=path
        )
        assert _signature(resumed[pairs[0]]) == _signature(baseline[pairs[0]])


class TestTruncation:
    """Satellite: livelocked trials truncate; they never abort a campaign."""

    def test_tiny_budgets_never_escape_the_fuzzer(self):
        # Before the postponing.py guard, race resolution could step past
        # the budget and raise ExecutionLimitExceeded out of the trial.
        truncated = 0
        for max_steps in (4, 6, 8, 10, 14):
            fuzzer = RaceFuzzer(figure1.REAL_PAIR, max_steps=max_steps)
            for seed in range(6):
                outcome = fuzzer.run(figure1.build(), seed=seed)
                truncated += outcome.result.truncated
        assert truncated > 0

    def test_truncated_aggregates_identical_serial_vs_parallel(self):
        pairs = [figure1.REAL_PAIR, figure1.FALSE_PAIR]
        serial = fuzz_races(figure1.build(), pairs, trials=6, max_steps=10)
        parallel = fuzz_races(
            figure1.build(), pairs, trials=6, max_steps=10, jobs=4, chunk_size=2
        )
        assert sum(v.truncated for v in serial.values()) > 0
        for pair in pairs:
            assert _signature(serial[pair]) == _signature(parallel[pair])

    def test_truncation_is_reported_not_fatal(self):
        verdicts = fuzz_races(
            figure1.build(), [figure1.REAL_PAIR], trials=3, max_steps=10
        )
        verdict = verdicts[figure1.REAL_PAIR]
        assert verdict.trials == 3
        assert verdict.truncated > 0
        assert "truncated=" in verdict.describe()


class TestResourceGovernance:
    """Memory budgets and the disk and memory failure kinds."""

    def test_transient_disk_full_recovers(self, serial_baseline):
        plan = FaultPlan([FaultSpec(kind="disk_full", index=0, attempts=1)])
        with collecting() as telemetry, ParallelCampaign(
            jobs=1, chunk_size=4, faults=plan
        ) as engine:
            verdicts = engine.fuzz("figure1", PAIRS[:3], trials=4)
        assert engine.last_report.retried == 1
        assert not engine.failures
        # ENOSPC is counted as a disk-kind failed attempt.
        assert telemetry.counter("supervisor.failed_attempts.disk") == 1
        for pair in PAIRS[:3]:
            assert _signature(verdicts[pair]) == _signature(serial_baseline[pair])

    def test_persistent_disk_full_quarantines_as_disk(self):
        plan = FaultPlan([FaultSpec(kind="disk_full", index=0, attempts=99)])
        with ParallelCampaign(
            jobs=1, chunk_size=4, faults=plan, retries=0
        ) as engine:
            engine.fuzz("figure1", PAIRS[:2], trials=4)
        assert [f.kind for f in engine.failures] == ["disk"]

    def _fake_rss(self, monkeypatch, readings):
        """Deterministic ru_maxrss: the supervisor reads (baseline, peak)
        once per attempt when a budget is armed."""
        import itertools

        from repro.core import supervisor

        feed = itertools.chain(readings, itertools.repeat(readings[-1]))
        monkeypatch.setattr(supervisor, "_maxrss_mb", lambda: next(feed))

    def test_blown_memory_budget_is_retried(self, serial_baseline, monkeypatch):
        # Attempt 0 of task 0 grows peak RSS 100 -> 400 MiB (over budget);
        # every later reading holds at 400, so retries see a zero delta.
        self._fake_rss(monkeypatch, [100.0, 400.0, 400.0])
        with collecting() as telemetry, ParallelCampaign(
            jobs=1, chunk_size=4, memory_budget_mb=50
        ) as engine:
            verdicts = engine.fuzz("figure1", PAIRS[:3], trials=4)
        assert engine.last_report.retried == 1
        assert not engine.failures
        assert telemetry.counter("supervisor.failed_attempts.memory") == 1
        for pair in PAIRS[:3]:
            assert _signature(verdicts[pair]) == _signature(serial_baseline[pair])

    def test_leaky_task_quarantines_as_memory(self, monkeypatch):
        # Every attempt of every task blows the budget: alternating
        # baseline/peak readings that always grow by 300 MiB.
        import itertools

        from repro.core import supervisor

        feed = itertools.count(100.0, 300.0)
        monkeypatch.setattr(supervisor, "_maxrss_mb", lambda: next(feed))
        with collecting() as telemetry, ParallelCampaign(
            jobs=1, chunk_size=4, memory_budget_mb=50, retries=0
        ) as engine:
            engine.fuzz("figure1", PAIRS[:2], trials=4)
        assert sorted(f.kind for f in engine.failures) == ["memory", "memory"]
        assert telemetry.counter("supervisor.failed_attempts.memory") == 2

    def test_memory_budget_validation(self):
        with pytest.raises(ValueError, match="memory_budget_mb"):
            CampaignSupervisor(memory_budget_mb=0)

    def test_unbudgeted_tasks_never_read_rusage(self, monkeypatch):
        from repro.core import supervisor

        def boom():
            raise AssertionError("rusage read without a budget")

        monkeypatch.setattr(supervisor, "_maxrss_mb", boom)
        with ParallelCampaign(jobs=1, chunk_size=4) as engine:
            engine.fuzz("figure1", PAIRS[:1], trials=4)
        assert not engine.failures
