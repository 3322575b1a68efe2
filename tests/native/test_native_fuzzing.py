"""The two-phase pipeline over real Python threads — the engine's own."""

import pytest

from repro.core import (
    RaceFuzzer,
    RandomScheduler,
    detect_races,
    fuzz_pair,
    race_directed_test,
)
from repro.native import native_program
from repro.runtime import Execution
from repro.runtime.statement import Statement, StatementPair


def lost_update_program(rt):
    """Two tellers race on balance; a locked audit counter does not race."""
    balance = rt.var("balance", 100)
    audit = rt.var("audit", 0)
    lock = rt.lock("L")

    def teller(amount):
        current = rt.read(balance, label="teller-read")
        rt.write(balance, current + amount, label="teller-write")
        rt.acquire(lock)
        rt.write(audit, rt.read(audit) + 1)
        rt.release(lock)

    workers = [rt.spawn(teller, 10), rt.spawn(teller, -10)]
    for worker in workers:
        rt.join(worker)
    rt.check(rt.read(balance) == 100, "lost update")


def flag_ordered_program(rt):
    """Figure-1 pattern over native threads: a real false alarm."""
    data = rt.var("data", None)
    ready = rt.var("ready", 0)
    lock = rt.lock("flag")

    def producer():
        rt.write(data, "payload", label="produce")
        rt.acquire(lock)
        rt.write(ready, 1)
        rt.release(lock)

    def consumer():
        while True:
            rt.acquire(lock)
            flag = rt.read(ready)
            rt.release(lock)
            if flag:
                break
            rt.yield_point()
        value = rt.read(data, label="consume")
        rt.check(value == "payload", "saw unpublished data")

    handles = [rt.spawn(producer), rt.spawn(consumer)]
    for handle in handles:
        rt.join(handle)


LOST_UPDATE = native_program(lost_update_program)
FLAG_ORDERED = native_program(flag_ordered_program)
READ_WRITE = StatementPair(
    Statement(label="teller-read"), Statement(label="teller-write")
)
FALSE_PAIR = StatementPair(Statement(label="produce"), Statement(label="consume"))


class TestPhase1Native:
    def test_hybrid_finds_the_balance_pairs_only(self):
        report = detect_races(LOST_UPDATE, seeds=range(5))
        sites = {frozenset((p.first.site, p.second.site)) for p in report.pairs}
        assert frozenset(("teller-read", "teller-write")) in sites
        assert frozenset(("teller-write",)) in sites  # the w/w self-pair
        # the locked audit counter must not be reported
        for pair in report.pairs:
            assert "audit" not in str(pair)
        assert len(report) == 2
        assert report.program == "lost_update_program"

    def test_flag_pattern_is_a_hybrid_false_alarm(self):
        report = detect_races(FLAG_ORDERED, seeds=range(5))
        assert FALSE_PAIR in report.evidence


class TestPhase2Native:
    def test_real_race_created_with_probability_one(self):
        outcomes = fuzz_pair(LOST_UPDATE, READ_WRITE, range(25))
        assert all(outcome.pairs_created for outcome in outcomes)
        crashed = sum(bool(outcome.crashes) for outcome in outcomes)
        assert crashed >= 5  # the bad resolution order loses the update

    def test_false_alarm_never_created(self):
        outcomes = fuzz_pair(FLAG_ORDERED, FALSE_PAIR, range(15))
        assert not any(outcome.pairs_created for outcome in outcomes)
        assert not any(outcome.crashes for outcome in outcomes)
        assert not any(outcome.deadlock for outcome in outcomes)

    def test_directed_beats_passive_on_crash_rate(self):
        passive = sum(
            bool(Execution(LOST_UPDATE, seed=seed).run(RandomScheduler()).crashes)
            for seed in range(25)
        )
        directed = sum(
            bool(outcome.crashes)
            for outcome in fuzz_pair(LOST_UPDATE, READ_WRITE, range(25))
        )
        assert directed >= passive

    def test_scheduler_validation(self):
        with pytest.raises(ValueError):
            RaceFuzzer(set())

    def test_directed_replay_is_deterministic(self):
        def signature(seed):
            outcome = RaceFuzzer(READ_WRITE).run(LOST_UPDATE, seed=seed)
            return (
                outcome.result.steps,
                len(outcome.hits),
                tuple(outcome.result.exception_types),
            )

        for seed in range(5):
            assert signature(seed) == signature(seed)


class TestPipelineNative:
    def test_race_directed_test_confirms_only_the_real_race(self):
        campaign = race_directed_test(LOST_UPDATE, trials=10)
        assert READ_WRITE in campaign.real_pairs
        false_alarm = race_directed_test(
            FLAG_ORDERED, pairs=[FALSE_PAIR], trials=10
        )
        assert false_alarm.verdicts[FALSE_PAIR].times_created == 0
        assert FALSE_PAIR not in false_alarm.real_pairs


class TestWatchdogNative:
    def test_lone_postponed_thread_is_released(self):
        """A pair whose partner never arrives: the run must still finish."""

        def program(rt):
            x = rt.var("x", 0)

            def only():
                rt.write(x, 1, label="lonely")
                rt.write(x, 2)

            handle = rt.spawn(only)
            rt.join(handle)

        pair = StatementPair(Statement(label="lonely"), Statement(label="never"))
        outcomes = fuzz_pair(
            native_program(program), pair, range(5), max_steps=20_000
        )
        for outcome in outcomes:
            assert not outcome.result.truncated
            assert not outcome.deadlock
            assert not outcome.pairs_created
