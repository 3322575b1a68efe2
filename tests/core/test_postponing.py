"""The Algorithm 1 main loop: postponement, releases, watchdog, deadlocks."""

from repro.core import RaceFuzzer, detect_races
from repro.core.postponing import FuzzResult, PostponingDriver
from repro.obs import collecting
from repro.runtime import (
    Lock,
    Program,
    SharedVar,
    join_all,
    ops,
    spawn_all,
)
from repro.runtime.statement import Statement, StatementPair
from repro.workloads import figure1, sor
import pytest


class TestForcedRelease:
    def test_lone_postponed_thread_is_released_and_completes(self):
        """Figure 1 Case 1: a thread postponed at a racing statement whose
        partner never arrives must be released (line 27) and 'execute the
        remaining statements'."""

        def factory():
            x = SharedVar("x", 0)

            def only():
                yield x.write(1, label="racy")
                yield x.write(2, label="after")

            def main():
                handle = yield ops.spawn(only)
                yield ops.join(handle)

            return main()

        pair = StatementPair(Statement(label="racy"), Statement(label="nowhere"))
        fuzzer = RaceFuzzer(pair, max_steps=10_000)
        outcome = fuzzer.run(Program(factory), seed=0)
        assert not outcome.created
        assert not outcome.result.truncated
        assert not outcome.result.deadlock
        assert outcome.forced_releases >= 1

    def test_release_does_not_permanently_exempt(self):
        """After a forced release executes one statement, a later arrival at
        the racing statement must be postponed again (and can then race)."""

        def factory():
            x = SharedVar("x", 0)

            def repeat_writer():
                for _ in range(5):
                    yield x.write(1, label="w")

            def reader():
                for _ in range(5):
                    yield ops.yield_point()
                yield x.read(label="r")

            def main():
                handles = yield from spawn_all([repeat_writer, reader])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="w"), Statement(label="r"))
        created = sum(
            RaceFuzzer(pair, max_steps=10_000).run(Program(factory), seed=s).created
            for s in range(10)
        )
        assert created >= 8  # nearly every run should still create the race


class TestWatchdog:
    def test_watchdog_frees_thread_blocked_behind_spin_loop(self):
        """The moldyn livelock pattern: one thread spins on a flag that only
        the postponed thread can set.  The watchdog must unwedge it."""

        def factory():
            flag = SharedVar("flag", 0)

            def setter():
                yield flag.write(1, label="set-flag")

            def spinner():
                while (yield flag.read()) == 0:
                    yield ops.yield_point()

            def main():
                handles = yield from spawn_all([setter, spinner])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="set-flag"), Statement(label="other"))
        fuzzer = RaceFuzzer(pair, patience=100, max_steps=50_000)
        outcome = fuzzer.run(Program(factory), seed=0)
        assert not outcome.result.truncated
        assert not outcome.result.deadlock
        assert outcome.watchdog_releases >= 1


class TestResolution:
    def test_both_resolution_orders_occur_across_seeds(self):
        def factory():
            x = SharedVar("x", 0)

            def writer():
                yield x.write(1, label="W")

            def reader():
                yield x.read(label="R")

            def main():
                handles = yield from spawn_all([writer, reader])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="W"), Statement(label="R"))
        arrivals = set()
        for seed in range(30):
            outcome = RaceFuzzer(pair).run(Program(factory), seed=seed)
            if outcome.created:
                arrivals.add(outcome.hits[0].executed_arrival)
        assert arrivals == {True, False}

    def test_multiple_readers_in_r_set(self):
        """Algorithm 2: R can contain several postponed readers; resolving
        against them reports one hit per rival."""

        def factory():
            x = SharedVar("x", 0)

            def reader():
                yield x.read(label="R")

            def writer():
                for _ in range(6):
                    yield ops.yield_point()
                yield x.write(1, label="W")

            def main():
                handles = yield from spawn_all([reader, reader, writer])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="W"), Statement(label="R"))
        multi = 0
        for seed in range(30):
            outcome = RaceFuzzer(pair).run(Program(factory), seed=seed)
            if len(outcome.hits) >= 2 and len({h.step for h in outcome.hits}) == 1:
                multi += 1
        assert multi >= 1, "never saw a multi-rival resolution"

    def test_same_statement_self_race_detected(self):
        """Two threads at the SAME statement writing one location race."""

        def factory():
            x = SharedVar("x", 0)

            def writer():
                yield x.write(1, label="W")

            def main():
                handles = yield from spawn_all([writer, writer])
                yield from join_all(handles)

            return main()

        stmt = Statement(label="W")
        outcomes = [
            RaceFuzzer(StatementPair(stmt, stmt)).run(Program(factory), seed=s)
            for s in range(10)
        ]
        assert all(o.created for o in outcomes)
        assert all(o.pairs_created == {StatementPair(stmt, stmt)} for o in outcomes)


class TestDriverValidation:
    def test_rejects_bad_preemption(self):
        with pytest.raises(ValueError):
            RaceFuzzer(
                StatementPair(Statement(label="a"), Statement(label="b")),
                preemption="never",
            )

    def test_base_class_hooks_are_abstract(self):
        driver = PostponingDriver()
        with pytest.raises(NotImplementedError):
            driver.is_target(None, 0)
        with pytest.raises(NotImplementedError):
            driver.conflicting(None, 0, [])

    def test_fuzzresult_str(self):
        def factory():
            def main():
                yield ops.yield_point()

            return main()

        pair = StatementPair(Statement(label="a"), Statement(label="b"))
        outcome = RaceFuzzer(pair).run(Program(factory), seed=0)
        assert "0 hit(s)" in str(outcome)
        assert isinstance(outcome, FuzzResult)


class TestDeadlockReporting:
    def test_fuzzer_surfaces_engine_deadlock(self):
        def factory():
            a, b = Lock("A"), Lock("B")

            def forward():
                yield a.acquire()
                yield ops.yield_point()
                yield b.acquire()

            def backward():
                yield b.acquire()
                yield ops.yield_point()
                yield a.acquire()

            def main():
                handles = yield from spawn_all([forward, backward])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="x"), Statement(label="y"))
        deadlocked = sum(
            RaceFuzzer(pair).run(Program(factory), seed=s).deadlock
            for s in range(20)
        )
        assert deadlocked == 20  # neither thread ever releases


class TestStallSteps:
    """``FuzzResult.stall_steps``: the exact patience cost of a trial."""

    SEEDS = range(3)

    def _sor_pair(self):
        # sor's boundary pairs are ordered by a lock-protected flag, so a
        # postponed side waits out the watchdog on every trial.
        return sor.build, detect_races(sor.build(), seeds=(0,)).pairs[0]

    def test_each_release_waited_more_than_patience(self):
        build, pair = self._sor_pair()
        fuzzer = RaceFuzzer(pair)
        for seed in self.SEEDS:
            outcome = fuzzer.run(build(), seed=seed)
            assert outcome.watchdog_releases >= 1
            assert outcome.stall_steps >= (
                (fuzzer.patience + 1) * outcome.watchdog_releases
            )

    def test_zero_without_watchdog_releases(self):
        fuzzer = RaceFuzzer(figure1.REAL_PAIR)
        for seed in self.SEEDS:
            outcome = fuzzer.run(figure1.build(), seed=seed)
            assert outcome.watchdog_releases == 0
            assert outcome.stall_steps == 0

    def test_telemetry_counter_sums_the_trials(self):
        build, pair = self._sor_pair()
        with collecting() as telemetry:
            outcomes = [
                RaceFuzzer(pair).run(build(), seed=seed) for seed in self.SEEDS
            ]
        counters = telemetry.snapshot().counters
        assert counters["fuzz.stall_steps"] == sum(o.stall_steps for o in outcomes)
        assert counters["fuzz.stall_steps"] > 0
