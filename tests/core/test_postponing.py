"""The Algorithm 1 main loop: postponement, releases, watchdog, deadlocks."""

import hashlib

from repro import workloads
from repro.core import AtomicityFuzzer, DeadlockFuzzer, RaceFuzzer, detect_races
from repro.core.atomicity_detect import detect_atomic_regions
from repro.core.deadlockfuzzer import detect_lock_order_inversions
from repro.core.postponing import FuzzResult, PollWatch, PostponingDriver
from repro.obs import collecting
from repro.runtime import (
    Execution,
    Lock,
    Program,
    SharedVar,
    join_all,
    ops,
    spawn_all,
)
from repro.runtime.statement import Statement, StatementPair
from repro.workloads import figure1, figure2, sor
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


def spin_program(*, spinner_writes=False, idler=None):
    """One thread sets a flag that another spins on: the spin-wait
    livelock pattern.  With ``spinner_writes`` the spinner also writes on every
    iteration, so it never looks idle; ``idler`` adds a third thread."""

    def factory():
        flag = SharedVar("flag", 0)
        spins = SharedVar("spins", 0)

        def setter():
            yield flag.write(1, label="set-flag")

        def spinner():
            while (yield flag.read()) == 0:
                if spinner_writes:
                    yield spins.write(1)
                yield ops.yield_point()

        def main():
            bodies = [setter, spinner] + ([idler] if idler else [])
            handles = yield from spawn_all(bodies)
            yield from join_all(handles)

        return main()

    return Program(factory)


#: the setter's write paired with a statement no thread reaches, so the
#: setter waits in the postponed set until a release frees it.
LONELY_PAIR = StatementPair(Statement(label="set-flag"), Statement(label="other"))


class TestWatchdog:
    def test_watchdog_frees_thread_blocked_behind_spin_loop(self):
        """The spin-wait livelock pattern: one thread spins on a flag that
        only the postponed thread can set.  The spinner only polls, so the idle
        rule frees the setter long before the watchdog would."""
        fuzzer = RaceFuzzer(LONELY_PAIR, patience=100, max_steps=50_000)
        outcome = fuzzer.run(spin_program(), seed=0)
        assert not outcome.result.truncated
        assert not outcome.result.deadlock
        assert outcome.idle_releases >= 1
        assert outcome.watchdog_releases == 0

    def test_watchdog_backstop_frees_a_writing_spinner(self):
        """A spinner that writes on every iteration changes state, so it is
        never polling: only ``patience`` can free the setter."""
        fuzzer = RaceFuzzer(LONELY_PAIR, patience=100, max_steps=50_000)
        for seed in range(5):
            outcome = fuzzer.run(spin_program(spinner_writes=True), seed=seed)
            assert not outcome.result.truncated
            assert not outcome.result.deadlock
            assert outcome.watchdog_releases >= 1
            assert outcome.idle_releases == 0


class TestIdleRelease:
    """The widened lines 26-28: release once every other thread polls."""

    def test_read_free_yield_loop_is_not_polling(self):
        """Figure 2's padding yields at one statement but reads nothing, so
        the postponed writer waits and the race is created every time."""
        fuzzer = RaceFuzzer(figure2.RACING_PAIR)
        outcomes = [fuzzer.run(figure2.build(40), seed=s) for s in range(100)]
        assert sum(o.created for o in outcomes) == 100
        assert sum(o.idle_releases for o in outcomes) == 0

    @pytest.mark.parametrize("timer", ["sleep", "timed-wait"])
    def test_timer_blocks_the_release(self, timer):
        """A sleeper or timed waiter changes state on its own later, so
        the spinner's idleness proves nothing while one is alive."""
        monitor = Lock("monitor")

        def sleeper():
            yield ops.sleep(10_000)

        def timed_waiter():
            yield monitor.acquire()
            yield monitor.wait(timeout=10_000)
            yield monitor.release()

        idler = sleeper if timer == "sleep" else timed_waiter
        fuzzer = RaceFuzzer(LONELY_PAIR, patience=100, max_steps=50_000)
        outcome = fuzzer.run(spin_program(idler=idler), seed=0)
        assert outcome.idle_releases == 0
        assert outcome.watchdog_releases >= 1

    def test_idle_releases_replay_from_the_seed(self):
        pair = detect_races(sor.build(), seeds=(0,)).pairs[0]
        for seed in range(5):
            first, again = (RaceFuzzer(pair).run(sor.build(), seed=seed) for _ in range(2))
            assert first.idle_releases >= 1
            assert first.idle_releases == again.idle_releases
            assert first.result.steps == again.result.steps
            assert first.postpones == again.postpones

    def test_untracked_state_change_is_not_mistaken_for_idleness(self):
        """Polling is tracked only while a thread is postponed.  The writer
        is released once, changes the flag while nothing is postponed,
        and is postponed again: the spinner's streak from before must not
        count, or the writer is released before the reader can arrive."""

        def factory():
            flag, x = SharedVar("flag", 0), SharedVar("x", 0)

            def writer():
                yield x.write(0, label="W")
                yield flag.write(1)
                yield x.write(1, label="W")

            def reader():
                while (yield flag.read()) == 0:
                    yield ops.yield_point()
                yield x.read(label="R")

            def main():
                handles = yield from spawn_all([writer, reader])
                yield from join_all(handles)

            return main()

        fuzzer = RaceFuzzer(StatementPair(Statement(label="W"), Statement(label="R")))
        outcomes = [fuzzer.run(Program(factory), seed=s) for s in range(20)]
        assert all(o.created for o in outcomes)
        assert all(o.idle_releases >= 1 for o in outcomes)

    def test_race_resolution_ends_every_polling_streak(self):
        """Two setters race at one statement while a third thread spins on
        the flag they set.  Once the race resolves, the spinner sees the
        flag and leaves: no idle release may fire on its stale streak."""

        def factory():
            flag = SharedVar("flag", 0)

            def setter():
                yield flag.write(1, label="A")

            def spinner():
                while (yield flag.read()) == 0:
                    yield ops.yield_point()

            def main():
                handles = yield from spawn_all([setter, setter, spinner])
                yield from join_all(handles)

            return main()

        stmt = Statement(label="A")
        fuzzer = RaceFuzzer(StatementPair(stmt, stmt))
        outcomes = [fuzzer.run(Program(factory), seed=s) for s in range(20)]
        assert all(o.created for o in outcomes)
        assert sum(o.idle_releases for o in outcomes) == 0


class TestPollWatch:
    @staticmethod
    def _watched(*bodies):
        """An execution with ``bodies`` spawned as tids 1.., and a step
        function that feeds each op to a fresh :class:`PollWatch`."""

        def factory():
            def main():
                for body in bodies:
                    yield ops.spawn(body)

            return main()

        execution = Execution(Program(factory), seed=0)
        execution.start()
        while 0 in execution.alive_tids():
            execution.step(0)
        watch = PollWatch()

        def step(tid, times=1):
            for _ in range(times):
                watch.note(execution, execution.threads[tid])
                execution.step(tid)

        return watch, step

    def test_state_change_ends_a_polling_streak(self):
        flag = SharedVar("flag", 0)

        def spinner():
            for _ in range(4):
                yield flag.read()
                yield ops.yield_point()

        def writer():
            yield flag.write(1)

        watch, step = self._watched(spinner, writer)
        step(1, times=4)  # read, yield, read, yield
        assert watch.polling(1)
        step(2)  # the write is a state change
        assert not watch.polling(1)
        step(1, times=2)  # the streak's earlier yield predates the write
        assert not watch.polling(1)
        step(1, times=2)  # a fresh streak
        assert watch.polling(1)

    def test_yields_at_two_statements_are_not_polling(self):
        flag = SharedVar("flag", 0)

        def spinner():
            for _ in range(4):
                yield flag.read()
                yield ops.yield_point()
                yield flag.read()
                yield ops.yield_point()

        watch, step = self._watched(spinner)
        for _ in range(8):
            step(1)
            assert not watch.polling(1)


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
            driver.target_probe(None)
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

    def _backstop(self):
        # The writing spinner never polls, so the postponed setter waits
        # out the watchdog on every trial.
        return (
            lambda: spin_program(spinner_writes=True),
            RaceFuzzer(LONELY_PAIR, patience=100, max_steps=50_000),
        )

    def test_each_release_waited_more_than_patience(self):
        build, fuzzer = self._backstop()
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
        build, fuzzer = self._backstop()
        with collecting() as telemetry:
            outcomes = [fuzzer.run(build(), seed=seed) for seed in self.SEEDS]
        counters = telemetry.snapshot().counters
        assert counters["fuzz.stall_steps"] == sum(o.stall_steps for o in outcomes)
        assert counters["fuzz.stall_steps"] > 0

    def test_idle_counter_sums_the_trials(self):
        pair = detect_races(sor.build(), seeds=(0,)).pairs[0]
        with collecting() as telemetry:
            outcomes = [
                RaceFuzzer(pair).run(sor.build(), seed=seed) for seed in self.SEEDS
            ]
        counters = telemetry.snapshot().counters
        assert counters["fuzz.idle_releases"] == sum(o.idle_releases for o in outcomes)
        assert counters["fuzz.idle_releases"] > 0
        assert counters.get("fuzz.watchdog_releases", 0) == 0


def _trial_digest(outcome: FuzzResult) -> str:
    """Everything a Phase-2 trial decided, in a form stable across processes
    (statement sites, not location uids).  A crash names the function it
    escaped from, not the line, so the pin survives edits to library code
    such as ``synchronized``."""
    result = outcome.result
    return repr(
        [
            [(h.step, h.tids, str(h.pair), h.executed_arrival) for h in outcome.hits],
            (
                outcome.forced_releases, outcome.watchdog_releases,
                outcome.idle_releases, outcome.stall_steps, outcome.postpones,
                outcome.coin_flips, outcome.postponed_high_water,
            ),
            result.steps,
            [
                (
                    c.tid, c.name, c.error.type, c.error.message,
                    c.stmt and (c.stmt.label or c.stmt.func), c.step,
                )
                for c in result.crashes
            ],
            (result.deadlock, result.deadlocked_tids, result.truncated),
        ]
    )


def _campaign_digest(drivers, program, seeds=range(5)) -> str:
    digest = hashlib.sha256()
    for driver in drivers:
        for seed in seeds:
            digest.update(_trial_digest(driver.run(program, seed=seed)).encode())
            digest.update(b"\n")
    return digest.hexdigest()


#: sha256 of every trial of every Phase-1 pair, seeds 0-4.  A digest moves
#: only when some trial's schedule moves; if that is the point of a change,
#: print ``_campaign_digest`` for the row and update it here.
GOLDEN_PHASE2 = {
    "cache4j": "845f13ed849db7451d00bbcab30037c9f99e235cc6f179fe92fce344913347b6",
    "vector": "baa750a0bbd579cc2cd5e19fe57377da9c1aeaeef55ce9f5dc53b24399e629e1",
    "linkedlist": "8aa063297a376cf42f19e778661d842f586dc49a8def5a4b3060b37e371b8ae2",
    "arraylist": "c757c42ba2f673c7c2f4d7b3cfebff7e657880de8b4440f493d397e4c75be082",
    "hashset": "bfb5dc24096c44d72073f627a4663b8074b81b304104573254caede99e1bc27b",
    "treeset": "167c868b88c68cb7fca20af2835b70e72da999c6b27a5dff2a7397c9c0f63559",
    "hedc": "30f84f1dae36e66ae6c5ce11dc572b2ddc7cf036d0014faae30cb45df0164662",
    "jigsaw": "1106e7b8e79b1d1779bcb67c497783fec45d1a598c9b326c6ecd73cc093aad2c",
    "jspider": "b166e7d32a98f2cc4f43a334e7cfda53295dec8992e0f453d370f80fac617091",
    "moldyn": "cc0dc212745c1087e1bc350bc9eefc722ffb1eb4239f55b77cb1782fd74d2a03",
    "montecarlo": "84678a13f0a31efdf1e20a46a69dfb48e237b7fc296574419fd35fa683c7bae6",
    "raytracer": "975f7f8e97e307d9df3d5723508f3915fb57cb6e304b7866ed8f261ceaf4e4b0",
    "sor": "2c7a673a9fc603a1b1ccc972207c45b61d2a1d401ef77168eb96903458acb5b8",
    "weblech": "0d19e30cf5e8d0f8350472b046122b08001cf4014bd5e0e6962e2d843790be32",
}

#: the same for the other two postponing drivers on the philosophers
#: workload: its mined lock-order target, and each mined atomic region
#: (whose halves are lock acquisitions, not memory accesses).
GOLDEN_SUBCLASSES = (
    "08e1d5351124623af90be3f9b32c3ff71b116dedbbcb09eb31223d8fdd54a94a",
    "a9aacee30bc0f44e78d05a0be7cef5f17134a6592987c2b685a9568943f33f5b",
    "600647e7c9df786ca743a9a5e0e569fe1d73e9b9593f1b97d16ceb49b8ddd5a5",
)


class TestGoldenPhase2:
    """Phase-2 schedules are pinned: the postponing loop may get faster,
    never different."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_PHASE2))
    def test_racefuzzer_trials_match_the_pin(self, name):
        spec = workloads.get(name)
        pairs = detect_races(
            spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
        ).pairs
        drivers = [
            RaceFuzzer(pair, max_steps=spec.max_steps)
            for pair in sorted(pairs, key=str)
        ]
        assert _campaign_digest(drivers, spec.build()) == GOLDEN_PHASE2[name]

    def test_deadlock_and_atomicity_trials_match_the_pin(self):
        spec = workloads.get("philosophers")
        targets = detect_lock_order_inversions(
            spec.build(), seeds=range(3), max_steps=spec.max_steps
        ).target_statements()
        regions = detect_atomic_regions(
            spec.build(), seeds=range(3), max_steps=spec.max_steps
        )
        drivers = [DeadlockFuzzer(targets, max_steps=spec.max_steps)] + [
            AtomicityFuzzer(c.region, c.rival, max_steps=spec.max_steps)
            for c in regions
        ]
        digests = tuple(
            _campaign_digest([driver], spec.build()) for driver in drivers
        )
        assert digests == GOLDEN_SUBCLASSES
