"""Real threads inside the engine: token handoff, monitors, crash domains,
and teardown of every OS thread however the execution ends."""

import threading

import pytest

from repro.core import RaceFuzzer, RandomScheduler
from repro.native import NativeRuntime, native_program
from repro.runtime import EngineError, Execution, SchedulerMisuse
from repro.runtime.errors import IllegalMonitorState
from repro.runtime.events import AcquireEvent, MemEvent
from repro.runtime.observer import EventTrace
from repro.runtime.statement import Statement, StatementPair


def run_native(fn, seed=0, observers=(), max_steps=200_000):
    execution = Execution(
        native_program(fn), seed=seed, observers=observers, max_steps=max_steps
    )
    return execution.run(RandomScheduler())


class TestBasics:
    def test_single_thread_reads_and_writes(self):
        observed = {}

        def program(rt):
            x = rt.var("x", 5)
            observed["initial"] = rt.read(x)
            rt.write(x, 9)
            observed["after"] = rt.read(x)

        result = run_native(program)
        assert observed == {"initial": 5, "after": 9}
        assert not result.crashes and not result.deadlock
        assert result.steps >= 3

    def test_spawn_join(self):
        log = []

        def program(rt):
            x = rt.var("x", 0)

            def child(value):
                rt.write(x, value)
                log.append(value)

            handle = rt.spawn(child, 42, name="kid")
            assert handle.name == "kid"
            rt.join(handle)
            assert rt.read(x) == 42

        result = run_native(program)
        assert log == [42]
        assert not result.crashes

    def test_locked_counter_is_exact_under_all_seeds(self):
        def program(rt):
            value = rt.var("value", 0)
            lock = rt.lock("L")

            def worker():
                for _ in range(4):
                    rt.acquire(lock)
                    rt.write(value, rt.read(value) + 1)
                    rt.release(lock)

            workers = [rt.spawn(worker) for _ in range(3)]
            for handle in workers:
                rt.join(handle)
            rt.check(rt.read(value) == 12, "lost update under lock!")

        for seed in range(10):
            result = run_native(program, seed=seed)
            assert not result.crashes, f"seed {seed}: {result.crashes}"

    def test_unlocked_counter_loses_updates_on_some_seed(self):
        def program(rt):
            value = rt.var("value", 0)

            def worker():
                for _ in range(4):
                    rt.write(value, rt.read(value) + 1)

            workers = [rt.spawn(worker) for _ in range(2)]
            for handle in workers:
                rt.join(handle)
            rt.check(rt.read(value) == 8, "lost update")

        outcomes = {bool(run_native(program, seed=s).crashes) for s in range(30)}
        assert outcomes == {True, False}

    def test_crash_domain(self):
        def program(rt):
            def bad():
                rt.yield_point()
                raise ValueError("boom")

            handle = rt.spawn(bad)
            rt.join(handle)

        result = run_native(program)
        assert result.exception_types == ["ValueError"]
        assert not result.deadlock

    def test_check_failure(self):
        def program(rt):
            rt.check(False, "nope")

        result = run_native(program)
        assert result.exception_types == ["AssertionViolation"]


class TestMonitors:
    def test_reentrant(self):
        def program(rt):
            lock = rt.lock("L")
            rt.acquire(lock)
            rt.acquire(lock)
            rt.release(lock)
            rt.release(lock)

        assert not run_native(program).crashes

    def test_release_unheld_raises_out_of_the_run(self):
        """The engine's semantics: a misused monitor aborts the run."""

        def program(rt):
            lock = rt.lock("L")
            rt.release(lock)

        with pytest.raises(IllegalMonitorState):
            run_native(program)

    def test_wait_notify(self):
        order = []

        def program(rt):
            lock = rt.lock("L")
            ready = rt.var("ready", 0)

            def consumer():
                rt.acquire(lock)
                while rt.read(ready) == 0:
                    rt.wait(lock)
                order.append("consumed")
                rt.release(lock)

            def producer():
                rt.acquire(lock)
                rt.write(ready, 1)
                order.append("produced")
                rt.notify(lock)
                rt.release(lock)

            handles = [rt.spawn(consumer), rt.spawn(producer)]
            for handle in handles:
                rt.join(handle)

        for seed in range(10):
            order.clear()
            result = run_native(program, seed=seed)
            assert not result.deadlock, f"seed {seed}"
            assert order == ["produced", "consumed"], f"seed {seed}: {order}"

    def test_notify_all(self):
        def program(rt):
            lock = rt.lock("L")
            go = rt.var("go", 0)
            done = rt.var("done", 0)

            def waiter():
                rt.acquire(lock)
                while rt.read(go) == 0:
                    rt.wait(lock)
                rt.write(done, rt.read(done) + 1)
                rt.release(lock)

            handles = [rt.spawn(waiter) for _ in range(3)]
            rt.yield_point()
            rt.acquire(lock)
            rt.write(go, 1)
            rt.notify_all(lock)
            rt.release(lock)
            for handle in handles:
                rt.join(handle)
            rt.check(rt.read(done) == 3, "a waiter was lost")

        for seed in range(10):
            result = run_native(program, seed=seed)
            assert not result.crashes and not result.deadlock, f"seed {seed}"


def crossed_locks(rt):
    a, b = rt.lock("A"), rt.lock("B")

    def forward():
        rt.acquire(a)
        rt.yield_point()
        rt.acquire(b)

    def backward():
        rt.acquire(b)
        rt.yield_point()
        rt.acquire(a)

    handles = [rt.spawn(forward), rt.spawn(backward)]
    for handle in handles:
        rt.join(handle)


def spinner(rt):
    x = rt.var("x", 0)
    while True:
        rt.read(x)


class TestDeadlockAndBudget:
    def test_deadlock_detected_and_run_terminates(self):
        deadlocks = sum(run_native(crossed_locks, seed=s).deadlock for s in range(15))
        assert deadlocks > 0  # some interleavings cross
        # And crucially: every run returned (no hung real threads).

    def test_budget_truncation(self):
        result = run_native(spinner, max_steps=200)
        assert result.truncated


class TestTeardown:
    """However an execution ends, its OS threads are gone when it returns."""

    def _assert_no_thread_left(self, run):
        before = threading.active_count()
        run()
        assert threading.active_count() == before

    def test_deadlock(self):
        seed = next(s for s in range(15) if run_native(crossed_locks, seed=s).deadlock)
        self._assert_no_thread_left(lambda: run_native(crossed_locks, seed=seed))

    def test_truncation(self):
        self._assert_no_thread_left(lambda: run_native(spinner, max_steps=50))

    def test_truncation_under_racefuzzer(self):
        def program(rt):
            x = rt.var("x", 0)

            def worker():
                while True:
                    rt.write(x, 1, label="spin")

            rt.spawn(worker)
            rt.spawn(worker)

        pair = StatementPair(Statement(label="spin"), Statement(label="spin"))
        fuzzer = RaceFuzzer(pair, max_steps=300)
        outcome = fuzzer.run(native_program(program), seed=0)
        assert outcome.result.truncated

    def test_escaping_illegal_monitor_state(self):
        def program(rt):
            lock = rt.lock("L")

            def parked():
                rt.acquire(lock)
                rt.wait(lock)

            rt.spawn(parked)
            rt.yield_point()
            rt.notify(rt.lock("unheld"))

        for seed in range(4):
            with pytest.raises(IllegalMonitorState):
                run_native(program, seed=seed)

    def test_escaping_illegal_monitor_state_under_racefuzzer(self):
        def program(rt):
            lock = rt.lock("L")
            rt.spawn(rt.yield_point)
            rt.release(lock)

        pair = StatementPair(Statement(label="a"), Statement(label="b"))
        with pytest.raises(IllegalMonitorState):
            RaceFuzzer(pair).run(native_program(program), seed=0)

    def test_crashing_thread_keeps_its_monitor(self):
        """A crash does not release held monitors (Java semantics), so a
        thread waiting for one deadlocks — and is still torn down."""

        def program(rt):
            lock = rt.lock("L")

            def crasher():
                rt.acquire(lock)
                raise ValueError("boom")

            rt.join(rt.spawn(crasher))
            rt.acquire(lock)

        result = run_native(program)
        assert result.exception_types == ["ValueError"]
        assert result.deadlock


class TestEventsAndReplay:
    def test_events_match_generator_engine_shapes(self):
        trace = EventTrace()

        def program(rt):
            x = rt.var("x", 0)
            lock = rt.lock("L")
            rt.acquire(lock)
            rt.write(x, 1)
            rt.release(lock)
            rt.read(x)

        run_native(program, observers=(trace,))
        mems = trace.of_type(MemEvent)
        assert len(mems) == 2
        assert mems[0].is_write and not mems[1].is_write
        assert mems[0].locks_held  # held the monitor during the write
        assert not mems[1].locks_held
        acquires = trace.of_type(AcquireEvent)
        assert len(acquires) == 1
        assert acquires[0].stmt is not None

    def test_statement_identity_is_the_call_site(self):
        trace = EventTrace()

        def program(rt):
            x = rt.var("x", 0)
            rt.write(x, 1)  # line A
            rt.write(x, 2)  # line B

        run_native(program, observers=(trace,))
        stmts = [event.stmt for event in trace.of_type(MemEvent)]
        assert stmts[0] != stmts[1]
        assert stmts[0].file.endswith("test_native_runtime.py")
        assert stmts[1].line == stmts[0].line + 1

    def test_label_overrides_site(self):
        trace = EventTrace()

        def program(rt):
            x = rt.var("x", 0)
            rt.write(x, 1, label="W1")

        run_native(program, observers=(trace,))
        (event,) = trace.of_type(MemEvent)
        assert event.stmt.site == "W1"

    def test_seed_replay(self):
        def program(rt):
            x = rt.var("x", 0)

            def worker():
                for _ in range(3):
                    rt.write(x, rt.read(x) + 1)

            handles = [rt.spawn(worker) for _ in range(2)]
            for handle in handles:
                rt.join(handle)
            rt.check(rt.read(x) == 6, "lost")

        def signature(seed):
            result = run_native(program, seed=seed)
            return (result.steps, tuple(result.exception_types))

        for seed in range(6):
            assert signature(seed) == signature(seed)

    def test_runtime_runs_once(self):
        def program(rt):
            rt.yield_point()

        execution = Execution(native_program(program), seed=0)
        execution.run(RandomScheduler())
        with pytest.raises(SchedulerMisuse):
            execution.run(RandomScheduler())

    def test_rt_calls_outside_a_native_thread_are_rejected(self):
        with pytest.raises(EngineError):
            NativeRuntime().yield_point()
