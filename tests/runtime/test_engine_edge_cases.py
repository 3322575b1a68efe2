"""Engine edge cases: priming crashes, notify contention, odd spawns."""

import pytest

from repro.core import RandomScheduler
from repro.runtime import (
    EngineError,
    Execution,
    Lock,
    Program,
    SharedVar,
    ops,
)
from repro.runtime.errors import SimulatedError

from tests.conftest import run_program


class TestPrimingEdges:
    def test_thread_crashing_before_first_yield(self):
        """The crash happens during spawn (priming); it must land in the
        CHILD's crash record, and the spawner must continue."""

        def make():
            def instant_crash():
                raise SimulatedError("died at birth")
                yield  # pragma: no cover

            def main():
                handle = yield ops.spawn(instant_crash, name="doomed")
                yield ops.join(handle)  # already dead: immediate
                yield ops.yield_point()

            return main()

        result = run_program(make)
        assert result.exception_types == ["SimulatedError"]
        assert result.crashes[0].name == "doomed"
        assert not result.deadlock

    def test_thread_with_no_yields_terminates_at_spawn(self):
        def make():
            log = []

            def eager():
                log.append("ran")
                if False:
                    yield

            def main():
                handle = yield ops.spawn(eager)
                yield ops.join(handle)
                yield ops.check(log == ["ran"], "eager body skipped")

            return main()

        result = run_program(make)
        assert not result.crashes

    def test_spawn_of_non_generator_function_is_engine_error(self):
        def make():
            def not_a_generator():
                return 42

            def main():
                yield ops.spawn(not_a_generator)

            return main()

        with pytest.raises(EngineError):
            run_program(make)

    def test_main_program_crashing_at_priming(self):
        def make():
            def main():
                raise SimulatedError("before any op")
                yield  # pragma: no cover

            return main()

        result = run_program(make)
        assert result.exception_types == ["SimulatedError"]


class TestNotifyContention:
    def test_notified_waiter_cannot_return_while_notifier_holds_lock(self):
        """Two-stage wakeup: between notify and the notifier's release, the
        woken waiter is pending REACQUIRE and disabled."""
        order = []

        def make():
            lock = Lock("L")
            flag = SharedVar("flag", 0)

            def waiter():
                yield lock.acquire()
                while (yield flag.read()) == 0:
                    yield lock.wait()
                order.append("waiter-returned")
                yield lock.release()

            def notifier():
                yield ops.sleep(10)  # let the waiter park first
                yield lock.acquire()
                yield flag.write(1)
                yield lock.notify()
                order.append("notified")
                yield ops.yield_point()
                yield ops.yield_point()
                order.append("releasing")
                yield lock.release()

            def main():
                first = yield ops.spawn(waiter)
                second = yield ops.spawn(notifier)
                yield ops.join(first)
                yield ops.join(second)

            return main()

        for seed in range(10):
            order.clear()
            result = run_program(make, seed=seed)
            assert not result.deadlock, f"seed {seed}"
            assert order.index("releasing") < order.index("waiter-returned"), (
                f"seed {seed}: {order}"
            )

    def test_notify_choice_is_seed_deterministic(self):
        """With three waiters and one notify, which one wakes is drawn from
        the execution RNG — replay must agree with itself."""

        def make():
            lock = Lock("L")
            go = SharedVar("go", 0)
            woken = SharedVar("woken", None)

            def waiter(k):
                yield lock.acquire()
                while (yield go.read()) == 0:
                    yield lock.wait()
                first = yield woken.read()
                if first is None:
                    yield woken.write(k)  # only the first woken records
                yield lock.release()

            def main():
                handles = []
                for k in range(3):
                    handle = yield ops.spawn((lambda kk: lambda: waiter(kk))(k))
                    handles.append(handle)
                yield ops.sleep(20)
                yield lock.acquire()
                yield go.write(1)
                yield lock.notify()
                yield lock.release()
                yield ops.sleep(50)
                yield lock.acquire()
                yield lock.notify_all()  # free the rest (go==0: they exit)
                yield lock.release()
                for handle in handles:
                    yield ops.join(handle)

            return main()

        def winner(seed):
            execution = Execution(Program(make), seed=seed, max_steps=100_000)
            result = execution.run(RandomScheduler())
            assert not result.deadlock
            return execution.heap.snapshot()

        for seed in range(5):
            assert winner(seed) == winner(seed)


class TestSpawnShapes:
    def test_spawn_generator_object_directly(self):
        """ops.spawn takes a function; passing a prebuilt generator works
        via a lambda shim (the engine calls func())."""

        def make():
            x = SharedVar("x", 0)

            def body(k):
                yield x.write(k)

            def main():
                handle = yield ops.spawn(lambda: body(5))
                yield ops.join(handle)
                value = yield x.read()
                yield ops.check(value == 5, "wrong value")

            return main()

        assert not run_program(make).crashes

    def test_deeply_nested_yield_from(self):
        def make():
            x = SharedVar("x", 0)

            def level3():
                yield x.write(3)

            def level2():
                yield from level3()

            def level1():
                yield from level2()

            def main():
                yield from level1()
                value = yield x.read()
                yield ops.check(value == 3, "nesting broke")

            return main()

        assert not run_program(make).crashes
