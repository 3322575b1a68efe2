"""The DSL layer: shared structures and synchronization sugar."""

import pytest

from repro.runtime import (
    AtomicCounter,
    Barrier,
    BlockingQueue,
    CountDownLatch,
    IndexOutOfBoundsError,
    Lock,
    SharedArray,
    SharedCells,
    SharedObject,
    SharedVar,
    SimulatedError,
    join_all,
    ops,
    spawn_all,
    synchronized,
)

from tests.conftest import run_program, run_single


class TestSharedVar:
    def test_init_value_visible_without_write(self):
        def body():
            x = SharedVar("x", init=99)
            value = yield x.read()
            assert value == 99

        run_single(body)

    def test_each_instance_is_its_own_location(self):
        def body():
            a, b = SharedVar("same-name", 0), SharedVar("same-name", 0)
            yield a.write(1)
            value = yield b.read()
            assert value == 0

        run_single(body)


class TestSharedArrayAndCells:
    def test_array_bounds_checked(self):
        arr = SharedArray(3, "a", init=0)
        with pytest.raises(IndexOutOfBoundsError):
            arr.read(3)
        with pytest.raises(IndexOutOfBoundsError):
            arr.write(-1, 0)

    def test_array_read_write(self):
        def body():
            arr = SharedArray(3, "a", init=7)
            assert (yield arr.read(2)) == 7
            yield arr.write(2, 9)
            assert (yield arr.read(2)) == 9
            assert (yield arr.read(0)) == 7

        run_single(body)

    def test_cells_are_unbounded(self):
        def body():
            cells = SharedCells("c", init=None)
            yield cells.write(1000, "far")
            assert (yield cells.read(1000)) == "far"
            assert (yield cells.read(5)) is None

        run_single(body)


class TestSharedObject:
    def test_field_defaults_and_updates(self):
        def body():
            obj = SharedObject("task", busy=0, url=None)
            assert (yield obj.get("busy")) == 0
            assert (yield obj.get("url")) is None
            yield obj.set("busy", 1)
            assert (yield obj.get("busy")) == 1
            # Undeclared fields default to None.
            assert (yield obj.get("other")) is None

        run_single(body)

    def test_objects_can_hold_references_to_each_other(self):
        def body():
            first = SharedObject("n1", next=None)
            second = SharedObject("n2", next=None)
            yield first.set("next", second)
            target = yield first.get("next")
            assert target is second

        run_single(body)


class TestSynchronized:
    def test_releases_on_normal_exit(self):
        def body():
            lock = Lock("L")
            x = SharedVar("x", 0)

            def critical():
                yield x.write(1)
                return "done"

            result = yield from synchronized(lock, critical())
            assert result == "done"
            # Lock must be free again: re-acquiring must not deadlock.
            yield lock.acquire()
            yield lock.release()

        run_single(body)

    def test_releases_on_exception(self):
        def make():
            lock = Lock("L")
            witness = SharedVar("w", 0)

            def bad():
                raise SimulatedError("inside critical section")
                yield  # pragma: no cover

            def crasher():
                yield from synchronized(lock, bad())

            def second():
                yield lock.acquire()  # must not deadlock
                yield witness.write(1)
                yield lock.release()

            def main():
                first = yield ops.spawn(crasher)
                yield ops.join(first)
                other = yield ops.spawn(second)
                yield ops.join(other)
                value = yield witness.read()
                yield ops.check(value == 1, "lock leaked on crash")

            return main()

        result = run_program(make)
        assert result.exception_types == ["SimulatedError"]
        assert not result.deadlock


class TestBarrier:
    def test_requires_positive_parties(self):
        with pytest.raises(ValueError):
            Barrier(0)

    def test_barrier_separates_phases(self, rng_seeds):
        def make():
            barrier = Barrier(3)
            phase_log = []

            def worker(k):
                phase_log.append(("a", k))
                yield from barrier.wait_for_all()
                phase_log.append(("b", k))
                yield from barrier.wait_for_all()
                phase_log.append(("c", k))

            def main():
                handles = yield from spawn_all(
                    [(lambda k: lambda: worker(k))(k) for k in range(3)]
                )
                yield from join_all(handles)
                phases = [tag for tag, _ in phase_log]
                yield ops.check(
                    phases == sorted(phases), f"phases interleaved: {phases}"
                )

            return main()

        for seed in rng_seeds:
            result = run_program(make, seed=seed)
            assert not result.crashes and not result.deadlock, f"seed {seed}"


class TestCountDownLatch:
    def test_await_blocks_until_zero(self, rng_seeds):
        def make():
            latch = CountDownLatch(2)
            log = []

            def worker(k):
                yield ops.yield_point()
                log.append(f"work-{k}")
                yield from latch.count_down()

            def main():
                yield from spawn_all(
                    [(lambda k: lambda: worker(k))(k) for k in range(2)]
                )
                yield from latch.await_zero()
                yield ops.check(len(log) == 2, f"latch opened early: {log}")

            return main()

        for seed in rng_seeds:
            result = run_program(make, seed=seed)
            assert not result.crashes and not result.deadlock, f"seed {seed}"


class TestBlockingQueue:
    def test_fifo_single_threaded(self):
        def body():
            queue = BlockingQueue(name="q")
            yield from queue.put("a")
            yield from queue.put("b")
            assert (yield from queue.size()) == 2
            assert (yield from queue.take()) == "a"
            assert (yield from queue.take()) == "b"
            assert (yield from queue.size()) == 0

        run_single(body)

    def test_take_blocks_until_put(self, rng_seeds):
        def make():
            queue = BlockingQueue(name="q")

            def consumer():
                item = yield from queue.take()
                yield ops.check(item == 42, f"got {item}")

            def producer():
                yield ops.yield_point()
                yield from queue.put(42)

            def main():
                handles = yield from spawn_all([consumer, producer])
                yield from join_all(handles)

            return main()

        for seed in rng_seeds:
            result = run_program(make, seed=seed)
            assert not result.crashes and not result.deadlock, f"seed {seed}"

    def test_bounded_put_blocks_at_capacity(self, rng_seeds):
        def make():
            queue = BlockingQueue(capacity=1, name="q")
            order = []

            def producer():
                yield from queue.put(1)
                order.append("put-1")
                yield from queue.put(2)  # must block until take
                order.append("put-2")

            def consumer():
                yield ops.yield_point()
                yield from queue.take()
                order.append("take-1")
                yield from queue.take()

            def main():
                handles = yield from spawn_all([producer, consumer])
                yield from join_all(handles)
                yield ops.check(
                    order.index("take-1") < order.index("put-2"),
                    f"capacity violated: {order}",
                )

            return main()

        for seed in rng_seeds:
            result = run_program(make, seed=seed)
            assert not result.crashes and not result.deadlock, f"seed {seed}"


class TestAtomicCounter:
    def test_concurrent_increments_never_lost(self, rng_seeds):
        def make():
            counter = AtomicCounter("c")

            def worker():
                for _ in range(4):
                    yield from counter.add(1)

            def main():
                handles = yield from spawn_all([worker, worker, worker])
                yield from join_all(handles)
                total = yield from counter.get()
                yield ops.check(total == 12, f"lost updates: {total}")

            return main()

        for seed in rng_seeds:
            result = run_program(make, seed=seed)
            assert not result.crashes, f"seed {seed}"

    def test_read_unlocked_is_a_bare_op(self):
        counter = AtomicCounter("c", init=5)
        op = counter.read_unlocked()
        assert op.is_mem and not op.is_write


class TestInterning:
    """Locations, unlabelled read ops and a lock's unlabelled acquire and
    release ops are each built once."""

    def test_cells_location_is_interned(self):
        cells = SharedCells("c")
        assert cells.loc(3) is cells.loc(3)
        assert cells.loc(3) != cells.loc(4)

    def test_object_location_is_interned(self):
        obj = SharedObject("o", f=1)
        assert obj.loc("f") is obj.loc("f")
        assert obj.loc("f") != obj.loc("g")

    def test_interned_location_keeps_value_identity(self):
        from repro.runtime.location import ElemLoc, FieldLoc

        cells, obj = SharedCells("c"), SharedObject("o")
        assert cells.loc(2) == ElemLoc(cells.uid, "c", 2)
        assert hash(cells.loc(2)) == hash(ElemLoc(cells.uid, "c", 2))
        assert obj.loc("f") == FieldLoc(obj.uid, "o", "f")

    def test_unlabelled_ops_are_reused(self):
        var, cells, obj = SharedVar("v", 1), SharedCells("c", 0), SharedObject("o", f=2)
        assert var.read() is var.read()
        assert cells.read(5) is cells.read(5)
        assert cells.read(5) is not cells.read(6)
        assert obj.get("f") is obj.get("f")
        assert obj.get("f").default == 2
        array = SharedArray(4, "a", init=0)
        assert array.read(1) is array.read(1)
        lock = Lock("L")
        assert lock.acquire() is lock.acquire()
        assert lock.release() is lock.release()

    def test_labelled_op_carries_its_own_label(self):
        var, cells, obj = SharedVar("v"), SharedCells("c"), SharedObject("o")
        lock = Lock("L")
        for plain, labelled in (
            (var.read, lambda: var.read(label="r")),
            (lambda: cells.read(1), lambda: cells.read(1, label="r")),
            (lambda: obj.get("f"), lambda: obj.get("f", label="r")),
            (lock.acquire, lambda: lock.acquire(label="r")),
            (lock.release, lambda: lock.release(label="r")),
        ):
            cached = plain()
            op = labelled()
            assert op.label == "r"
            assert op is not cached
            assert (op.kind, op.location, op.lock) == (
                cached.kind, cached.location, cached.lock
            )
            assert plain() is cached and cached.label is None
