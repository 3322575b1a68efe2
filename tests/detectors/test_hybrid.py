"""Hybrid detector: the Section 2.2 race condition, edge by edge."""

from repro.core import RandomScheduler
from repro.detectors import HybridRaceDetector
from repro.runtime import (
    Execution,
    Lock,
    Program,
    SharedVar,
    join_all,
    ops,
    spawn_all,
)
from repro.workloads import figure1


def detect(factory, seeds=range(5), detector_class=HybridRaceDetector):
    merged = None
    for seed in seeds:
        detector = detector_class()
        Execution(Program(factory), seed=seed, observers=[detector]).run(
            RandomScheduler(preemption="every")
        )
        if merged is None:
            merged = detector.report
        else:
            merged.merge(detector.report)
    return merged


class TestBareConflicts:
    def test_unlocked_write_write_is_reported(self):
        def factory():
            x = SharedVar("x", 0)

            def writer():
                yield x.write(1)

            def main():
                handles = yield from spawn_all([writer, writer])
                yield from join_all(handles)

            return main()

        report = detect(factory)
        assert len(report) == 1
        (evidence,) = report.evidence.values()
        assert evidence.both_write

    def test_read_read_is_not_a_race(self):
        def factory():
            x = SharedVar("x", 0)

            def reader():
                yield x.read()

            def main():
                handles = yield from spawn_all([reader, reader])
                yield from join_all(handles)

            return main()

        assert len(detect(factory)) == 0

    def test_same_thread_accesses_never_race(self):
        def factory():
            x = SharedVar("x", 0)

            def main():
                yield x.write(1)
                yield x.write(2)
                yield x.read()

            return main()

        assert len(detect(factory)) == 0

    def test_distinct_locations_never_race(self):
        def factory():
            x, y = SharedVar("x", 0), SharedVar("y", 0)

            def one():
                yield x.write(1)

            def two():
                yield y.write(1)

            def main():
                handles = yield from spawn_all([one, two])
                yield from join_all(handles)

            return main()

        assert len(detect(factory)) == 0


class TestLocksetSuppression:
    def test_common_lock_suppresses(self):
        def factory():
            x = SharedVar("x", 0)
            lock = Lock("L")

            def writer():
                yield lock.acquire()
                yield x.write(1)
                yield lock.release()

            def main():
                handles = yield from spawn_all([writer, writer])
                yield from join_all(handles)

            return main()

        assert len(detect(factory)) == 0

    def test_disjoint_locks_do_not_suppress(self):
        def factory():
            x = SharedVar("x", 0)
            a, b = Lock("A"), Lock("B")

            def one():
                yield a.acquire()
                yield x.write(1)
                yield a.release()

            def two():
                yield b.acquire()
                yield x.write(2)
                yield b.release()

            def main():
                handles = yield from spawn_all([one, two])
                yield from join_all(handles)

            return main()

        assert len(detect(factory)) == 1

    def test_lock_ordering_is_ignored_hence_predictive(self):
        """The hybrid detector must report the Figure-1 'x' pattern even
        though the lock-protected flag orders the accesses in every run —
        that false positive is its predictive power."""
        report = detect(figure1.build().factory)
        assert figure1.FALSE_PAIR in report.evidence
        assert figure1.REAL_PAIR in report.evidence
        assert len(report) == 2


class TestHappensBeforeEdges:
    def test_start_edge_suppresses(self):
        def factory():
            x = SharedVar("x", 0)

            def child():
                yield x.write(2)

            def main():
                yield x.write(1)  # before spawning: ordered by the start edge
                handle = yield ops.spawn(child)
                yield ops.join(handle)

            return main()

        assert len(detect(factory)) == 0

    def test_join_edge_suppresses(self):
        def factory():
            x = SharedVar("x", 0)

            def child():
                yield x.write(1)

            def main():
                handle = yield ops.spawn(child)
                yield ops.join(handle)
                yield x.write(2)  # after join: ordered

            return main()

        assert len(detect(factory)) == 0

    def test_notify_wait_edge_suppresses(self):
        """The notifier sleeps first, so the waiter is parked in every
        schedule and the notify→wait SND/RCV edge always orders the x
        accesses — the hybrid detector must stay silent."""

        def factory():
            x = SharedVar("x", 0)
            lock = Lock("L")
            ready = SharedVar("ready", 0)

            def waiter():
                yield lock.acquire()
                while (yield ready.read()) == 0:
                    yield lock.wait()
                yield lock.release()
                yield x.write(2)  # ordered after the notifier's write

            def notifier():
                yield ops.sleep(50)  # guarantee the waiter parks first
                yield x.write(1)
                yield lock.acquire()
                yield ready.write(1)
                yield lock.notify()
                yield lock.release()

            def main():
                handles = yield from spawn_all([waiter, notifier])
                yield from join_all(handles)

            return main()

        for seed in range(20):
            detector = HybridRaceDetector()
            result = Execution(
                Program(factory), seed=seed, observers=[detector]
            ).run(RandomScheduler(preemption="every"))
            assert not result.deadlock
            assert len(detector.report) == 0, f"seed {seed}: {detector.report}"

    def test_without_wait_the_same_pattern_is_reported(self):
        """Control for the notify test: replace the wait with lock-polling
        and the edge disappears — now the hybrid detector must report x."""

        def factory():
            x = SharedVar("x", 0)
            lock = Lock("L")
            ready = SharedVar("ready", 0)

            def poller():
                while True:
                    yield lock.acquire()
                    flag = yield ready.read()
                    yield lock.release()
                    if flag:
                        break
                    yield ops.yield_point()
                yield x.write(2)

            def setter():
                yield ops.sleep(20)
                yield x.write(1)
                yield lock.acquire()
                yield ready.write(1)
                yield lock.release()

            def main():
                handles = yield from spawn_all([poller, setter])
                yield from join_all(handles)

            return main()

        report = detect(factory, seeds=range(5))
        assert len(report) == 1  # the (x.write(1), x.write(2)) false alarm


class TestHistoryCap:
    def test_overflow_sets_truncation_marker(self):
        def factory():
            x = SharedVar("x", 0)

            def hammer():
                for i in range(40):
                    yield x.write(i, label=f"w{i}")  # 40 distinct statements

            def main():
                handles = yield from spawn_all([hammer])
                yield from join_all(handles)
                yield x.read()

            return main()

        class SmallHistoryDetector(HybridRaceDetector):
            max_history = 8

        report = detect(factory, seeds=(0,), detector_class=SmallHistoryDetector)
        assert report.truncated_locations >= 1


class TestReportMerging:
    def test_merge_accumulates_counts(self):
        report = detect(figure1.build().factory, seeds=range(8))
        real = report.evidence[figure1.REAL_PAIR]
        assert real.count >= 8  # seen at least once per run
