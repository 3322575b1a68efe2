"""A finished execution and its detectors are freed by reference counting.

The engine and the history kernel keep no bound method of themselves, and
a crashed thread's exception keeps no traceback (which would hold the
engine's frame, and through it the execution).  So once the last outside
reference to an :class:`Execution` or a :class:`HistoryRaceDetector` goes,
it is freed at once, with the cyclic collector switched off.  The law
takes a weakref to every execution and kernel each case creates and
requires each to be dead after ``del``.

Weakrefs, not ``gc.collect() == 0``: a program's own data may hold a real
cycle (linkedlist's header node links to itself), and that loop is part
of the data structure.
"""

import gc
import weakref

import pytest

from repro.core import RaceFuzzer, RandomScheduler, detect_races
from repro.detectors import HistoryRaceDetector, make_detectors
from repro.runtime import Execution, Lock, Program, SharedVar, ops
from repro.runtime.errors import EngineError
from repro.runtime.observer import EventTrace
from repro.runtime.statement import Statement, StatementPair
from repro.trace.replay import replay_events
from repro.workloads import figure1

DETECTORS = ("hybrid", "happens-before", "shb", "wcp")


@pytest.fixture
def tracked(monkeypatch):
    """Weakrefs to every Execution and HistoryRaceDetector made, with the
    cyclic collector off for the test."""
    refs = []
    for cls in (Execution, HistoryRaceDetector):
        original = cls.__init__

        def init(self, *args, _original=original, **kwargs):
            _original(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _crashing():
    """Three threads that die: a failed check (thrown into the thread), a
    Python exception raised by the body, and an interrupted sleeper."""
    x = SharedVar("x", 0)
    lock = Lock("m")

    def checker():
        yield x.write(1)
        yield ops.check(False, "boom")

    def raiser():
        value = yield x.read()
        raise ValueError(f"bad value {value}")

    def sleeper():
        yield lock.acquire()
        yield lock.release()
        yield ops.sleep(50)

    def main():
        yield ops.spawn(checker)
        yield ops.spawn(raiser)
        napping = yield ops.spawn(sleeper)
        yield ops.yield_point()
        yield ops.interrupt(napping)

    return Program(main, name="crashing")


def _bad_yield():
    """A program whose thread yields a non-op: the engine raises."""
    x = SharedVar("x", 0)

    def worker():
        yield x.write(1)
        yield "not an op"

    def main():
        yield ops.spawn(worker)
        yield x.write(2)

    return Program(main, name="bad-yield")


def _alive(refs):
    return [ref for ref in refs if ref() is not None]


class TestFreedByRefcount:
    def test_execution_whose_threads_crash(self, tracked):
        execution = Execution(_crashing(), seed=0)
        result = execution.run(RandomScheduler("every"))
        assert sorted(result.exception_types) == [
            "AssertionViolation", "InterruptedException", "ValueError",
        ]
        assert len(tracked) == 1
        del execution
        assert not _alive(tracked)

    def test_racefuzzer_trial_whose_thread_crashes(self, tracked):
        fuzzer = RaceFuzzer(figure1.REAL_PAIR)
        program = figure1.build()
        crashed = False
        for seed in range(6):
            outcome = fuzzer.run(program, seed=seed)
            crashed = crashed or bool(outcome.crashes)
        assert crashed
        assert len(tracked) == 6
        assert not _alive(tracked)

    def test_racefuzzer_trial_that_throws(self, tracked):
        pair = StatementPair(Statement(label="a"), Statement(label="b"))
        raised = False
        try:
            RaceFuzzer(pair).run(_bad_yield(), seed=0)
        except EngineError:
            raised = True
        assert raised
        assert len(tracked) == 1
        assert not _alive(tracked)

    def test_detect_races_with_every_kernel_configuration(self, tracked):
        reports = detect_races(figure1.build(), detector=DETECTORS, seeds=range(3))
        assert set(reports) == set(DETECTORS)
        assert figure1.REAL_PAIR in reports["hybrid"].pairs
        del reports
        assert len(tracked) >= 6  # three executions, at least three kernels
        assert not _alive(tracked)

    def test_replay_of_an_event_trace(self, tracked):
        trace = EventTrace()
        Execution(figure1.build(), seed=1, observers=[trace]).run(
            RandomScheduler("every")
        )
        observers, reports = make_detectors(DETECTORS)
        replay_events(trace.events, observers)
        assert figure1.REAL_PAIR in reports()["hybrid"].pairs
        assert len(tracked) == 2  # the recording execution, one kernel
        del observers, reports
        assert not _alive(tracked)

    def test_the_law_sees_a_cycle(self, tracked):
        """Control: an execution kept in a reference cycle stays alive
        while the collector is off."""
        execution = Execution(_crashing(), seed=0)
        execution.run(RandomScheduler("every"))
        execution.loop = execution
        del execution
        assert len(_alive(tracked)) == 1
        gc.collect()
        assert not _alive(tracked)
