"""The maintained Enabled(s): equal to a rescan after every step.

The engine keeps each thread's enabledness and re-derives only the answers
a transition can change (see ``Execution._note``).  ``LawfulExecution``
checks after every step that the list it hands out equals a rescan of
every live thread with ``_enabled``, the definition, on every Table-1 row,
the worked examples and small programs for each kind of transition, under
both passive schedulers and RaceFuzzer.  The native-thread case lives in
``tests/native/test_native_runtime.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core import DefaultScheduler, RaceFuzzer, RandomScheduler, detect_races
from repro.core import postponing
from repro.runtime import Lock, Program, SharedVar, ops
from repro.runtime.interpreter import pick

from tests.conftest import LawfulExecution

SCHEDULERS = (
    DefaultScheduler,
    lambda: RandomScheduler("every"),
    lambda: RandomScheduler("sync"),
)

PROGRAMS = sorted(
    [spec.name for spec in workloads.table1_workloads()]
    + ["figure1", "figure2", "philosophers"]
)


def _run_lawful(program, scheduler, seed, max_steps=1_000_000):
    execution = LawfulExecution(program, seed=seed, max_steps=max_steps)
    result = execution.run(scheduler)
    assert execution.steps_checked == execution.ops_executed > 0
    return result


class TestWorkloads:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_passive_schedulers(self, name):
        spec = workloads.get(name)
        for make in SCHEDULERS:
            for seed in range(2):
                _run_lawful(spec.build(), make(), seed, spec.max_steps)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_racefuzzer(self, name, monkeypatch):
        spec = workloads.get(name)
        pairs = sorted(
            detect_races(
                spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
            ).pairs,
            key=str,
        )
        if not pairs:
            pytest.skip(f"{name}: no Phase-1 pair")
        made = []

        def lawful(*args, **kwargs):
            made.append(LawfulExecution(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(postponing, "Execution", lawful)
        for pair in pairs[:2]:
            for seed in range(2):
                RaceFuzzer(pair, max_steps=spec.max_steps).run(spec.build(), seed=seed)
        assert all(e.steps_checked == e.ops_executed > 0 for e in made)


def _program(main):
    return Program(lambda: main(), name=main.__name__)


def _sleepers():
    x = SharedVar("x", 0)

    def sleeper(ticks):
        yield ops.sleep(ticks)
        yield x.write(ticks)

    def main():
        handles = []
        for ticks in (1, 3, 7):
            handles.append((yield ops.spawn(sleeper, ticks)))
        yield ops.sleep(2)
        for handle in handles:
            yield ops.join(handle)

    return main


def _timed_waits():
    lock = Lock("m")
    ready = SharedVar("ready", False)

    def waiter(timeout):
        yield lock.acquire()
        yield lock.wait(timeout=timeout)
        yield lock.release()

    def notifier():
        yield ops.sleep(4)
        yield lock.acquire()
        yield ready.write(True)
        yield lock.notify()
        yield lock.release()

    def main():
        handles = [
            (yield ops.spawn(waiter, 2)),
            (yield ops.spawn(waiter, 9)),
            (yield ops.spawn(notifier)),
        ]
        for handle in handles:
            yield ops.join(handle)

    return main


def _interrupts():
    lock = Lock("m")

    def waiter():
        yield lock.acquire()
        try:
            yield lock.wait()
        finally:
            yield lock.release()

    def sleeper():
        yield ops.sleep(50)

    def main():
        parked = yield ops.spawn(waiter)
        napping = yield ops.spawn(sleeper)
        yield lock.acquire()  # the interrupted waiter must re-contend
        yield ops.yield_point()
        yield ops.interrupt(parked)
        yield ops.interrupt(napping)
        yield ops.yield_point()
        yield lock.release()
        yield ops.join(parked)
        yield ops.join(napping)

    return main


def _notifies():
    lock = Lock("m")
    parked = SharedVar("parked", 0)

    def waiter():
        yield lock.acquire()
        count = yield parked.read()
        yield parked.write(count + 1)
        yield lock.wait()
        yield lock.release()

    def main():
        handles = []
        for _ in range(4):
            handles.append((yield ops.spawn(waiter)))
        while True:  # until every waiter is in the wait set
            yield lock.acquire()
            count = yield parked.read()
            yield lock.release()
            if count == 4:
                break
            yield ops.yield_point()
        yield lock.acquire()
        yield lock.notify()
        yield lock.notify()
        yield lock.release()
        yield lock.acquire()
        yield lock.notify_all()
        yield lock.release()
        for handle in handles:
            yield ops.join(handle)

    return main


def _joins():
    def quick():
        yield ops.yield_point()

    def slow():
        for _ in range(10):
            yield ops.yield_point()

    def main():
        done = yield ops.spawn(quick)
        for _ in range(5):
            yield ops.yield_point()
        yield ops.join(done)  # most likely finished already
        live = yield ops.spawn(slow)
        yield ops.join(live)  # certainly still running
        yield ops.join(done)  # finished for sure

    return main


SMALL = {
    "sleep": _sleepers,
    "timed-wait": _timed_waits,
    "interrupt": _interrupts,
    "notify": _notifies,
    "join": _joins,
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_programs(name):
    for make in SCHEDULERS:
        for seed in range(8):
            result = _run_lawful(_program(SMALL[name]()), make(), seed)
            assert not result.deadlock and not result.truncated, (name, seed)


def test_interrupts_land_on_a_waiter_and_a_sleeper():
    """The interrupt program really wakes both victims with the exception."""
    result = _run_lawful(_program(_interrupts()), DefaultScheduler(), 0)
    assert sorted(result.exception_types) == ["InterruptedException"] * 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pick_draws_like_randrange(seed):
    """``pick`` consumes exactly the bits ``randrange`` consumes, draw for
    draw, so a schedule does not depend on which of the two drew it."""
    ours, theirs = random.Random(seed), random.Random(seed)
    seq = list(range(300))
    for n in range(1, 301):
        assert pick(ours, seq[:n]) == theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()


def test_pick_rejects_an_empty_sequence():
    with pytest.raises(ValueError):
        pick(random.Random(0), [])
