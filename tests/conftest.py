"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core import RandomScheduler
from repro.runtime import Execution, Program
from repro.runtime.thread import ThreadStatus


def run_program(factory, *, seed=0, scheduler=None, observers=(), max_steps=100_000):
    """Build and run a Program from a factory; return the ExecutionResult."""
    program = factory if isinstance(factory, Program) else Program(factory)
    execution = Execution(
        program, seed=seed, observers=observers, max_steps=max_steps
    )
    return execution.run(scheduler or RandomScheduler(preemption="every"))


def run_single(body_factory, *, seed=0, observers=(), max_steps=100_000):
    """Run a single-threaded generator body to completion; assert success."""

    def make():
        def main():
            yield from body_factory()

        return main()

    result = run_program(make, seed=seed, observers=observers, max_steps=max_steps)
    assert not result.crashes, f"unexpected crashes: {result.crashes}"
    assert not result.deadlock, "unexpected deadlock"
    return result


class LawfulExecution(Execution):
    """An execution that checks the maintained enabled set after each step.

    The engine keeps each thread's enabledness and re-derives only the
    answers a transition can change; the law is that the list it hands out
    always equals a rescan of every live thread with ``_enabled``, the
    definition.  ``steps_checked`` counts the steps the law was checked at.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.steps_checked = 0

    def _execute(self, ts) -> None:
        super()._execute(ts)
        rescan = [t.tid for t in self._live if self._enabled(t)]
        assert self.enabled_tids() == rescan, (self.step_count, rescan)
        contending = {
            t.tid
            for t in self._live
            if t.status is ThreadStatus.RUNNABLE and t.pending.blocking == 1
        }
        assert set(self._contending) == contending, self.step_count
        self.steps_checked += 1


@pytest.fixture
def rng_seeds():
    """A small deterministic spread of seeds for multi-run assertions."""
    return range(12)
