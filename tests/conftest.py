"""Shared helpers for the test suite."""

from __future__ import annotations

from types import GeneratorType

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


class LineCheckedExecution(Execution):
    """An execution that checks each recorded yield site against the frame.

    The engine reads a yield's line from its code object's ``{f_lasti:
    line}`` table (``statement.line_table``).  The law is that after every
    step, and after a new thread's body is primed, a thread with a raw site
    has ``stmt_code`` and ``stmt_line`` equal to the ``f_code`` and
    ``f_lineno`` of the innermost frame of its body's ``yield from`` chain
    (for a native thread, the ``rt.*`` caller's frame).  ``sites_checked``
    counts the sites the law was checked at.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sites_checked = 0

    def _execute(self, ts, prime=False) -> None:
        super()._execute(ts, prime)
        self._check_site(ts)

    def _create_thread(self, gen, name, parent):
        ts = super()._create_thread(gen, name, parent)
        self._check_site(ts)
        return ts

    def _check_site(self, ts) -> None:
        if ts.stmt_code is None:
            return
        gen = ts.gen
        while gen.gi_yieldfrom.__class__ is GeneratorType:
            gen = gen.gi_yieldfrom
        frame = gen.gi_frame
        assert frame.f_code is ts.stmt_code, (ts, frame)
        assert ts.stmt_line == frame.f_lineno, (ts, frame, frame.f_lasti)
        self.sites_checked += 1


@pytest.fixture
def rng_seeds():
    """A small deterministic spread of seeds for multi-run assertions."""
    return range(12)
