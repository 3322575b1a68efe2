"""Experiment E7: the Section 3.2 probability claim, measured.

Sweeps the Figure 2 padding length and reports, per padding value:

* RaceFuzzer's probability of creating the race (paper claim: 1.0,
  independent of padding) and of reaching ERROR (claim: 0.5);
* the simple random scheduler's probability of bringing the two racing
  statements temporally adjacent, and of reaching ERROR (claim: decays
  towards 0 as padding grows).

Run ``repro figure2 [--runs N] [--paddings 0,5,10,...]`` (or
``python -m repro.harness.figure2_prob ...``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.core import RandomScheduler, fuzz_pair
from repro.runtime import Execution, EventTrace, MemEvent
from repro.workloads import figure2

from .render import render_table


@dataclass
class ProbabilityPoint:
    """One padding value's measurements."""

    padding: int
    rf_race_probability: float
    rf_error_probability: float
    simple_adjacent_probability: float
    simple_error_probability: float


def _passive_run_stats(padding: int, seed: int) -> tuple[bool, bool]:
    """(racing statements adjacent?, ERROR reached?) for one passive run."""
    trace = EventTrace()
    program = figure2.build(padding)
    execution = Execution(program, seed=seed, observers=[trace])
    result = execution.run(RandomScheduler(preemption="every"))
    steps = {}
    for event in trace.of_type(MemEvent):
        if event.stmt in (figure2.STMT_8, figure2.STMT_10):
            steps[event.stmt.site] = event.step
    adjacent = (
        len(steps) == 2 and abs(steps["8"] - steps["10"]) == 1
    )
    errored = any(c.error_type == "AssertionViolation" for c in result.crashes)
    return adjacent, errored


def measure_point(padding: int, runs: int = 100) -> ProbabilityPoint:
    outcomes = fuzz_pair(
        figure2.build(padding),
        figure2.RACING_PAIR,
        seeds=range(runs),
    )
    rf_created = sum(1 for outcome in outcomes if outcome.created)
    rf_errors = sum(
        1
        for outcome in outcomes
        if any(c.error_type == "AssertionViolation" for c in outcome.crashes)
    )
    adjacent = errored = 0
    for seed in range(runs):
        was_adjacent, was_error = _passive_run_stats(padding, seed)
        adjacent += was_adjacent
        errored += was_error
    return ProbabilityPoint(
        padding=padding,
        rf_race_probability=rf_created / runs,
        rf_error_probability=rf_errors / runs,
        simple_adjacent_probability=adjacent / runs,
        simple_error_probability=errored / runs,
    )


def sweep(
    paddings=(0, 2, 5, 10, 20, 40), runs: int = 100
) -> list[ProbabilityPoint]:
    """Measure every padding value, in order."""
    return [measure_point(padding, runs=runs) for padding in paddings]


def render_sweep(points: list[ProbabilityPoint]) -> str:
    headers = [
        "padding", "RF P(race)", "RF P(ERROR)",
        "simple P(adjacent)", "simple P(ERROR)",
    ]
    rows = [
        [
            point.padding,
            point.rf_race_probability,
            point.rf_error_probability,
            point.simple_adjacent_probability,
            point.simple_error_probability,
        ]
        for point in points
    ]
    return render_table(
        headers, rows,
        title="Figure 2 / Section 3.2: race-creation probability vs padding",
    )


if __name__ == "__main__":
    from repro.cli import main

    raise SystemExit(main(["figure2", *sys.argv[1:]]))
