"""Seed-based deterministic replay (Section 2.2, last paragraph).

"RaceFuzzer ensures that at any time during execution only one thread is
executing and it resolves all non-determinism in picking the next thread to
execute by using random numbers" — so re-running with the same seed (and
the same racing pair and configuration) reproduces the identical execution,
with no event recording.  These helpers make that property a first-class
debugging tool: re-run a race-revealing seed, optionally with an event
trace or extra observers attached, and compare runs structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.events import Event
from repro.runtime.observer import EventTrace
from repro.runtime.program import Program
from repro.runtime.statement import StatementPair

from .postponing import FuzzResult
from .racefuzzer import RaceFuzzer


def schedule_signature(events) -> tuple:
    """A structural fingerprint of a schedule: (event type, tid, step).

    Two runs are the same execution iff their signatures match — the
    cheap way for tests (and users) to validate replay.  Works on any
    event sequence: a live :class:`~repro.runtime.observer.EventTrace`,
    a :class:`ReplayedRun`, or a :class:`~repro.trace.TraceReader`.
    """
    return tuple(
        (type(event).__name__, event.tid, event.step) for event in events
    )


@dataclass
class ReplayedRun:
    """A fuzzing run plus its full event trace, for debugging races."""

    outcome: FuzzResult
    events: list[Event]

    def schedule_signature(self) -> tuple:
        return schedule_signature(self.events)


def replay_race(
    program: Program,
    pair: StatementPair,
    seed: int,
    **fuzzer_kwargs,
) -> ReplayedRun:
    """Re-run a race-revealing execution with full tracing attached.

    The trace observer changes nothing about scheduling (all randomness is
    drawn from the execution's seeded RNG), so the replay is the original
    execution — the paper's "lightweight replay mechanism".
    """
    trace = EventTrace()
    observers = tuple(fuzzer_kwargs.pop("observers", ())) + (trace,)
    fuzzer = RaceFuzzer(pair, observers=observers, **fuzzer_kwargs)
    outcome = fuzzer.run(program, seed=seed)
    return ReplayedRun(outcome=outcome, events=trace.events)


def replays_identically(
    program: Program, pair: StatementPair, seed: int, attempts: int = 2, **kwargs
) -> bool:
    """Check that ``attempts`` replays of one seed agree event-for-event."""
    first = replay_race(program, pair, seed, **kwargs).schedule_signature()
    return all(
        replay_race(program, pair, seed, **kwargs).schedule_signature() == first
        for _ in range(attempts - 1)
    )
