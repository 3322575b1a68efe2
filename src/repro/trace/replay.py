"""Offline analysis: feed a recorded trace through execution observers.

The detectors were written as live observers of an
:class:`~repro.runtime.interpreter.Execution`; this module turns any of
them into a *stream consumer*.  :func:`replay_events` drives the standard
``on_start`` / ``on_event`` / ``on_finish`` protocol over a recorded event
sequence, with a :class:`ReplaySource` standing in for the execution — so
the hybrid, happens-before, and lockset detectors produce reports over a
trace file that are identical to what they produced live (asserted for
every registered workload in the equivalence suite).

This is the record-once / analyze-many architecture of replay-based
detection (Ronsse & De Bosschere) and single-trace predictive analysis
(Mathur et al.): one execution, any number of analyses, at stream cost.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

from repro.obs import maybe_telemetry
from repro.runtime.events import Event
from repro.runtime.observer import ExecutionObserver, ObserverChain

from .io import TraceReader


class _TimedObserver(ExecutionObserver):
    """Wrap one observer, accumulating its CPU time within a shared pass.

    ``analyze_trace`` streams a trace through all requested detectors at
    once, so a wall-clock span around the pass cannot attribute cost to a
    single detector.  This wrapper meters each lifecycle call separately;
    the accumulated seconds are published by ``analyze_trace`` as the
    ``predict.analyze.<name>`` span.  Only used while telemetry is on —
    the default analysis path stays wrapper-free.
    """

    __slots__ = ("inner", "seconds")

    def __init__(self, inner: ExecutionObserver) -> None:
        self.inner = inner
        self.seconds = 0.0

    def _timed(self, method, *args) -> None:
        start = time.perf_counter()
        method(*args)
        self.seconds += time.perf_counter() - start

    def on_start(self, execution) -> None:
        self._timed(self.inner.on_start, execution)

    def on_event(self, event: Event) -> None:
        self._timed(self.inner.on_event, event)

    def on_finish(self, execution) -> None:
        self._timed(self.inner.on_finish, execution)


class ReplaySource:
    """Stand-in for an ``Execution`` during offline analysis.

    Observers only consult the execution for provenance (the program
    name, via :func:`repro.detectors.report._program_name`); everything
    analytical arrives through the event stream.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"ReplaySource({self.name!r})"


def replay_events(
    events: Iterable[Event],
    observers: Sequence[ExecutionObserver],
    *,
    program: str = "?",
) -> list[ExecutionObserver]:
    """Drive recorded ``events`` through ``observers``; returns them.

    The full observer lifecycle runs — ``on_start`` before the first
    event, every event in order, ``on_finish`` after the last — so an
    observer cannot tell a replay from the live execution that produced
    the trace (beyond the absent ``Execution`` internals, which the
    observer protocol forbids touching anyway).
    """
    chain = ObserverChain(observers)
    source = ReplaySource(program)
    chain.on_start(source)
    for event in events:
        chain.on_event(event)
    chain.on_finish(source)
    return chain.observers


def analyze_trace(
    trace,
    detectors: Sequence[str] = ("hybrid",),
    *,
    history_cap: int = 128,
    **detector_options,
) -> "Mapping[str, object]":
    """Run named detectors over one recorded trace; reports by name.

    ``trace`` is a path or an open :class:`~repro.trace.io.TraceReader`.
    All detectors consume a single streamed pass over the file.  Extra
    keyword options (e.g. ``sample_cap``) reach whichever detectors
    accept them, via :func:`~repro.detectors.make_detector`'s
    keyword-tolerant construction.

    While telemetry is on, each detector's share of the
    pass is metered and published as a ``predict.analyze.<name>`` span,
    so multi-detector analyses show where the CPU time went.
    """
    from repro.detectors import make_detector  # detectors don't import trace

    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    built = {
        name: make_detector(name, history_cap=history_cap, **detector_options)
        for name in detectors
    }
    telemetry = maybe_telemetry()
    if telemetry is not None:
        telemetry.inc("trace.replays")
        telemetry.inc("trace.analyses", len(built))
        timed = {name: _TimedObserver(obs) for name, obs in built.items()}
        replay_events(
            reader, list(timed.values()), program=reader.header.program
        )
        for name, wrapper in timed.items():
            telemetry.observe_span(f"predict.analyze.{name}", wrapper.seconds)
    else:
        replay_events(reader, list(built.values()), program=reader.header.program)
    return {name: observer.report for name, observer in built.items()}


__all__ = ["ReplaySource", "replay_events", "analyze_trace"]
