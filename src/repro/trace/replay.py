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
    single observer.  This wrapper meters each lifecycle call separately;
    the accumulated seconds are published by ``analyze_trace`` as the
    ``predict.analyze.<name>`` span of the observer's ``name``.  Only used
    while telemetry is on — the default analysis path stays wrapper-free.
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
    deliver = chain.deliver
    for event in events:
        deliver(event)
    chain.on_finish(source)
    return chain.observers


def analyze_trace(
    trace,
    detectors: Sequence[str] = ("hybrid",),
) -> "Mapping[str, object]":
    """Run named detectors over one recorded trace; reports by name.

    ``trace`` is a path or an open :class:`~repro.trace.io.TraceReader`.
    All detectors consume a single streamed pass over the file, and the
    history detectors among them one walk of each event
    (:func:`repro.detectors.make_detectors`).

    While telemetry is on, each observer's share of the pass is metered
    and published as a span: ``predict.analyze.history`` for the history
    kernel, ``predict.analyze.<name>`` for any other detector.
    """
    from repro.detectors import make_detectors  # detectors don't import trace

    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    observers, collect = make_detectors(detectors)
    telemetry = maybe_telemetry()
    if telemetry is not None:
        telemetry.inc("trace.replays")
        telemetry.inc("trace.analyses", len(dict.fromkeys(detectors)))
        timed = [_TimedObserver(observer) for observer in observers]
        replay_events(reader, timed, program=reader.header.program)
        for wrapper in timed:
            telemetry.observe_span(
                f"predict.analyze.{wrapper.inner.name}", wrapper.seconds
            )
    else:
        replay_events(reader, observers, program=reader.header.program)
    return collect()


__all__ = ["ReplaySource", "replay_events", "analyze_trace"]
