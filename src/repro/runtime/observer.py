"""Observer protocol for execution events.

Detectors (hybrid, happens-before, lockset) and tracing utilities subscribe
to the event stream of an :class:`~repro.runtime.interpreter.Execution`.
Observers are passive: they may record anything but must not mutate the
execution.  This is the library analog of the paper's bytecode
instrumentation callbacks.
"""

from __future__ import annotations

from typing import Iterable

from .events import Event


class ExecutionObserver:
    """Base class; override :meth:`on_event` (and optionally the hooks)."""

    #: If False, the engine skips delivering MemEvents to this observer.
    #: The deadlock miner's lock-order observer sets it, since it reads only
    #: acquires and releases; the race detectors leave it True and pay
    #: full cost.
    wants_mem_events: bool = True

    def on_start(self, execution) -> None:
        """Called once before the first step."""

    def on_event(self, event: Event) -> None:
        """Called for every event in execution order."""

    def on_finish(self, execution) -> None:
        """Called once after the last step (including deadlocked endings)."""


class ObserverChain(ExecutionObserver):
    """Fans events out to a sequence of observers, in order."""

    def __init__(self, observers: Iterable[ExecutionObserver]):
        self.observers = list(observers)

    @property
    def wants_mem_events(self) -> bool:  # type: ignore[override]
        return any(obs.wants_mem_events for obs in self.observers)

    def on_start(self, execution) -> None:
        for obs in self.observers:
            obs.on_start(execution)

    def on_event(self, event: Event) -> None:
        for obs in self.observers:
            obs.on_event(event)

    def on_finish(self, execution) -> None:
        for obs in self.observers:
            obs.on_finish(execution)


class EventTrace(ExecutionObserver):
    """Records every event; handy in tests and for debugging schedules."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def of_type(self, event_type: type) -> list[Event]:
        return [e for e in self.events if isinstance(e, event_type)]
