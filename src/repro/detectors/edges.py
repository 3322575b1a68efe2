"""Classifying message edges by what they *mean*, from the stream alone.

The interpreter encodes every inter-thread happens-before edge as an
anonymous ``SND(g, t)`` / ``RCV(g, t)`` message pair (Section 2.1 of the
paper): thread spawn, thread join, notify→wait wakeups, and interrupt
delivery all look identical to an observer.  The observed-order detectors
treat them identically too — every RCV joins the receiver's clock, so a
pair ordered by *any* message is never reported.  Only the predictive
configurations of :class:`~repro.detectors.base.HistoryRaceDetector`
consult the classification.

Predictive analysis needs to be choosier.  A spawn edge holds in every
schedule (the child cannot run before it exists); a wakeup edge records
which notify happened to pair with which wait *in this schedule*; a join
edge is real in every schedule but orders exactly the post-join suffix
that a near-complete predictor deliberately keeps speculating about.
:func:`classify` recovers the kind of an RCV from the two events before
it in the stream (the kernel remembers them; :class:`EdgeClassifier`
does for a stream fed to it), using the interpreter's (stable, tested)
emission patterns:

* **spawn** — ``ThreadStartEvent(child=c)`` then ``SndEvent(parent, g)``
  then ``RcvEvent(c, g)``, all at one step (``Execution._create_thread``);
* **wakeup** — ``AcquireEvent(t)`` then ``RcvEvent(t)`` at one step: a
  woken waiter re-acquired the monitor and receives the notifier's (or
  interrupter's) message (``Execution._do_reacquire``);
* **completion** — any other RCV: a join receiving the target's
  termination message, or an interrupt delivered to a sleeping thread.

Because classification reads only the event stream, it is identical live
and during offline trace replay — the equivalence suite holds for the
predictive detectors exactly as it does for the observed-order ones.
"""

from __future__ import annotations

from repro.runtime.events import (
    AcquireEvent,
    Event,
    RcvEvent,
    SndEvent,
    ThreadStartEvent,
)

#: the child's first receive: holds in every schedule.
SPAWN = "spawn"
#: a woken waiter receiving its notify/interrupt message: pure schedule
#: artifact — another run pairs the wait with a different notify (or none).
WAKEUP = "wakeup"
#: join return / interrupt-from-sleep delivery: real in every schedule,
#: but the edge a near-complete predictor treats as soft (see
#: :mod:`repro.detectors.base`).
COMPLETION = "completion"

EDGE_KINDS = (SPAWN, WAKEUP, COMPLETION)


def classify(event: RcvEvent, prev: Event | None, prev2: Event | None) -> str:
    """The edge kind of the RCV ``event``, given the two events before it
    in the stream (None before the stream's start)."""
    if (
        isinstance(prev, SndEvent)
        and prev.msg_id == event.msg_id
        and prev.step == event.step
        and isinstance(prev2, ThreadStartEvent)
        and prev2.child == event.tid
    ):
        return SPAWN
    if (
        isinstance(prev, AcquireEvent)
        and prev.tid == event.tid
        and prev.step == event.step
    ):
        return WAKEUP
    return COMPLETION


class EdgeClassifier:
    """Streaming RCV-edge classifier over the last two events seen."""

    __slots__ = ("_prev", "_prev2")

    def __init__(self) -> None:
        self._prev: Event | None = None
        self._prev2: Event | None = None

    def reset(self) -> None:
        self._prev = None
        self._prev2 = None

    def note(self, event: Event) -> str | None:
        """Feed one event; returns the edge kind for an RCV, else ``None``.

        Must see *every* event of the stream, in order, exactly once.
        """
        kind = None
        if isinstance(event, RcvEvent):
            kind = classify(event, self._prev, self._prev2)
        self._prev2 = self._prev
        self._prev = event
        return kind


__all__ = ["EdgeClassifier", "classify", "SPAWN", "WAKEUP", "COMPLETION", "EDGE_KINDS"]
