"""Human-readable rendering of execution traces.

The paper's replay feature exists for *debugging*: once a seed reproduces
a race, the developer wants to read the interleaving.  This module turns
an event list (from :class:`~repro.runtime.observer.EventTrace` or
:func:`~repro.core.replay.replay_race`) into an aligned listing, one
column per thread, in execution order — the classic interleaving diagram.
"""

from __future__ import annotations

from repro.runtime.events import (
    AcquireEvent,
    DeadlockEvent,
    ErrorEvent,
    Event,
    MemEvent,
    RcvEvent,
    ReleaseEvent,
    SndEvent,
    ThreadEndEvent,
    ThreadStartEvent,
)


def _describe(event: Event) -> str:
    if isinstance(event, MemEvent):
        verb = "write" if event.is_write else "read"
        locks = (
            " {" + ",".join(sorted(l.describe() for l in event.locks_held)) + "}"
            if event.locks_held
            else ""
        )
        return f"{verb} {event.location.describe()} @ {event.stmt.site}{locks}"
    if isinstance(event, AcquireEvent):
        return f"acquire {event.lock.describe()}"
    if isinstance(event, ReleaseEvent):
        return f"release {event.lock.describe()}"
    if isinstance(event, ThreadStartEvent):
        return f"start {event.name}#{event.child}"
    if isinstance(event, ThreadEndEvent):
        suffix = f" ({event.error.type})" if event.error else ""
        return f"end{suffix}"
    if isinstance(event, ErrorEvent):
        where = f" at {event.stmt.site}" if event.stmt else ""
        return f"!! {event.error.type}: {event.error.message}{where}"
    if isinstance(event, SndEvent):
        return f"snd m{event.msg_id}"
    if isinstance(event, RcvEvent):
        return f"rcv m{event.msg_id}"
    if isinstance(event, DeadlockEvent):
        return f"DEADLOCK {list(event.blocked)}"
    return type(event).__name__


def format_trace(
    events: list[Event],
    *,
    show_messages: bool = False,
    highlight_stmts: frozenset | None = None,
    max_events: int | None = None,
) -> str:
    """Render events as a per-thread interleaving listing.

    Args:
        events: the trace, in execution order.
        show_messages: include SND/RCV happens-before bookkeeping rows.
        highlight_stmts: statements to mark with ``>>`` (e.g. a racing pair).
        max_events: truncate long traces (a note records the omission).
    """
    tids = sorted({event.tid for event in events if event.tid >= 0})
    column_of = {tid: index for index, tid in enumerate(tids)}
    width = 34
    header = "step  " + "".join(f"T{tid}".ljust(width) for tid in tids)
    lines = [header, "-" * len(header)]
    # Filter first so the truncation note can account honestly: the
    # hidden count must cover only displayable rows that were cut, not
    # SND/RCV rows that would never have been shown (nor rows already
    # printed above the note).
    rows = [
        event
        for event in events
        if show_messages or not isinstance(event, (SndEvent, RcvEvent))
    ]
    filtered = len(events) - len(rows)
    shown = len(rows) if max_events is None else min(max_events, len(rows))
    for event in rows[:shown]:
        text = _describe(event)
        marker = "  "
        if (
            highlight_stmts
            and isinstance(event, MemEvent)
            and event.stmt in highlight_stmts
        ):
            marker = ">>"
        if event.tid < 0:  # engine-level events (deadlock)
            lines.append(f"{event.step:>4}  {text}")
            continue
        indent = column_of[event.tid] * width
        lines.append(f"{event.step:>4}  " + " " * indent + f"{marker}{text}")
    if shown < len(rows):
        note = (
            f"... truncated: showing {shown} of {len(rows)} events, "
            f"{len(rows) - shown} hidden"
        )
        if filtered:
            note += f" ({filtered} SND/RCV rows filtered)"
        lines.append(note)
    return "\n".join(lines)


def format_replay(replayed, pair=None, **kwargs) -> str:
    """Render a :class:`~repro.core.replay.ReplayedRun` with its racing
    pair highlighted."""
    highlight = None
    if pair is not None:
        highlight = frozenset({pair.first, pair.second})
    body = format_trace(replayed.events, highlight_stmts=highlight, **kwargs)
    outcome = replayed.outcome
    footer = [
        "",
        f"result: {outcome.result}",
        f"races created: {len(outcome.hits)} "
        f"({', '.join(sorted(str(p) for p in outcome.pairs_created)) or 'none'})",
    ]
    return body + "\n".join(footer)
