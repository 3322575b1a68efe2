"""Chrome trace-event export: a run report's timeline rendered for Perfetto.

``repro trace-export`` turns a run report's ``timeline`` section
(``--metrics-out``) into the Chrome trace-event JSON format — the lingua
franca of ``ui.perfetto.dev`` and ``chrome://tracing``.  The mapping:

* every worker track (``p<pid>``) becomes a thread under the "workers"
  process, carrying the timed events that process actually executed
  (trials, chunks, store fills) as ``"X"`` complete slices;
* every racing pair becomes a thread under the "pairs" process, so the
  per-pair view lines the same chunks up by pair instead of by worker;
* untimed events (schedule rounds, posterior updates, health
  transitions) become ``"i"`` instants on their track.

Timestamps are wall-clock microseconds normalized to the earliest timed
event, so a campaign that ran at 3am renders starting at t=0.  Events
recorded without wall time land at t=0.
"""

from __future__ import annotations

import json

from .telemetry import TelemetrySnapshot

#: synthetic process ids for the two grouping views.
WORKER_PID = 1
PAIR_PID = 2

#: event kinds whose key starts with a pair label (mirrored onto the
#: per-pair process so chunks group by pair as well as by worker).
PAIR_KEYED_KINDS = frozenset({"chunk", "trial"})


def _event_name(event) -> str:
    key = "/".join(str(part) for part in event.key)
    return f"{event.kind}:{key}" if key else event.kind


def _args(event) -> dict:
    return {name: value for name, value in event.attrs}


def chrome_trace(document) -> dict:
    """Render a snapshot, or a run report's ``timeline`` section, as
    trace-event JSON.

    Returns the standard ``{"traceEvents": [...]}`` object-format wrapper
    Perfetto and ``chrome://tracing`` both load.
    """
    snapshot = (
        document
        if isinstance(document, TelemetrySnapshot)
        else TelemetrySnapshot.from_jsonable(document)
    )
    events = list(snapshot.events)
    timed = [e for e in events if e.wall_s > 0.0]
    origin = min((e.wall_s for e in timed), default=0.0)

    trace: list[dict] = []
    tracks: dict[str, int] = {}
    pair_tracks: dict[str, int] = {}

    def worker_tid(track: str) -> int:
        if track not in tracks:
            tracks[track] = len(tracks) + 1
            trace.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": WORKER_PID,
                    "tid": tracks[track],
                    "args": {"name": track or "main"},
                }
            )
        return tracks[track]

    def pair_tid(label: str) -> int:
        if label not in pair_tracks:
            pair_tracks[label] = len(pair_tracks) + 1
            trace.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": PAIR_PID,
                    "tid": pair_tracks[label],
                    "args": {"name": label},
                }
            )
        return pair_tracks[label]

    for pid, name in ((WORKER_PID, "workers"), (PAIR_PID, "pairs")):
        trace.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    for event in events:
        ts = int((event.wall_s - origin) * 1e6) if event.wall_s > 0.0 else 0
        base = {
            "name": _event_name(event),
            "cat": event.kind,
            "pid": WORKER_PID,
            "tid": worker_tid(event.track),
            "ts": ts,
            "args": _args(event),
        }
        if event.dur_s > 0.0:
            base["ph"] = "X"
            base["dur"] = max(1, int(event.dur_s * 1e6))
        else:
            base["ph"] = "i"
            base["s"] = "t"  # instant scoped to its thread
        trace.append(base)
        if event.kind in PAIR_KEYED_KINDS and event.key:
            mirrored = dict(base)
            mirrored["pid"] = PAIR_PID
            mirrored["tid"] = pair_tid(str(event.key[0]))
            trace.append(mirrored)

    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(path, document) -> dict:
    """Write :func:`chrome_trace` output to ``path``; returns the object."""
    trace = chrome_trace(document)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return trace


__all__ = ["chrome_trace", "write_chrome_trace", "WORKER_PID", "PAIR_PID"]
