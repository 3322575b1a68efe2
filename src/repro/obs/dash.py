"""``repro dash``: a self-contained HTML dashboard for one campaign.

Zero dependencies by design — the output is a single HTML file with
inline CSS and hand-rolled SVG, so it opens anywhere a browser exists
(CI artifact viewers included) with no JS frameworks, no CDN fetches, no
network at all.  Input is a run report (``--metrics-out``); its counters
and its ``timeline`` section, which carries every event with its display
fields, feed the panels:

* **stat tiles** — the campaign's headline counters;
* **detector funnel** — candidate pairs → graded schedulable →
  confirmed real, from the ``funnel`` event;
* **posterior sparklines** — per-pair Beta posterior mean over
  cumulative trials, from the reconstructed trajectories;
* **budget burn-down** — trials allocated per schedule round;
* **health band** — the campaign's health state and its ``health``
  transition events;
* **trial timeline** — wall-clock chunk lanes, one per worker track.
"""

from __future__ import annotations

import html as _html

from .telemetry import TelemetrySnapshot
from .timeline import funnel_counts

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.05rem; margin-top: 2rem;
     border-bottom: 1px solid #ddd; padding-bottom: .3rem; }
.meta { color: #666; font-size: .85rem; }
.tiles { display: flex; flex-wrap: wrap; gap: .8rem; margin-top: 1rem; }
.tile { border: 1px solid #ddd; border-radius: .5rem; padding: .6rem 1rem;
        min-width: 7rem; background: #fafaff; }
.tile .v { font-size: 1.3rem; font-weight: 600; }
.tile .k { color: #666; font-size: .75rem; }
table { border-collapse: collapse; margin-top: .6rem; font-size: .85rem; }
td, th { padding: .25rem .7rem; border-bottom: 1px solid #eee;
         text-align: left; }
.bar { height: .9rem; background: #4a6fa5; display: inline-block;
       vertical-align: middle; border-radius: .15rem; }
.bar.ok { background: #2e8b57; } .bar.warn { background: #c9a227; }
.health-healthy { color: #2e8b57; } .health-degraded { color: #c9a227; }
.health-critical { color: #b03030; }
svg { background: #fafaff; border: 1px solid #eee; border-radius: .3rem; }
.lane { fill: #4a6fa5; opacity: .85; }
.note { color: #888; font-size: .8rem; }
"""


def _esc(value) -> str:
    return _html.escape(str(value), quote=True)


def _sparkline(trajectory, *, width=220, height=44, pad=4) -> str:
    """An SVG polyline of posterior mean alpha/(alpha+beta) per step."""
    means = [
        (alpha / (alpha + beta) if alpha + beta else 0.0)
        for _, alpha, beta in trajectory
    ]
    if len(means) == 1:
        means = means * 2
    n = len(means) - 1
    points = " ".join(
        f"{pad + (width - 2 * pad) * i / n:.1f},"
        f"{height - pad - (height - 2 * pad) * m:.1f}"
        for i, m in enumerate(means)
    )
    last = means[-1]
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<polyline points="{points}" fill="none" stroke="#4a6fa5" '
        f'stroke-width="1.5"/>'
        f'<title>posterior mean {last:.3f}</title></svg>'
    )


def _tiles(stats: dict) -> str:
    cells = "".join(
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(key)}</div></div>'
        for key, value in stats.items()
    )
    return f'<div class="tiles">{cells}</div>'


def _funnel_rows(funnel: dict) -> str:
    stages = [
        ("candidate pairs", funnel.get("candidates", 0), ""),
        ("graded schedulable", funnel.get("schedulable", 0), ""),
        ("graded speculative", funnel.get("speculative", 0), "warn"),
        ("ungraded", funnel.get("ungraded", 0), "warn"),
        ("confirmed real", funnel.get("confirmed", 0), "ok"),
    ]
    top = max((count for _, count, _ in stages), default=0) or 1
    rows = []
    for name, count, cls in stages:
        width = int(260 * count / top)
        rows.append(
            f"<tr><td>{_esc(name)}</td><td>{count}</td>"
            f'<td><span class="bar {cls}" style="width:{width}px"></span>'
            f"</td></tr>"
        )
    return "<table>" + "".join(rows) + "</table>"


def _pair_section(pairs: dict) -> str:
    rows = []
    # Pairs seen only as executed chunks (fixed schedule) carry no bind
    # index — sort those after the bound pairs, by label.
    def _order(kv):
        index = kv[1].get("index")
        return (index is None, str(index), kv[0])

    for label, info in sorted(pairs.items(), key=_order):
        trajectory = info.get("trajectory") or [[0, 1.0, 1.0]]
        alpha, beta = trajectory[-1][1], trajectory[-1][2]
        mean = alpha / (alpha + beta) if alpha + beta else 0.0
        grade = info.get("grade", "")
        stopped = info.get("stopped", "")
        rows.append(
            f"<tr><td><code>{_esc(label)}</code></td>"
            f"<td>{_esc(grade)}</td>"
            f"<td>{info.get('trials', 0)}</td>"
            f"<td>{info.get('created', 0)}</td>"
            f"<td>{mean:.3f}</td>"
            f"<td>{_sparkline(trajectory)}</td>"
            f"<td>{_esc(stopped)}</td></tr>"
        )
    if not rows:
        return '<p class="note">no per-pair trajectories recorded</p>'
    return (
        "<table><tr><th>pair</th><th>grade</th><th>trials</th>"
        "<th>created</th><th>post. mean</th><th>trajectory</th>"
        "<th>stopped</th></tr>" + "".join(rows) + "</table>"
    )


def _burndown(rounds: list) -> str:
    """Per-round allocation bars: trials issued by each schedule round."""
    if not rounds:
        return '<p class="note">no schedule rounds recorded</p>'
    top = max(trials for _, trials in rounds) or 1
    rows = []
    total = 0
    for index, trials in rounds:
        total += trials
        width = int(260 * trials / top)
        rows.append(
            f"<tr><td>round {index}</td><td>{trials}</td>"
            f'<td><span class="bar" style="width:{width}px"></span></td>'
            f"<td>{total}</td></tr>"
        )
    return (
        "<table><tr><th>round</th><th>trials</th><th></th>"
        "<th>cumulative</th></tr>" + "".join(rows) + "</table>"
    )


def _health_band(state: str, transitions: list) -> str:
    body = (
        f'<p>campaign health: <strong class="health-{_esc(state)}">'
        f"{_esc(state)}</strong></p>"
    )
    if transitions:
        rows = "".join(
            f"<tr><td>{_esc(step)}</td><td>{_esc(to_state)}</td>"
            f"<td>{_esc(reason)}</td></tr>"
            for step, to_state, reason in transitions
        )
        body += (
            "<table><tr><th>#</th><th>state</th><th>reason</th></tr>"
            + rows
            + "</table>"
        )
    return body


def _timeline_lanes(events, *, width=640, lane_h=14) -> str:
    """Wall-clock chunk lanes, one row per worker track."""
    timed = sorted(
        (e for e in events if e.kind == "chunk" and e.wall_s > 0.0),
        key=lambda e: e.wall_s,
    )
    if not timed:
        return '<p class="note">no wall-clock chunk events recorded</p>'
    origin = min(e.wall_s for e in timed)
    span = max(e.wall_s + e.dur_s for e in timed) - origin or 1e-9
    tracks = sorted({e.track for e in timed})
    height = lane_h * (len(tracks) + 1)
    parts = [f'<svg width="{width + 120}" height="{height + 8}">']
    for row, track in enumerate(tracks):
        y = 4 + row * lane_h
        parts.append(
            f'<text x="2" y="{y + lane_h - 4}" font-size="10" '
            f'fill="#666">{_esc(track or "main")}</text>'
        )
        for e in (e for e in timed if e.track == track):
            x = 110 + width * (e.wall_s - origin) / span
            w = max(2.0, width * e.dur_s / span)
            label = "/".join(str(part) for part in e.key)
            parts.append(
                f'<rect class="lane" x="{x:.1f}" y="{y}" '
                f'width="{w:.1f}" height="{lane_h - 3}">'
                f"<title>{_esc(label)} ({e.dur_s * 1e3:.1f} ms)</title>"
                f"</rect>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _model(report: dict) -> dict:
    section = report.get("timeline") or {}
    counters = report.get("counters", {})
    events = TelemetrySnapshot.from_jsonable(section).events
    rank = report.get("gauges", {}).get("health.state", 0)
    state = {0: "healthy", 1: "degraded", 2: "critical"}.get(int(rank), "healthy")
    health = sorted((e for e in events if e.kind == "health"), key=lambda e: e.key)
    rounds = sorted(
        (e.key[0], e.attrs_dict.get("trials", 0))
        for e in events
        if e.kind == "schedule.round"
    )
    return {
        "title": f"run report — {report.get('command', '?')}",
        "workload": report.get("workload"),
        "stats": {
            "trials": counters.get("fuzz.trials", 0),
            "races created": counters.get("fuzz.races_created", 0),
            "postpones": counters.get("fuzz.postpones", 0),
            "schedule rounds": counters.get("schedule.rounds", 0),
            "pairs confirmed": counters.get("schedule.pairs_confirmed", 0),
            "store hits": counters.get("trace.store_hits", 0),
            "retries": counters.get("supervisor.retries", 0),
        },
        "funnel": funnel_counts(events) or {},
        "pairs": section.get("pairs") or {},
        "rounds": rounds,
        "health_state": state,
        "health_transitions": [
            (e.key[0], e.key[1], e.attrs_dict.get("reason", "")) for e in health
        ],
        "events": events,
    }


def render_dash(report: dict) -> str:
    """Render a run report as standalone HTML."""
    model = _model(report)
    workload = (
        f'<span class="meta"> · workload: {_esc(model["workload"])}</span>'
        if model["workload"]
        else ""
    )
    sections = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>repro dash</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(model['title'])}{workload}</h1>",
        _tiles(model["stats"]),
        "<h2>Detector funnel</h2>",
        _funnel_rows(model["funnel"]),
        "<h2>Pair posteriors</h2>",
        _pair_section(model["pairs"]),
        "<h2>Trial allocation burn-down</h2>",
        _burndown(model["rounds"]),
        "<h2>Health</h2>",
        _health_band(model["health_state"], model["health_transitions"]),
        "<h2>Trial timeline</h2>",
        _timeline_lanes(model["events"]),
        "</body></html>",
    ]
    return "\n".join(sections) + "\n"


def write_dash(path, report: dict) -> str:
    """Write :func:`render_dash` output to ``path``; returns the HTML."""
    html = render_dash(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(html)
    return html


__all__ = ["render_dash", "write_dash"]
