"""Versioned run reports: the exportable form of a campaign's metrics.

A run report is the one telemetry document: a schema version,
provenance (command, workload, environment), the aggregates of the
campaign's :class:`~repro.obs.telemetry.TelemetrySnapshot` and its
``timeline`` section, which carries every event with its display fields.
CI smoke jobs validate emitted reports against
:func:`validate_run_report`; humans read them back via ``repro stats``
(:func:`render_stats_table`: metrics, the detector funnel and each
fuzzed pair's outcome) and ``repro trace-export`` (wall-clock lanes).
The serial == ``--jobs N`` == resumed equality surface is the projection
:func:`~repro.obs.timeline.deterministic_section` of the snapshot
:func:`snapshot_from_report` recovers.

``write_run_report(..., merge_existing=True)`` is the checkpoint story:
a resumed ``--checkpoint`` campaign folds the prior report's snapshot
into its own (by the one snapshot merge law) instead of overwriting it,
so counters and the timeline section keep accumulating across kills and
restarts exactly like the journal keeps verdicts.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Any, Mapping

from .telemetry import TelemetrySnapshot
from .timeline import timeline_section, validate_timeline_section

#: bump when the report layout changes incompatibly; only the current
#: version validates.  v6 carries two aggregates, ``counters`` and
#: ``spans`` (v5 also carried gauges and histograms); every per-pair and
#: per-schedule event is keyed by workload first and ``timeline.pairs``
#: by workload, then pair label.
REPORT_VERSION = 6

#: discriminator so tooling can reject arbitrary JSON files early.
REPORT_KIND = "repro-run-report"

#: counters every run report carries (zero-filled when a layer never ran),
#: so readers can rely on the keys existing.
REQUIRED_COUNTERS: tuple[str, ...] = (
    "interp.executions",
    "interp.steps",
    "fuzz.trials",
    "fuzz.postpones",
    "fuzz.coin_flips",
    "fuzz.races_created",
    "supervisor.retries",
    "supervisor.deadline_kills",
    "supervisor.quarantines",
    "supervisor.journal_skipped",
    "trace.store_hits",
    "trace.store_misses",
    "trace.store_corrupt",
    "trace.store_recovered",
    "schedule.rounds",
    "schedule.trials_allocated",
    "schedule.pairs_confirmed",
    "schedule.pairs_early_stopped",
)


def environment_metadata() -> dict:
    """Where this run happened — embedded in run reports and benchmark
    records so numbers are comparable across machines."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def build_run_report(
    snapshot: TelemetrySnapshot,
    *,
    command: str,
    workload: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict:
    """Assemble the versioned JSON document for one campaign's telemetry:
    its aggregates plus the ``timeline`` section built from its events."""
    body = snapshot.to_jsonable()
    counters = dict.fromkeys(REQUIRED_COUNTERS, 0) | body["counters"]
    report = {
        "kind": REPORT_KIND,
        "version": REPORT_VERSION,
        "command": command,
        "workload": workload,
        "env": environment_metadata(),
        "counters": dict(sorted(counters.items())),
        "spans": body["spans"],
        "timeline": timeline_section(snapshot),
    }
    if extra:
        report["extra"] = dict(extra)
    return report


def snapshot_from_report(report: Mapping) -> TelemetrySnapshot:
    """Recover the mergeable snapshot a report was built from: its
    aggregates and every event of its ``timeline`` section."""
    section = report.get("timeline", {})
    events = {k: section[k] for k in ("events", "budget", "dropped") if k in section}
    return TelemetrySnapshot.from_jsonable({**report, **events})


def load_run_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_run_report(
    path,
    snapshot: TelemetrySnapshot,
    *,
    command: str,
    workload: str | None = None,
    extra: Mapping[str, Any] | None = None,
    merge_existing: bool = False,
) -> dict:
    """Write a run report; returns the document written.

    With ``merge_existing`` (used when a campaign resumes from a
    ``--checkpoint`` journal), a valid prior report at ``path`` is folded
    into ``snapshot`` first, so the report accumulates across restarts
    instead of counting only the resumed tail.  A missing prior file is
    ignored; an unreadable or invalid one (say, a report of another
    version) is overwritten with a stderr note naming its first problem.
    The prior ``timeline`` section's events join the dedup union too, so
    a resumed campaign's deterministic projection equals an uninterrupted
    run's.
    """
    if merge_existing and os.path.exists(path):
        try:
            prior = load_run_report(path)
        except (OSError, ValueError) as exc:
            errors = [str(exc)]
        else:
            errors = validate_run_report(prior)
        if errors:
            print(
                f"repro: run report {path}: not merged, overwriting it "
                f"({errors[0]})",
                file=sys.stderr,
            )
        else:
            snapshot = snapshot_from_report(prior).merged(snapshot)
    report = build_run_report(
        snapshot, command=command, workload=workload, extra=extra
    )
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    os.replace(tmp, path)
    return report


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_run_report(report: Any) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(report, Mapping):
        return [f"report must be a JSON object, got {type(report).__name__}"]
    if report.get("kind") != REPORT_KIND:
        errors.append(f"kind must be {REPORT_KIND!r}, got {report.get('kind')!r}")
    version = report.get("version")
    if version != REPORT_VERSION:
        errors.append(
            f"version must be {REPORT_VERSION}, got {version!r} "
            f"(reports of other versions are not read)"
        )
    if not isinstance(report.get("command"), str) or not report.get("command"):
        errors.append("command must be a non-empty string")
    env = report.get("env")
    if not isinstance(env, Mapping) or "python" not in env or "cpu_count" not in env:
        errors.append("env must carry at least python and cpu_count")
    counters = report.get("counters")
    if not isinstance(counters, Mapping):
        errors.append("counters must be an object")
    else:
        for key in REQUIRED_COUNTERS:
            if key not in counters:
                errors.append(f"missing required counter {key!r}")
        for key, value in counters.items():
            if not _is_int(value) or value < 0:
                errors.append(f"counter {key!r} must be a non-negative int")
    spans = report.get("spans", {})
    if not isinstance(spans, Mapping):
        errors.append("spans must be an object")
    else:
        for key, s in spans.items():
            if not isinstance(s, Mapping):
                errors.append(f"span {key!r} must be an object")
                continue
            count = s.get("count")
            total_s, min_s, max_s = (s.get(k) for k in ("total_s", "min_s", "max_s"))
            if not _is_int(count) or not all(map(_is_number, (total_s, min_s, max_s))):
                errors.append(
                    f"span {key!r}: count must be an int and "
                    f"total_s/min_s/max_s numbers"
                )
                continue
            if count < 0 or total_s < 0:
                errors.append(f"span {key!r}: count/total_s must be >= 0")
            if count > 0 and min_s > max_s:
                errors.append(f"span {key!r}: min_s exceeds max_s")
    if "timeline" not in report:
        errors.append("timeline section is missing")
    else:
        errors.extend(validate_timeline_section(report["timeline"]))
    return errors


# --------------------------------------------------------------------- #
# renderers
# --------------------------------------------------------------------- #


#: the detector funnel's stages, in the order a pair passes them.
FUNNEL_STAGES = (
    "candidates", "schedulable", "speculative", "ungraded", "confirmed",
)


def _render_section(title: str, headers: list[str], rows: list[list]) -> str:
    # Local minimal table renderer (repro.harness.render draws the same
    # style, but obs must stay import-clean of core/harness).
    table = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table)) if table else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [title, fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in table)
    return "\n".join(lines)


def render_stats_table(report: Mapping) -> str:
    """The ``repro stats`` payload: a run report as readable tables."""
    env = report.get("env", {})
    header = (
        f"run report v{report.get('version')} — command: {report.get('command')}"
        + (f", workload: {report['workload']}" if report.get("workload") else "")
        + f"\npython {env.get('python', '?')} on {env.get('platform', '?')}"
        f" ({env.get('cpu_count', '?')} cpus)"
    )
    sections = [header]
    counters = report.get("counters", {})
    if counters:
        sections.append(
            _render_section(
                "counters",
                ["name", "value"],
                [[name, value] for name, value in sorted(counters.items())],
            )
        )
    spans = report.get("spans", {})
    if spans:
        rows = []
        for name, s in sorted(spans.items()):
            mean = s["total_s"] / s["count"] if s["count"] else 0.0
            rows.append(
                [
                    name,
                    s["count"],
                    f"{s['total_s']:.4f}",
                    f"{mean:.4f}",
                    f"{s['min_s']:.4f}",
                    f"{s['max_s']:.4f}",
                ]
            )
        sections.append(
            _render_section(
                "spans (seconds)",
                ["name", "count", "total", "mean", "min", "max"],
                rows,
            )
        )
    section = report.get("timeline", {})
    funnels = sorted(
        (event["key"][0], event["attrs"])
        for event in section.get("events", ())
        if event["kind"] == "funnel"
    )
    if funnels:
        sections.append(
            _render_section(
                "detector funnel",
                ["workload", *FUNNEL_STAGES],
                [
                    [workload, *(attrs.get(stage, 0) for stage in FUNNEL_STAGES)]
                    for workload, attrs in funnels
                ],
            )
        )
    rows = [
        [
            workload,
            label,
            row.get("grade", "-"),
            row["trials"],
            row["created"],
            row.get("stopped", "-"),
        ]
        for workload, pairs in section.get("pairs", {}).items()
        for label, row in pairs.items()
    ]
    if rows:
        sections.append(
            _render_section(
                "pairs",
                ["workload", "pair", "grade", "trials", "created", "stopped"],
                rows,
            )
        )
    return "\n\n".join(sections)


__all__ = [
    "REPORT_VERSION",
    "REPORT_KIND",
    "REQUIRED_COUNTERS",
    "environment_metadata",
    "build_run_report",
    "write_run_report",
    "load_run_report",
    "snapshot_from_report",
    "validate_run_report",
    "render_stats_table",
]
