"""Observability: one telemetry stream, one run report, and progress.

The package every other layer is instrumented against:

* :mod:`repro.obs.telemetry` — the one :class:`Telemetry` stream
  (counters, gauges, fixed-bucket histograms, span timers, and the
  bounded event ring), its picklable :class:`TelemetrySnapshot` with one
  merge law, and the process-wide switch (:func:`collecting` /
  :func:`maybe_telemetry`).  Off by default: every instrumented site
  then costs one ``None``-check.
* :mod:`repro.obs.report` — the versioned JSON run report
  (``--metrics-out``), the one telemetry document: schema validation
  and the ``repro stats`` table renderer.
* :mod:`repro.obs.timeline` — the run report's ``timeline`` section
  (every event, display fields included), its deterministic projection
  (the serial == ``--jobs N`` == resumed equality surface), and per-pair
  posterior trajectories.
* :mod:`repro.obs.traceexport` — Chrome trace-event JSON rendering of a
  report's ``timeline`` section, loadable in Perfetto /
  ``chrome://tracing``.
* :mod:`repro.obs.dash` — the zero-dependency standalone HTML dashboard
  (``repro dash``).
* :mod:`repro.obs.progress` — the ``on_progress`` hook's
  :class:`ProgressUpdate` value type and the stock throttled printer.

Observability only reports: no signal recorded here changes what a
campaign does.  Pool deaths, quarantines, failed attempts by kind and
trace-store evictions are plain counters (``supervisor.*``, ``trace.*``);
the layer that sees each failure owns the one rule that answers it.

This package exports what the rest of the code base imports; everything
else is reachable from its submodule.  Import discipline: this package
imports nothing from ``repro.runtime`` / ``repro.core`` / ``repro.trace``
(they all import *it*).
"""

from .dash import render_dash
from .progress import ProgressPrinter, ProgressUpdate
from .report import (
    REQUIRED_COUNTERS,
    environment_metadata,
    load_run_report,
    render_stats_table,
    validate_run_report,
    write_run_report,
)
from .telemetry import (
    STEP_BUCKETS,
    WALL_BUCKETS,
    MeteredResult,
    Telemetry,
    TelemetrySnapshot,
    collecting,
    maybe_telemetry,
    recording_timeline,
    span,
)
from .traceexport import chrome_trace, write_chrome_trace

__all__ = [
    # telemetry
    "Telemetry",
    "TelemetrySnapshot",
    "MeteredResult",
    "STEP_BUCKETS",
    "WALL_BUCKETS",
    "collecting",
    "maybe_telemetry",
    "recording_timeline",
    "span",
    # report
    "REQUIRED_COUNTERS",
    "environment_metadata",
    "load_run_report",
    "render_stats_table",
    "validate_run_report",
    "write_run_report",
    # trace export & dashboard
    "chrome_trace",
    "write_chrome_trace",
    "render_dash",
    # progress
    "ProgressPrinter",
    "ProgressUpdate",
]
