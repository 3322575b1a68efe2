"""Observability: one telemetry stream, one run report, and progress.

The package every other layer is instrumented against:

* :mod:`repro.obs.telemetry` — the one :class:`Telemetry` stream
  (three aggregate kinds: counters, span timers, and the bounded ring of
  timeline events), its picklable :class:`TelemetrySnapshot` with one
  merge law, and the process-wide switch (:func:`collecting` /
  :func:`maybe_telemetry`).  Off by default: every instrumented site
  then costs one ``None``-check.
* :mod:`repro.obs.report` — the versioned JSON run report
  (``--metrics-out``, version 6: counters, spans and the ``timeline``
  section), the one telemetry document: schema validation and the
  ``repro stats`` table renderer (counters, spans, the detector funnel
  per workload, and each fuzzed pair's outcome).
* :mod:`repro.obs.timeline` — the run report's ``timeline`` section
  (every event, display fields included), its deterministic projection
  (the serial == ``--jobs N`` == resumed equality surface), and each
  fuzzed pair's outcome by workload.
* :mod:`repro.obs.traceexport` — Chrome trace-event JSON rendering of a
  report's ``timeline`` section, loadable in Perfetto /
  ``chrome://tracing``: the wall-clock view.
* :mod:`repro.obs.progress` — the ``on_progress`` hook's
  :class:`ProgressUpdate` value type and the stock throttled printer.

Observability only reports: no signal recorded here changes what a
campaign does.  Pool deaths, quarantines, failed attempts by kind and
trace-store corruptions are plain counters (``supervisor.*``, ``trace.*``);
the layer that sees each failure owns the one rule that answers it.

This package exports what the rest of the code base imports; everything
else is reachable from its submodule.  Import discipline: this package
imports nothing from ``repro.runtime`` / ``repro.core`` / ``repro.trace``
(they all import *it*).
"""

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
    # trace export
    "chrome_trace",
    "write_chrome_trace",
    # progress
    "ProgressPrinter",
    "ProgressUpdate",
]
