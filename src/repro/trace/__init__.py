"""First-class execution traces: record once, analyze many.

This package makes the event stream of one execution a serializable,
cacheable artifact, decoupling the expensive half of Phase 1 (running the
program) from the cheap half (detector passes over the events):

* :mod:`~repro.trace.schema` — the versioned JSONL wire format (positional
  event rows with define-on-first-use tables);
* :mod:`~repro.trace.io` — :class:`TraceWriter` / :class:`TraceReader` /
  :class:`TraceRecorder` streaming I/O over plain JSONL files;
* :mod:`~repro.trace.store` — the :class:`TraceStore` cache of Phase-1
  executions keyed by (workload, seed, max_steps, schema version);
* :mod:`~repro.trace.replay` — :func:`replay_events`, which drives any
  :class:`~repro.runtime.observer.ExecutionObserver` over a recorded
  stream, and :func:`analyze_trace` for named detectors.

The store has one job: ``detect_races(..., trace_dir=...)`` (on the CLI,
``detect --trace-dir``) records each seed once, and later runs replay it
into the detectors.  A corrupt entry is quarantined and re-recorded.
"""

from .io import (
    TraceReader,
    TraceRecorder,
    TraceWriter,
    load_trace,
    record_execution,
    verify_trace,
)
from .replay import ReplaySource, analyze_trace, replay_events
from .schema import (
    SCHEMA_VERSION,
    EventDecoder,
    EventEncoder,
    TraceCorruptError,
    TraceFooter,
    TraceHeader,
    TraceSchemaError,
)
from .store import (
    PHASE1_SCHEDULER,
    QUARANTINE_DIR,
    StoreStats,
    TraceKey,
    TraceStore,
    detect_key,
)

__all__ = [
    "SCHEMA_VERSION",
    "TraceSchemaError",
    "TraceCorruptError",
    "TraceHeader",
    "TraceFooter",
    "EventEncoder",
    "EventDecoder",
    "TraceWriter",
    "TraceReader",
    "TraceRecorder",
    "record_execution",
    "load_trace",
    "verify_trace",
    "TraceKey",
    "TraceStore",
    "StoreStats",
    "detect_key",
    "QUARANTINE_DIR",
    "PHASE1_SCHEDULER",
    "ReplaySource",
    "replay_events",
    "analyze_trace",
]
