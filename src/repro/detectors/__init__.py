"""Phase 1 detectors: imprecise (and precise) dynamic race detection.

Four of the five are configurations of one history kernel,
:class:`HistoryRaceDetector` (:mod:`repro.detectors.base`), which runs
the Section 2.2 check over a per-location access history.  One kernel
serves any set of them in a single walk of each event; a multi-detector
run gets it from :func:`make_detectors`.

Observed-order detectors (what was concurrent in this schedule):

* :class:`HybridRaceDetector` — the paper's Phase 1 (lockset + start/join/
  notify happens-before);
* :class:`HappensBeforeDetector` — precise HB baseline;
* :class:`EraserLocksetDetector` — pure lockset baseline (its own state
  machine, the one detector outside the kernel).

Predictive detectors (what could be concurrent in some feasible
reordering of the same trace).  The trace layer made executions
record-once / analyze-many, and these exploit it: they report a strictly
larger candidate set per recorded execution, feeding Phase 2 more leads
per CPU-second spent executing programs:

* :class:`ShbRaceDetector` — SHB-style, keeps predicting past the first
  race, grades pairs by strong-dependently-precedes concurrency;
* :class:`WcpRaceDetector` — WCP-style near-complete prediction with
  lock-acquisition-history guard reasoning.

All are ordinary :class:`~repro.runtime.observer.ExecutionObserver`
detectors emitting :class:`RaceReport` / :class:`PairEvidence`: they run
live on an execution, or offline over any stored trace through
:func:`repro.trace.analyze_trace`, with identical results.  Any of them
(or a hand-written pair list) can seed Phase 2: RaceFuzzer only needs "a
set of statements whose simultaneous execution could lead to a
concurrency problem" (Section 1).
"""

from .base import (
    CONFIGURATIONS,
    HappensBeforeDetector,
    HistoryRaceDetector,
    HybridRaceDetector,
    ShbRaceDetector,
    WcpRaceDetector,
)
from .lockset import EraserLocksetDetector
from .report import (
    PairEvidence,
    RaceReport,
    schedulable_grades,
    union_reports,
)
from .vectorclock import VectorClock

DETECTORS = {
    "hybrid": HybridRaceDetector,
    "happens-before": HappensBeforeDetector,
    "lockset": EraserLocksetDetector,
    "shb": ShbRaceDetector,
    "wcp": WcpRaceDetector,
}


def available_detectors() -> list[str]:
    """Registered detector names, sorted — the single source the CLI and
    error messages quote."""
    return sorted(DETECTORS)


def make_detector(name: str):
    """Build a registered detector by name, with its default settings.

    Raises ``KeyError`` for names not in :data:`DETECTORS`.
    """
    try:
        cls = DETECTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown detector {name!r}; registered: {available_detectors()}"
        ) from None
    return cls()


def make_detectors(names):
    """Observers for a multi-detector run, and a function returning their
    reports by name once the run is over.

    Every kernel configuration among ``names`` (:data:`CONFIGURATIONS`)
    joins one :class:`HistoryRaceDetector`, so each event is walked once
    for all of them; every other name gets its own observer.  Raises
    ``KeyError`` like :func:`make_detector`.
    """
    names = tuple(dict.fromkeys(names))
    kernel_names = [name for name in names if name in CONFIGURATIONS]
    kernel = HistoryRaceDetector(kernel_names) if kernel_names else None
    alone = {
        name: make_detector(name) for name in names if name not in CONFIGURATIONS
    }
    observers = ([] if kernel is None else [kernel]) + list(alone.values())

    def reports() -> dict[str, RaceReport]:
        return {
            name: alone[name].report if name in alone else kernel.reports[name]
            for name in names
        }

    return observers, reports


__all__ = [
    "VectorClock",
    "HistoryRaceDetector",
    "HybridRaceDetector",
    "HappensBeforeDetector",
    "EraserLocksetDetector",
    "ShbRaceDetector",
    "WcpRaceDetector",
    "RaceReport",
    "PairEvidence",
    "union_reports",
    "schedulable_grades",
    "DETECTORS",
    "available_detectors",
    "make_detector",
    "make_detectors",
]
