"""Campaign health: a one-way state machine that sheds load under pressure.

Long campaigns die of infrastructure, not logic: a trace cache fills the
disk, a worker leaks memory until the OOM-killer breaks the pool, a
corrupt cache entry poisons every analysis that touches it.  The
:class:`HealthController` is the small supervisor-of-supervisors that
turns those raw signals into a policy the rest of the stack can consult:

* ``healthy``  — nothing notable has happened; full service.
* ``degraded`` — pressure observed (a disk budget hit, repeated memory
  quarantines, a pool death, recurring trace corruption).  The campaign
  keeps producing complete verdicts but sheds optional load: the trace
  store stops persisting *new* cache entries once disk pressure repeats,
  and the supervisor shrinks its worker pool instead of rebuilding it at
  full width.
* ``critical`` — the infrastructure is actively failing (pool deaths at
  the serial-fallback threshold).  Everything optional is off; the
  campaign limps home inline.

The machine is deliberately **one-way per campaign** (healthy → degraded
→ critical, never back): de-escalation would make campaign behaviour
depend on *when* pressure happened, and every layer here trades
adaptivity for reproducibility.  Signals and transitions are counted in
the telemetry stream (``health.*``), carried on the ``--progress`` line,
and therefore visible in ``--metrics-out`` run reports.

Import discipline: like the rest of :mod:`repro.obs`, this module imports
nothing from ``repro.runtime`` / ``repro.core`` / ``repro.trace`` — they
import *it* (the trace store and the campaign supervisor share one
controller per campaign).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .telemetry import maybe_telemetry

HEALTHY = "healthy"
DEGRADED = "degraded"
CRITICAL = "critical"

HEALTH_STATES = (HEALTHY, DEGRADED, CRITICAL)

#: numeric rank of each state, exported as the ``health.state`` high-water
#: gauge (0 = healthy, 1 = degraded, 2 = critical).
STATE_RANK = {HEALTHY: 0, DEGRADED: 1, CRITICAL: 2}

# The thresholds; every count is per controller, i.e. per campaign.

#: pool deaths before ``degraded``.
POOL_DEATH_DEGRADED = 1
#: pool deaths before ``critical``: one more than the supervisor's
#: ``POOL_DEATH_LIMIT``, so the same event that forces serial fallback
#: marks the campaign critical.
POOL_DEATH_CRITICAL = 3
#: ``memory``-kind task failures before ``degraded``.
MEMORY_DEGRADED = 2
#: quarantined corrupt traces before ``degraded`` (a single recovered
#: corruption is routine, not pressure).
CORRUPT_DEGRADED = 3
#: disk budget hits after which
#: :attr:`HealthController.trace_recording_enabled` turns off and new
#: trace-store entries become ephemeral.
DISK_DISABLE_THRESHOLD = 3


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state change: where the machine went, and why."""

    state: str
    reason: str

    def describe(self) -> str:
        return f"-> {self.state}: {self.reason}"


class HealthController:
    """Fold infrastructure signals into a load-shedding policy.

    The thresholds are this module's constants; :attr:`transitions` keeps
    every state change, in order.
    """

    def __init__(self) -> None:
        self.state = HEALTHY
        self.transitions: list[HealthTransition] = []
        self.pool_deaths = 0
        self.memory_failures = 0
        self.disk_budget_hits = 0
        self.corrupt_traces = 0
        self.quarantines = 0

    # -- the machine ---------------------------------------------------- #

    def _escalate(self, state: str, reason: str) -> None:
        """Move to ``state`` if it is strictly worse than where we are."""
        if STATE_RANK[state] <= STATE_RANK[self.state]:
            return
        self.state = state
        self.transitions.append(HealthTransition(state=state, reason=reason))
        t = maybe_telemetry()
        if t is not None:
            t.inc("health.transitions")
            t.inc(f"health.transitions.{state}")
            t.gauge_max("health.state", STATE_RANK[state])
            # "health" is a non-deterministic timeline kind: when (and
            # whether) pressure escalates depends on worker timing, so the
            # event rides in the run report's timeline section but stays
            # out of its deterministic projection.
            t.emit(
                "health",
                (len(self.transitions), state),
                {"reason": reason},
                wall_s=time.time(),
            )

    # -- signals -------------------------------------------------------- #

    def record_pool_death(self) -> None:
        """A worker pool broke (OOM-killed worker, segfault, ...)."""
        self.pool_deaths += 1
        t = maybe_telemetry()
        if t is not None:
            t.inc("health.pool_deaths")
        if self.pool_deaths >= POOL_DEATH_CRITICAL:
            self._escalate(
                CRITICAL, f"{self.pool_deaths} worker pool death(s)"
            )
        elif self.pool_deaths >= POOL_DEATH_DEGRADED:
            self._escalate(
                DEGRADED, f"{self.pool_deaths} worker pool death(s)"
            )

    def record_memory_failure(self) -> None:
        """A task attempt blew its per-task memory budget."""
        self.memory_failures += 1
        t = maybe_telemetry()
        if t is not None:
            t.inc("health.memory_failures")
        if self.memory_failures >= MEMORY_DEGRADED:
            self._escalate(
                DEGRADED, f"{self.memory_failures} memory budget failure(s)"
            )

    def record_disk_budget_hit(self) -> None:
        """The trace store's disk budget forced an eviction (or ENOSPC)."""
        self.disk_budget_hits += 1
        t = maybe_telemetry()
        if t is not None:
            t.inc("health.disk_budget_hits")
        self._escalate(
            DEGRADED, f"{self.disk_budget_hits} disk budget hit(s)"
        )

    def record_corrupt_trace(self) -> None:
        """A corrupt trace-store entry was quarantined."""
        self.corrupt_traces += 1
        t = maybe_telemetry()
        if t is not None:
            t.inc("health.corrupt_traces")
        if self.corrupt_traces >= CORRUPT_DEGRADED:
            self._escalate(
                DEGRADED, f"{self.corrupt_traces} corrupt trace(s) quarantined"
            )

    def record_quarantine(self, kind: str) -> None:
        """A task exhausted its retries (any failure kind)."""
        self.quarantines += 1
        if kind == "memory":
            # memory quarantines already escalated attempt-by-attempt.
            return

    # -- policy --------------------------------------------------------- #

    @property
    def trace_recording_enabled(self) -> bool:
        """May the trace store persist *new* cache entries?

        Off once disk pressure repeats (:data:`DISK_DISABLE_THRESHOLD`
        budget hits) or the campaign is critical.  Analysis still works — the
        store records ephemerally and discards — but the cache stops
        growing under pressure.
        """
        if self.state == CRITICAL:
            return False
        return self.disk_budget_hits < DISK_DISABLE_THRESHOLD

    def recommended_jobs(self, jobs: int) -> int:
        """Pool width to rebuild with after a death: halve, floor 1.

        A pool that died of OOM at width N has decent odds of surviving
        at N/2; repeated deaths walk the width down to the supervisor's
        inline fallback instead of thrashing at full fan-out.
        """
        if self.state == HEALTHY:
            return jobs
        return max(1, jobs // 2)

    def describe(self) -> str:
        if not self.transitions:
            return HEALTHY
        steps = "; ".join(t.describe() for t in self.transitions)
        return f"{self.state} ({steps})"


__all__ = [
    "HEALTHY",
    "DEGRADED",
    "CRITICAL",
    "HEALTH_STATES",
    "STATE_RANK",
    "HealthTransition",
    "HealthController",
]
