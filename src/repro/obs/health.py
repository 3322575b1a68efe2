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
from typing import Callable

from .telemetry import maybe_telemetry

HEALTHY = "healthy"
DEGRADED = "degraded"
CRITICAL = "critical"

HEALTH_STATES = (HEALTHY, DEGRADED, CRITICAL)

#: numeric rank of each state, exported as the ``health.state`` high-water
#: gauge (0 = healthy, 1 = degraded, 2 = critical).
STATE_RANK = {HEALTHY: 0, DEGRADED: 1, CRITICAL: 2}


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state change: where the machine went, and why."""

    state: str
    reason: str

    def describe(self) -> str:
        return f"-> {self.state}: {self.reason}"


class HealthController:
    """Fold infrastructure signals into a load-shedding policy.

    Thresholds (all counts are per controller, i.e. per campaign):

    Parameters:
        pool_death_degraded: pool deaths before ``degraded``.
        pool_death_critical: pool deaths before ``critical`` (align this
            with the supervisor's ``pool_death_limit + 1``: the same
            event that forces serial fallback marks the campaign
            critical).
        memory_degraded: ``memory``-kind task failures before
            ``degraded``.
        corrupt_degraded: quarantined corrupt traces before ``degraded``
            (a single recovered corruption is routine, not pressure).
        disk_disable_threshold: disk budget hits after which
            :attr:`trace_recording_enabled` turns off and new trace-store
            entries become ephemeral.
    """

    def __init__(
        self,
        *,
        pool_death_degraded: int = 1,
        pool_death_critical: int = 3,
        memory_degraded: int = 2,
        corrupt_degraded: int = 3,
        disk_disable_threshold: int = 3,
        on_transition: Callable[[HealthTransition], None] | None = None,
    ) -> None:
        if pool_death_critical < pool_death_degraded:
            raise ValueError(
                f"pool_death_critical ({pool_death_critical}) must be >= "
                f"pool_death_degraded ({pool_death_degraded})"
            )
        self.pool_death_degraded = pool_death_degraded
        self.pool_death_critical = pool_death_critical
        self.memory_degraded = memory_degraded
        self.corrupt_degraded = corrupt_degraded
        self.disk_disable_threshold = disk_disable_threshold
        self.on_transition = on_transition
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
        transition = HealthTransition(state=state, reason=reason)
        self.transitions.append(transition)
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
        if self.on_transition is not None:
            self.on_transition(transition)

    # -- signals -------------------------------------------------------- #

    def record_pool_death(self) -> None:
        """A worker pool broke (OOM-killed worker, segfault, ...)."""
        self.pool_deaths += 1
        t = maybe_telemetry()
        if t is not None:
            t.inc("health.pool_deaths")
        if self.pool_deaths >= self.pool_death_critical:
            self._escalate(
                CRITICAL, f"{self.pool_deaths} worker pool death(s)"
            )
        elif self.pool_deaths >= self.pool_death_degraded:
            self._escalate(
                DEGRADED, f"{self.pool_deaths} worker pool death(s)"
            )

    def record_memory_failure(self) -> None:
        """A task attempt blew its per-task memory budget."""
        self.memory_failures += 1
        t = maybe_telemetry()
        if t is not None:
            t.inc("health.memory_failures")
        if self.memory_failures >= self.memory_degraded:
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
        if self.corrupt_traces >= self.corrupt_degraded:
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

        Off once disk pressure repeats (``disk_disable_threshold`` budget
        hits) or the campaign is critical.  Analysis still works — the
        store records ephemerally and discards — but the cache stops
        growing under pressure.
        """
        if self.state == CRITICAL:
            return False
        return self.disk_budget_hits < self.disk_disable_threshold

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
