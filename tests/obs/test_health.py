"""The HealthController state machine: escalation, policy, one-way-ness."""

from repro.core import supervisor
from repro.obs import collecting, health as health_module
from repro.obs.health import (
    CRITICAL,
    DEGRADED,
    HEALTH_STATES,
    HEALTHY,
    STATE_RANK,
    HealthController,
)


def _critical_at(monkeypatch, deaths):
    """Lower the critical pool-death threshold for one test."""
    monkeypatch.setattr(health_module, "POOL_DEATH_CRITICAL", deaths)


class TestEscalation:
    def test_starts_healthy_with_full_service(self):
        health = HealthController()
        assert health.state == HEALTHY
        assert health.trace_recording_enabled
        assert health.recommended_jobs(8) == 8
        assert health.describe() == HEALTHY

    def test_one_pool_death_degrades(self):
        health = HealthController()
        health.record_pool_death()
        assert health.state == DEGRADED

    def test_pool_deaths_escalate_to_critical(self):
        health = HealthController()
        for _ in range(3):
            health.record_pool_death()
        assert health.state == CRITICAL
        # Both transitions recorded, in order.
        assert [t.state for t in health.transitions] == [DEGRADED, CRITICAL]

    def test_memory_failures_degrade_at_threshold(self):
        health = HealthController()
        health.record_memory_failure()
        assert health.state == HEALTHY
        health.record_memory_failure()
        assert health.state == DEGRADED

    def test_single_corrupt_trace_is_routine(self):
        health = HealthController()
        health.record_corrupt_trace()
        health.record_corrupt_trace()
        assert health.state == HEALTHY
        health.record_corrupt_trace()
        assert health.state == DEGRADED

    def test_disk_budget_hit_degrades_immediately(self):
        health = HealthController()
        health.record_disk_budget_hit()
        assert health.state == DEGRADED

    def test_machine_is_one_way(self, monkeypatch):
        # No signal ever de-escalates: reproducibility beats adaptivity.
        _critical_at(monkeypatch, 1)
        health = HealthController()
        health.record_pool_death()
        assert health.state == CRITICAL
        health.record_memory_failure()
        health.record_corrupt_trace()
        assert health.state == CRITICAL
        assert len(health.transitions) == 1

    def test_threshold_validation(self):
        # Degraded before critical, and critical exactly at the pool
        # death that forces the supervisor's serial fallback.
        assert health_module.POOL_DEATH_DEGRADED <= health_module.POOL_DEATH_CRITICAL
        assert health_module.POOL_DEATH_CRITICAL == supervisor.POOL_DEATH_LIMIT + 1

    def test_state_rank_covers_all_states(self):
        assert sorted(STATE_RANK) == sorted(HEALTH_STATES)
        assert STATE_RANK[HEALTHY] < STATE_RANK[DEGRADED] < STATE_RANK[CRITICAL]


class TestPolicy:
    def test_recording_disabled_after_repeated_disk_pressure(self):
        health = HealthController()
        for _ in range(2):
            health.record_disk_budget_hit()
        assert health.trace_recording_enabled  # degraded but still caching
        health.record_disk_budget_hit()
        assert not health.trace_recording_enabled

    def test_recording_disabled_when_critical(self, monkeypatch):
        _critical_at(monkeypatch, 1)
        health = HealthController()
        health.record_pool_death()
        assert not health.trace_recording_enabled

    def test_recommended_jobs_halves_under_pressure(self):
        health = HealthController()
        health.record_pool_death()
        assert health.recommended_jobs(8) == 4
        assert health.recommended_jobs(2) == 1
        assert health.recommended_jobs(1) == 1  # floor

    def test_describe_names_every_transition(self):
        health = HealthController()
        for _ in range(3):
            health.record_pool_death()
        described = health.describe()
        assert described.startswith(CRITICAL)
        assert "pool death" in described


class TestObservability:
    def test_transitions_are_recorded_once_per_state(self):
        health = HealthController()
        health.record_disk_budget_hit()
        health.record_disk_budget_hit()  # same state: no second transition
        seen = health.transitions
        assert [t.state for t in seen] == [DEGRADED]
        assert "disk budget" in seen[0].reason
        assert seen[0].describe() == f"-> {DEGRADED}: {seen[0].reason}"

    def test_signals_and_transitions_are_metered(self, monkeypatch):
        _critical_at(monkeypatch, 2)
        monkeypatch.setattr(health_module, "MEMORY_DEGRADED", 1)
        with collecting() as registry:
            health = HealthController()
            health.record_pool_death()
            health.record_pool_death()
            health.record_memory_failure()
            health.record_disk_budget_hit()
            health.record_corrupt_trace()
        counters = registry.snapshot().counters
        assert counters["health.pool_deaths"] == 2
        assert counters["health.memory_failures"] == 1
        assert counters["health.disk_budget_hits"] == 1
        assert counters["health.corrupt_traces"] == 1
        assert counters["health.transitions"] == 2
        assert counters[f"health.transitions.{DEGRADED}"] == 1
        assert counters[f"health.transitions.{CRITICAL}"] == 1
        assert registry.snapshot().gauges["health.state"] == STATE_RANK[CRITICAL]

    def test_unmetered_controller_works_without_a_registry(self):
        health = HealthController()
        health.record_pool_death()  # must not touch a registry
        assert health.state == DEGRADED
