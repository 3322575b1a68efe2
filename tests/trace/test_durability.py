"""TraceStore durability: quarantine, recovery, budgets, ephemeral mode.

The acceptance bar (ISSUE 7): corrupting any single store entry must
never crash a campaign — ``with_recovery`` quarantines and re-records at
the cost of one execution — and a disk budget must bound the cache with
oldest-first eviction while never evicting the entry being read.
"""

import pytest

from repro.core import detect_races
from repro.obs import HealthController, collecting, health as health_module
from repro.obs.health import CRITICAL, DEGRADED, HEALTHY
from repro.trace import (
    QUARANTINE_DIR,
    TraceCorruptError,
    TraceStore,
    analyze_trace,
    detect_key,
    verify_trace,
)
from repro.workloads import figure1

KEY = detect_key("figure1", 0, max_steps=10_000)


def _corrupt(path):
    """Drop the footer: the classic torn-write shape."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))


def _fill(store, n):
    """Record n distinct entries; returns their paths in seed order."""
    paths = []
    for seed in range(n):
        key = detect_key("figure1", seed, max_steps=10_000)
        paths.append(store.ensure(key, figure1.build()))
    return paths


class TestRecovery:
    def test_corrupt_entry_quarantined_and_rerecorded(self, tmp_path):
        store = TraceStore(tmp_path)
        original = store.ensure(KEY, figure1.build())
        clean = analyze_trace(original, ["hybrid"])["hybrid"]
        _corrupt(original)

        healed = store.with_recovery(
            KEY, figure1.build(), lambda p: analyze_trace(p, ["hybrid"])["hybrid"]
        )
        assert healed.pairs == clean.pairs
        assert store.stats.corrupt == 1 and store.stats.recovered == 1
        # Evidence preserved: the damaged file and a .reason sidecar.
        q = tmp_path / QUARANTINE_DIR
        assert (q / original.name).exists()
        reason = (q / f"{original.name}.reason").read_text()
        assert "footer missing" in reason
        # The cache is healthy again: the fresh entry passes verification.
        verify_trace(store.get(KEY))

    def test_recovery_counts_in_metrics(self, tmp_path):
        store = TraceStore(tmp_path)
        _corrupt(store.ensure(KEY, figure1.build()))
        with collecting() as registry:
            store.with_recovery(KEY, figure1.build(), verify_trace)
        counters = registry.snapshot().counters
        assert counters["trace.store_corrupt"] == 1
        assert counters["trace.store_recovered"] == 1

    def test_second_corruption_propagates(self, tmp_path):
        # A consumer that keeps failing is a real bug or a dying disk,
        # not bit rot; recovery must not loop.
        store = TraceStore(tmp_path)
        calls = []

        def always_corrupt(path):
            calls.append(path)
            raise TraceCorruptError(str(path), 0, "synthetic")

        with pytest.raises(TraceCorruptError):
            store.with_recovery(KEY, figure1.build(), always_corrupt)
        assert len(calls) == 2  # original read + exactly one retry

    def test_vanished_entry_rerecorded_once_without_quarantine(self, tmp_path):
        # Another process's quota may evict an entry between its publish
        # and this read; that is not damage.
        store = TraceStore(tmp_path)
        calls = []

        def evicted_first(path):
            calls.append(path)
            if len(calls) == 1:
                path.unlink()
            return verify_trace(path)

        assert store.with_recovery(KEY, figure1.build(), evicted_first).events > 0
        assert len(calls) == 2
        assert store.stats.executions == 2
        assert store.stats.corrupt == store.stats.recovered == 0
        assert not (tmp_path / QUARANTINE_DIR).exists()

        def always_evicted(path):
            path.unlink()
            return verify_trace(path)

        with pytest.raises(FileNotFoundError):
            store.with_recovery(KEY, figure1.build(), always_evicted)

    def test_quarantine_signals_health(self, tmp_path, monkeypatch):
        monkeypatch.setattr(health_module, "CORRUPT_DEGRADED", 2)
        health = HealthController()
        store = TraceStore(tmp_path, health=health)
        for _ in range(2):
            _corrupt(store.ensure(KEY, figure1.build()))
            store.with_recovery(KEY, figure1.build(), verify_trace)
        assert health.corrupt_traces == 2
        assert health.state == DEGRADED


class TestBudget:
    def test_max_entries_evicts_oldest(self, tmp_path):
        import os

        store = TraceStore(tmp_path, max_entries=2)
        paths = _fill(store, 4)
        # Deterministic LRU order regardless of filesystem timestamp
        # granularity: age the files explicitly.
        for i, path in enumerate(paths):
            if path.exists():
                os.utime(path, (i, i))
        store.gc()
        survivors = store.entries()
        assert len(survivors) == 2
        assert paths[-1] in survivors  # newest lives
        assert store.stats.evictions >= 2

    def test_max_bytes_never_evicts_the_entry_being_published(self, tmp_path):
        # A budget smaller than one trace still returns a readable path.
        store = TraceStore(tmp_path, max_bytes=1)
        path = store.ensure(KEY, figure1.build())
        assert path.exists()
        verify_trace(path)

    def test_gc_enforces_a_late_budget(self, tmp_path):
        _fill(TraceStore(tmp_path), 3)
        store = TraceStore(tmp_path, max_entries=1)
        evicted, freed = store.gc()
        assert evicted == 2 and freed > 0
        assert len(store.entries()) == 1

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            TraceStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError, match="max_entries"):
            TraceStore(tmp_path, max_entries=-1)

    def test_repeated_budget_hits_degrade_health(self, tmp_path, monkeypatch):
        monkeypatch.setattr(health_module, "DISK_DISABLE_THRESHOLD", 2)
        health = HealthController()
        store = TraceStore(tmp_path, max_entries=1, health=health)
        _fill(store, 3)  # two eviction passes -> two budget hits
        assert health.disk_budget_hits >= 2
        assert health.state == DEGRADED
        assert not health.trace_recording_enabled


@pytest.mark.parametrize(
    "options",
    [{"jobs": 1}, {"jobs": 1, "deadline": 30}, {"jobs": 2}],
    ids=["inline", "inline-deadline", "pool"],
)
def test_store_quota_bounds_the_store_at_every_jobs(tmp_path, options):
    seeds = dict(seeds=range(4), max_steps=10_000)
    unbounded = detect_races(figure1.build(), **seeds)
    bounded = detect_races(
        figure1.build(), trace_dir=tmp_path, store_quota=1, **seeds, **options
    )
    assert len(TraceStore(tmp_path).entries()) <= 1
    assert bounded.pairs == unbounded.pairs


def test_repeated_quota_hits_switch_detect_to_ephemeral(tmp_path):
    with collecting() as telemetry:
        detect_races(
            figure1.build(),
            seeds=range(6),
            max_steps=10_000,
            trace_dir=tmp_path,
            store_quota=1,
        )
    assert telemetry.counter("trace.store_ephemeral") > 0


class TestEphemeralMode:
    def _pressured_health(self):
        health = HealthController()
        for _ in range(health_module.DISK_DISABLE_THRESHOLD):
            health.record_disk_budget_hit()
        assert not health.trace_recording_enabled
        return health

    def test_recording_disabled_yields_ephemeral_entries(self, tmp_path):
        store = TraceStore(tmp_path, health=self._pressured_health())
        path = store.ensure(KEY, figure1.build())
        assert ".ephemeral." in path.name
        verify_trace(path)  # still a complete, analyzable trace
        assert store.entries() == []  # but never a cache entry
        assert store.stats.ephemeral == 1
        store.discard(path)
        assert not path.exists()

    def test_discard_never_touches_published_entries(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.ensure(KEY, figure1.build())
        store.discard(path)
        assert path.exists()

    def test_with_recovery_analyzes_and_discards_under_pressure(self, tmp_path):
        store = TraceStore(tmp_path, health=self._pressured_health())
        footer = store.with_recovery(KEY, figure1.build(), verify_trace)
        assert footer.events > 0
        assert store.entries() == []
        assert not any(tmp_path.glob("*.ephemeral*"))

    def test_critical_health_disables_recording(self, tmp_path):
        health = HealthController()
        for _ in range(health_module.POOL_DEATH_CRITICAL):
            health.record_pool_death()
        assert health.state == CRITICAL
        store = TraceStore(tmp_path, health=health)
        assert ".ephemeral." in store.ensure(KEY, figure1.build()).name


class TestMaintenance:
    def test_verify_reports_damaged_entries(self, tmp_path):
        store = TraceStore(tmp_path)
        paths = _fill(store, 3)
        _corrupt(paths[1])
        bad = store.verify()
        assert [p for p, _ in bad] == [paths[1]]
        assert paths[1].exists()  # report-only by default

    def test_verify_quarantine_moves_them(self, tmp_path):
        store = TraceStore(tmp_path)
        paths = _fill(store, 3)
        _corrupt(paths[1])
        bad = store.verify(quarantine=True)
        assert len(bad) == 1
        assert not paths[1].exists()
        assert (tmp_path / QUARANTINE_DIR / paths[1].name).exists()
        assert store.verify() == []

    def test_fsync_store_smoke(self, tmp_path):
        path = TraceStore(tmp_path, fsync=True).ensure(KEY, figure1.build())
        verify_trace(path)

    def test_health_state_is_healthy_by_default(self):
        assert HealthController().state == HEALTHY
