"""TraceStore durability: quarantine, recovery, budgets.

The acceptance bar (ISSUE 7): corrupting any single store entry must
never crash a campaign — ``with_recovery`` quarantines and re-records at
the cost of one execution — and a disk budget must bound the cache with
oldest-first eviction while never evicting the entry being read.
"""

import pytest

from repro.core import detect_races
from repro.obs import collecting
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


def _fill(store, n, *, first=0):
    """Record n distinct entries from seed ``first``; returns their paths
    in seed order."""
    paths = []
    for seed in range(first, first + n):
        key = detect_key("figure1", seed, max_steps=10_000)
        paths.append(store.ensure(key, figure1.build()))
    return paths


def _budget(tmp_path, n, *, first=0):
    """A byte budget that holds exactly the n entries from seed ``first``:
    their total size, recorded in a scratch store."""
    probe = TraceStore(tmp_path / "probe")
    return sum(path.stat().st_size for path in _fill(probe, n, first=first))


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


class TestBudget:
    def test_max_bytes_evicts_oldest(self, tmp_path):
        import os

        store = TraceStore(tmp_path, max_bytes=_budget(tmp_path, 2, first=2))
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
        paths = _fill(TraceStore(tmp_path), 3)
        store = TraceStore(tmp_path, max_bytes=paths[-1].stat().st_size)
        evicted, freed = store.gc()
        assert evicted == 2 and freed > 0
        assert len(store.entries()) == 1

    def test_publishes_under_a_quota_list_the_directory_once(
        self, tmp_path, monkeypatch
    ):
        # The first publish lists the store; later ones keep the running
        # byte count over the oldest-first index.
        store = TraceStore(tmp_path, max_bytes=_budget(tmp_path, 2, first=3))
        listings = []
        entries = store.entries
        monkeypatch.setattr(
            store, "entries", lambda: listings.append(1) or entries()
        )
        paths = _fill(store, 5)
        assert len(listings) == 1
        assert entries() == sorted(paths[-2:])
        assert store.stats.evictions == 3

    def test_entry_removed_elsewhere_is_skipped(self, tmp_path):
        # Another process evicts an indexed entry: it leaves the count
        # without counting as this store's eviction.
        store = TraceStore(tmp_path, max_bytes=_budget(tmp_path, 2, first=2))
        paths = _fill(store, 2)
        paths[0].unlink()
        paths += _fill(store, 2, first=2)
        assert store.entries() == sorted(paths[-2:])
        assert store.stats.evictions == 1

    def test_rerecord_after_a_foreign_eviction_relists(self, tmp_path):
        # Another process publishes and evicts this store's entry between
        # its publish and its read: the re-recording lists the store
        # again, so it sees and evicts the other process's entry.
        store = TraceStore(tmp_path, max_bytes=1)
        other = TraceStore(tmp_path, max_bytes=1)
        other_key = detect_key("figure1", 1, max_steps=10_000)
        reads = []

        def read_after_foreign_publish(path):
            if not reads:
                other.ensure(other_key, figure1.build())
            reads.append(path)
            return verify_trace(path)

        store.with_recovery(KEY, figure1.build(), read_after_foreign_publish)
        assert len(reads) == 2
        assert store.entries() == [store.path_for(KEY)]

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            TraceStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError, match="max_bytes"):
            TraceStore(tmp_path, max_bytes=-1)


@pytest.mark.parametrize(
    "options",
    [{"jobs": 1}, {"jobs": 1, "deadline": 30}, {"jobs": 2}],
    ids=["inline", "inline-deadline", "pool"],
)
def test_store_quota_bounds_the_store_at_every_jobs(tmp_path, options):
    seeds = dict(seeds=range(8), max_steps=10_000)
    unbounded = detect_races(figure1.build(), **seeds)
    with collecting() as telemetry:
        bounded = detect_races(
            figure1.build(), trace_dir=tmp_path, store_quota=1, **seeds, **options
        )
    entries = TraceStore(tmp_path).entries()
    assert len(entries) <= 1
    assert sorted(tmp_path.iterdir()) == entries  # nothing unpublished
    assert bounded.pairs == unbounded.pairs
    if options["jobs"] == 1:
        # Inline, every recording after the first publishes and evicts
        # its predecessor.  Pooled tasks evict each other concurrently,
        # so their counters depend on timing (see obs/timeline.py).
        executions = telemetry.counter("trace.store_executions")
        assert executions == 8
        assert telemetry.counter("trace.store_evictions") == executions - 1


def test_store_quota_needs_a_trace_dir():
    with pytest.raises(ValueError, match="trace_dir"):
        detect_races(figure1.build(), seeds=(0,), store_quota=1)


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
