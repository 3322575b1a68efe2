"""TraceStore durability: quarantine and recovery.

Corrupting any single store entry must never crash a campaign:
``with_recovery`` quarantines and re-records it at the cost of one
execution.
"""

import pytest

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
        # Another process may quarantine an entry between its publish and
        # this read; that is not damage.
        store = TraceStore(tmp_path)
        calls = []

        def vanished_first(path):
            calls.append(path)
            if len(calls) == 1:
                path.unlink()
            return verify_trace(path)

        assert store.with_recovery(KEY, figure1.build(), vanished_first).events > 0
        assert len(calls) == 2
        assert store.stats.executions == 2
        assert store.stats.corrupt == store.stats.recovered == 0
        assert not (tmp_path / QUARANTINE_DIR).exists()

        def always_vanished(path):
            path.unlink()
            return verify_trace(path)

        with pytest.raises(FileNotFoundError):
            store.with_recovery(KEY, figure1.build(), always_vanished)


class TestMaintenance:
    def test_fsync_store_smoke(self, tmp_path):
        path = TraceStore(tmp_path, fsync=True).ensure(KEY, figure1.build())
        verify_trace(path)
