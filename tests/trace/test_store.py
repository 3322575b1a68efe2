"""TraceStore cache behaviour: keying, hit/miss, atomic publish."""

import dataclasses
import os

import pytest

from repro.core import ParallelCampaign
from repro.obs import collecting
from repro.runtime import statement
from repro.runtime.statement import StatementPair
from repro.trace import (
    PHASE1_SCHEDULER,
    TraceKey,
    TraceReader,
    TraceStore,
    detect_key,
)
from repro.workloads import figure1, get


KEY = detect_key("figure1", 0, max_steps=10_000)


class TestKeying:
    def test_key_covers_execution_parameters_only(self):
        base = TraceKey(workload="w", seed=1, max_steps=10)
        assert base.digest() == TraceKey(workload="w", seed=1, max_steps=10).digest()
        for changed in (
            TraceKey(workload="w2", seed=1, max_steps=10),
            TraceKey(workload="w", seed=2, max_steps=10),
            TraceKey(workload="w", seed=1, max_steps=11),
            TraceKey(workload="w", seed=1, max_steps=10, schema=999),
        ):
            assert changed.digest() != base.digest()

    def test_detect_key_uses_phase1_scheduler(self, tmp_path):
        """The scheduler is provenance in the header, not part of the key."""
        path = TraceStore(tmp_path).ensure(KEY, figure1.build())
        with TraceReader(path) as reader:
            assert reader.header.scheduler == PHASE1_SCHEDULER
            assert reader.header.program == "figure1"
            assert reader.header.seed == 0


class TestAnotherCheckout:
    def test_store_serves_a_checkout_under_another_package_root(
        self, tmp_path, monkeypatch
    ):
        # A stored trace names package files relative to the package, so a
        # checkout reading another's store sees its own statements, which
        # Phase 2 then matches against its live program.
        spec = get("vector")
        store = tmp_path / "store"
        with ParallelCampaign() as engine:
            recorded = engine.detect(
                "vector", seeds=[0], max_steps=spec.max_steps, trace_dir=store
            )
        real = statement._PACKAGE_DIR
        root = str(tmp_path / "checkout-b" / "repro") + os.sep
        monkeypatch.setattr(statement, "_PACKAGE_DIR", root)

        def move(stmt):
            return dataclasses.replace(stmt, file=root + stmt.file[len(real):])

        with collecting() as registry, ParallelCampaign() as engine:
            replayed = engine.detect(
                "vector", seeds=[0], max_steps=spec.max_steps, trace_dir=store
            )
        assert registry.counter("trace.store_hits") == 1
        assert recorded.pairs and all(p.first.file.startswith(real) for p in recorded.pairs)
        assert replayed.pairs == [
            StatementPair(move(p.first), move(p.second)) for p in recorded.pairs
        ]


class TestStore:
    def test_miss_records_then_hit_skips(self, tmp_path):
        store = TraceStore(tmp_path)
        first = store.ensure(KEY, figure1.build())
        assert store.stats.misses == 1 and store.stats.executions == 1
        second = store.ensure(KEY, figure1.build())
        assert second == first
        assert store.stats.hits == 1 and store.stats.executions == 1

    def test_cache_persists_across_store_instances(self, tmp_path):
        TraceStore(tmp_path).ensure(KEY, figure1.build())
        fresh = TraceStore(tmp_path)
        assert fresh.get(KEY) is not None
        fresh.ensure(KEY, figure1.build())
        assert fresh.stats.executions == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        store = TraceStore(tmp_path)
        store.ensure(KEY, figure1.build())
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert sorted(tmp_path.iterdir()) == [store.path_for(KEY)]

    def test_failed_recording_publishes_nothing(self, tmp_path):
        store = TraceStore(tmp_path)

        class Boom(RuntimeError):
            pass

        def bad_build():
            raise Boom("factory exploded")

        from repro.runtime import Program

        with pytest.raises(Boom):
            store.ensure(KEY, Program(bad_build, name="figure1"))
        assert store.get(KEY) is None
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]


class TestReproducibleBytes:
    """One key always records the same bytes: uids are numbered per
    execution."""

    def test_recorded_twice_in_one_process(self, tmp_path):
        first = TraceStore(tmp_path / "a").ensure(KEY, figure1.build())
        second = TraceStore(tmp_path / "b").ensure(KEY, figure1.build())
        assert first.read_bytes() == second.read_bytes()

    def test_inline_and_pool_worker_recordings(self, tmp_path):
        stores = {}
        for jobs in (1, 2):
            stores[jobs] = TraceStore(tmp_path / f"jobs{jobs}")
            with ParallelCampaign(jobs=jobs) as engine:
                engine.detect(
                    "figure1",
                    seeds=(0, 1),
                    max_steps=KEY.max_steps,
                    trace_dir=stores[jobs].root,
                )
        # Each store holds its two published entries and nothing else: a
        # worker leaves no temp file behind.
        inline, pooled = (sorted(stores[j].root.iterdir()) for j in (1, 2))
        assert [p.name for p in inline] == [p.name for p in pooled]
        assert len(inline) == 2
        for a, b in zip(inline, pooled):
            assert a.read_bytes() == b.read_bytes()
