"""TraceStore cache behaviour: keying, hit/miss, atomic publish."""

import pytest

from repro.core import ParallelCampaign
from repro.trace import (
    PHASE1_SCHEDULER,
    TraceKey,
    TraceStore,
    detect_key,
    load_trace,
    scheduler_from_spec,
)
from repro.workloads import figure1


KEY = detect_key("figure1", 0, max_steps=10_000)


class TestKeying:
    def test_key_covers_execution_parameters_only(self):
        base = TraceKey(workload="w", seed=1, scheduler="random:every", max_steps=10)
        assert base.digest() == TraceKey(
            workload="w", seed=1, scheduler="random:every", max_steps=10
        ).digest()
        for changed in (
            TraceKey(workload="w2", seed=1, scheduler="random:every", max_steps=10),
            TraceKey(workload="w", seed=2, scheduler="random:every", max_steps=10),
            TraceKey(workload="w", seed=1, scheduler="random:sync", max_steps=10),
            TraceKey(workload="w", seed=1, scheduler="random:every", max_steps=11),
            TraceKey(
                workload="w",
                seed=1,
                scheduler="random:every",
                max_steps=10,
                schema=999,
            ),
        ):
            assert changed.digest() != base.digest()

    def test_detect_key_uses_phase1_scheduler(self):
        assert KEY.scheduler == PHASE1_SCHEDULER

    def test_scheduler_specs_resolve(self):
        for spec in ("random:every", "random:sync", "default"):
            assert scheduler_from_spec(spec) is not None
        with pytest.raises(ValueError):
            scheduler_from_spec("banana")


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
        assert store.entries() == [store.path_for(KEY)]

    def test_compressed_store(self, tmp_path):
        store = TraceStore(tmp_path, compress=True)
        path = store.ensure(KEY, figure1.build())
        assert path.name.endswith(".jsonl.gz")
        # A plain store finds the gz entry for the same key (and vice versa).
        assert TraceStore(tmp_path).get(KEY) == path
        # Same key -> the same events, uids included.
        plain = TraceStore(tmp_path / "plain").ensure(KEY, figure1.build())
        assert load_trace(path)[1] == load_trace(plain)[1]

    def test_open_returns_reader(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.open(KEY) is None
        store.ensure(KEY, figure1.build())
        reader = store.open(KEY)
        assert reader.header.program == "figure1"
        assert reader.header.seed == 0
        reader.close()

    def test_clear(self, tmp_path):
        store = TraceStore(tmp_path)
        store.ensure(KEY, figure1.build())
        store.ensure(detect_key("figure1", 1, max_steps=10_000), figure1.build())
        assert store.clear() == 2
        assert store.entries() == []

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
    execution and the gzip header carries no file name and no mtime."""

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    def test_recorded_twice_in_one_process(self, tmp_path, compress):
        first = TraceStore(tmp_path / "a", compress=compress).ensure(
            KEY, figure1.build()
        )
        second = TraceStore(tmp_path / "b", compress=compress).ensure(
            KEY, figure1.build()
        )
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    def test_inline_and_pool_worker_recordings(self, tmp_path, compress):
        stores = {}
        for jobs in (1, 2):
            stores[jobs] = TraceStore(tmp_path / f"jobs{jobs}", compress=compress)
            with ParallelCampaign(jobs=jobs) as engine:
                engine.detect(
                    "figure1",
                    seeds=(0, 1),
                    max_steps=KEY.max_steps,
                    trace_dir=stores[jobs].root,
                    compress=compress,
                )
        inline, pooled = stores[1].entries(), stores[2].entries()
        assert [p.name for p in inline] == [p.name for p in pooled]
        assert len(inline) == 2
        for a, b in zip(inline, pooled):
            assert a.read_bytes() == b.read_bytes()
