"""The deterministic fault-injection layer behind the supervisor tests."""

import pickle

import pytest

from repro.core.faults import (
    CRASH,
    FAULT_KINDS,
    HANG,
    MALFORMED,
    MALFORMED_SENTINEL,
    POOL_KILL,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    apply_fault,
    parse_fault_plan,
)


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", index=0)

    @pytest.mark.parametrize("phase", ["record", "bogus"])
    def test_rejects_a_phase_that_is_no_entrypoint(self, phase):
        from repro.core.faults import PHASES
        from repro.core.supervisor import _worker_fn

        with pytest.raises(ValueError, match="unknown fault phase"):
            FaultSpec(kind=CRASH, index=0, phase=phase)
        assert all(callable(_worker_fn(name)) for name in PHASES)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="index"):
            FaultSpec(kind=CRASH, index=-1)

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError, match="attempts"):
            FaultSpec(kind=CRASH, index=0, attempts=0)

    def test_fires_on_first_attempts_only(self):
        transient = FaultSpec(kind=CRASH, index=0, attempts=1)
        assert transient.fires(0)
        assert not transient.fires(1)
        poisoned = FaultSpec(kind=CRASH, index=0, attempts=99)
        assert all(poisoned.fires(k) for k in range(10))

    def test_specs_are_picklable(self):
        # Specs travel inside TaskEnvelopes to worker processes.
        for kind in FAULT_KINDS:
            spec = FaultSpec(kind=kind, index=3, attempts=2, delay=0.5)
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestFaultPlan:
    def test_at_resolves_by_phase_and_index(self):
        plan = FaultPlan(
            [
                FaultSpec(kind=CRASH, index=2, phase="fuzz"),
                FaultSpec(kind=HANG, index=2, phase="detect"),
            ]
        )
        assert plan.at("fuzz", 2).kind == CRASH
        assert plan.at("detect", 2).kind == HANG
        assert plan.at("fuzz", 3) is None

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault"):
            FaultPlan(
                [
                    FaultSpec(kind=CRASH, index=1),
                    FaultSpec(kind=HANG, index=1),
                ]
            )

    def test_plans_are_value_objects(self):
        specs = [FaultSpec(kind=CRASH, index=0), FaultSpec(kind=HANG, index=4)]
        assert FaultPlan(specs) == FaultPlan(list(reversed(specs)))
        assert list(FaultPlan(specs)) == sorted(
            specs, key=lambda s: (s.phase, s.index)
        )


class TestApplyFault:
    def test_crash_raises_injected_crash(self):
        with pytest.raises(InjectedCrash):
            apply_fault(FaultSpec(kind=CRASH, index=0), in_worker=False)

    def test_malformed_is_a_pre_task_noop(self):
        apply_fault(FaultSpec(kind=MALFORMED, index=0), in_worker=False)

    def test_pool_kill_degrades_to_crash_inline(self):
        # In-worker it would os._exit; inline (serial path / fallback) it
        # must raise instead of taking the campaign down.
        with pytest.raises(InjectedCrash, match="inline"):
            apply_fault(FaultSpec(kind=POOL_KILL, index=0), in_worker=False)

    def test_hang_sleeps_for_delay(self):
        import time

        start = time.perf_counter()
        apply_fault(FaultSpec(kind=HANG, index=0, delay=0.05), in_worker=False)
        assert time.perf_counter() - start >= 0.05


class TestParseFaultPlan:
    def test_parses_full_and_short_forms(self):
        plan = parse_fault_plan("fuzz:0:crash,fuzz:7:hang:2:5.0,detect:1:pool_kill")
        assert plan.at("fuzz", 0) == FaultSpec(kind=CRASH, index=0)
        assert plan.at("fuzz", 7) == FaultSpec(
            kind=HANG, index=7, attempts=2, delay=5.0
        )
        assert plan.at("detect", 1).kind == POOL_KILL

    def test_rejects_malformed_specs(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            parse_fault_plan("fuzz:0")
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_plan("fuzz:0:nope")

    def test_blank_chunks_ignored(self):
        assert len(parse_fault_plan("fuzz:0:crash, ,")) == 1

    def test_sentinel_is_not_a_legitimate_result(self):
        # The supervisor's validate hooks reject it by type; keep it a str.
        assert isinstance(MALFORMED_SENTINEL, str)


class TestRobustnessFaultKinds:
    """The ISSUE-7 kinds: memory_hog, disk_full, corrupt_trace."""

    def test_new_kinds_are_registered(self):
        from repro.core.faults import CORRUPT_TRACE, DISK_FULL, MEMORY_HOG

        assert {MEMORY_HOG, DISK_FULL, CORRUPT_TRACE} <= set(FAULT_KINDS)

    def test_spec_validates_mb(self):
        from repro.core.faults import MEMORY_HOG

        with pytest.raises(ValueError, match="mb"):
            FaultSpec(kind=MEMORY_HOG, index=0, mb=0)

    def test_disk_full_raises_enospc(self):
        import errno

        from repro.core.faults import DISK_FULL, InjectedDiskFull

        with pytest.raises(InjectedDiskFull) as info:
            apply_fault(FaultSpec(kind=DISK_FULL, index=3), in_worker=False)
        assert info.value.errno == errno.ENOSPC
        assert isinstance(info.value, OSError)

    def test_memory_hog_allocates_and_releases(self):
        from repro.core.faults import MEMORY_HOG

        # Small hog: the point here is it runs and frees, not the size.
        apply_fault(FaultSpec(kind=MEMORY_HOG, index=0, mb=1), in_worker=False)

    def test_corrupt_trace_is_a_pre_task_noop(self):
        from repro.core.faults import CORRUPT_TRACE

        apply_fault(FaultSpec(kind=CORRUPT_TRACE, index=0), in_worker=False)

    def test_corrupt_trace_damages_the_trace_a_detect_task_reads(self, tmp_path):
        from repro.core import DetectTask
        from repro.core.faults import CORRUPT_TRACE
        from repro.trace import TraceCorruptError, TraceStore, verify_trace
        from repro.workloads import figure1

        task = DetectTask(workload="figure1", max_steps=10_000, trace_dir=str(tmp_path))
        assert task.stored_trace() is None
        path = TraceStore(tmp_path).ensure(task.trace_key(), figure1.build())
        assert task.stored_trace() == str(path)
        apply_fault(FaultSpec(kind=CORRUPT_TRACE, index=0, phase="detect"), task=task)
        with pytest.raises(TraceCorruptError):
            verify_trace(path)

    def test_parse_fifth_arg_is_mb_for_memory_hog(self):
        from repro.core.faults import DISK_FULL, MEMORY_HOG

        plan = parse_fault_plan(
            "fuzz:0:memory_hog:1:128,fuzz:1:hang:1:0.25,detect:2:disk_full"
        )
        assert plan.at("fuzz", 0) == FaultSpec(
            kind=MEMORY_HOG, index=0, attempts=1, mb=128.0
        )
        assert plan.at("fuzz", 1).delay == 0.25
        assert plan.at("detect", 2).kind == DISK_FULL


class TestCorruptTraceFile:
    def test_truncates_the_footer(self, tmp_path):
        from repro.core.faults import corrupt_trace_file

        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"kind":"header"}\n{"e":1}\n{"kind":"footer"}\n')
        assert corrupt_trace_file(str(path))
        assert path.read_bytes() == b'{"kind":"header"}\n{"e":1}\n'

    def test_unreadable_path_degrades_to_noop(self, tmp_path):
        from repro.core.faults import corrupt_trace_file

        assert not corrupt_trace_file(str(tmp_path / "absent.jsonl"))

    def test_single_line_file_left_alone(self, tmp_path):
        from repro.core.faults import corrupt_trace_file

        path = tmp_path / "one.jsonl"
        path.write_bytes(b'{"kind":"header"}\n')
        assert not corrupt_trace_file(str(path))
        assert path.read_bytes() == b'{"kind":"header"}\n'

    def test_damages_a_real_trace_detectably(self, tmp_path):
        from repro.core.faults import corrupt_trace_file
        from repro.trace import TraceCorruptError, TraceStore, detect_key, verify_trace
        from repro.workloads import figure1

        path = TraceStore(tmp_path).ensure(
            detect_key("figure1", 0, max_steps=10_000), figure1.build()
        )
        assert corrupt_trace_file(str(path))
        with pytest.raises(TraceCorruptError):
            verify_trace(path)
