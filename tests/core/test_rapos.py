"""RAPOS: correctness of the independent-batch sampler and the paper's
comparison claim (RaceFuzzer finds error-prone schedules RAPOS misses)."""

from repro.core import baseline_exceptions, baseline_scheduler, fuzz_pair
from repro.core.schedulers import _dependent
from repro.runtime import (
    Execution,
    Lock,
    Program,
    SharedVar,
    join_all,
    ops,
    spawn_all,
)
from repro.runtime.location import VarLoc, fresh_uid
from repro.workloads import figure1, figure2, get


def rapos_run(program, seed, **kwargs):
    return Execution(program, seed=seed, **kwargs).run(baseline_scheduler("rapos"))


class TestDependence:
    def test_conflicting_accesses_depend(self):
        loc = VarLoc(fresh_uid(), "x")
        assert _dependent(ops.write(loc, 1), ops.read(loc))
        assert _dependent(ops.write(loc, 1), ops.write(loc, 2))
        assert not _dependent(ops.read(loc), ops.read(loc))

    def test_distinct_locations_independent(self):
        a, b = VarLoc(fresh_uid(), "a"), VarLoc(fresh_uid(), "b")
        assert not _dependent(ops.write(a, 1), ops.write(b, 1))

    def test_same_lock_depends(self):
        lock = Lock("L")
        assert _dependent(ops.lock(lock.id), ops.lock(lock.id))
        assert _dependent(ops.lock(lock.id), ops.unlock(lock.id))
        other = Lock("M")
        assert not _dependent(ops.lock(lock.id), ops.lock(other.id))

    def test_structural_ops_depend_on_everything(self):
        loc = VarLoc(fresh_uid(), "x")

        def body():
            yield ops.yield_point()

        assert _dependent(ops.spawn(body), ops.read(loc))
        assert _dependent(ops.join(1), ops.read(loc))


class TestRaposExecution:
    def test_runs_programs_to_completion(self):
        def factory():
            x = SharedVar("x", 0)
            lock = Lock("L")

            def worker():
                for _ in range(3):
                    yield lock.acquire()
                    value = yield x.read()
                    yield x.write(value + 1)
                    yield lock.release()

            def main():
                handles = yield from spawn_all([worker, worker])
                yield from join_all(handles)
                total = yield x.read()
                yield ops.check(total == 6, f"lost {6 - total}")

            return main()

        for seed in range(10):
            result = rapos_run(Program(factory), seed)
            assert not result.crashes and not result.deadlock, f"seed {seed}"
            assert not result.truncated

    def test_replay_determinism(self):
        def signature(seed):
            result = rapos_run(figure1.build(), seed)
            return (result.steps, tuple(result.exception_types))

        for seed in range(6):
            assert signature(seed) == signature(seed)

    def test_figure1_terminates_all_seeds(self):
        for seed in range(20):
            result = rapos_run(figure1.build(), seed)
            assert not result.deadlock
            assert not result.truncated

    def test_spent_budget_truncates_mid_batch(self):
        """A budget spent inside a batch ends the run ``truncated``, like
        every other scheduler's; it does not raise
        ``ExecutionLimitExceeded`` from the middle of the batch."""
        result = rapos_run(get("moldyn").build(), 19, max_steps=97)
        assert result.truncated
        assert result.steps == 97


class TestPaperComparison:
    def test_racefuzzer_beats_rapos_on_figure2(self):
        """The Related-Work claim, measured: on the padded Figure 2 program
        RAPOS (passive, partial-order-uniform) rarely reaches ERROR while
        RaceFuzzer reaches it in about half the runs."""
        padding = 16
        runs = 60
        rapos = baseline_exceptions(
            figure2.build(padding), runs=runs, scheduler="rapos"
        )
        rapos_rate = rapos.get("AssertionViolation", 0) / runs
        directed = fuzz_pair(
            figure2.build(padding), figure2.RACING_PAIR, seeds=range(runs)
        )
        directed_rate = sum(1 for o in directed if o.crashes) / runs
        assert directed_rate >= 0.25
        assert rapos_rate < directed_rate
