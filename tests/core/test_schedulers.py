"""Passive schedulers: randomness ownership, preemption modes, quantum."""

import pytest

from repro.core import (
    DefaultScheduler,
    RandomScheduler,
    RaposScheduler,
    baseline_scheduler,
)
from repro.runtime import (
    EventTrace,
    Execution,
    MemEvent,
    Program,
    SharedVar,
    join_all,
    ops,
    spawn_all,
)


def _two_writer_program():
    x = SharedVar("x", 0)

    def writer(k):
        for _ in range(5):
            yield x.write(k)

    def main():
        handles = yield from spawn_all([lambda: writer(1), lambda: writer(2)])
        yield from join_all(handles)

    return main()


def _mem_tid_sequence(scheduler_factory, seed):
    trace = EventTrace()
    Execution(Program(_two_writer_program), seed=seed, observers=[trace]).run(
        scheduler_factory()
    )
    return [event.tid for event in trace.of_type(MemEvent)]


class TestRandomScheduler:
    def test_rejects_unknown_preemption(self):
        with pytest.raises(ValueError):
            RandomScheduler(preemption="sometimes")

    def test_every_mode_interleaves_on_some_seed(self):
        sequences = {tuple(_mem_tid_sequence(RandomScheduler, s)) for s in range(10)}
        assert len(sequences) > 1
        interleaved = any(
            any(a != b for a, b in zip(seq, seq[1:]))
            for seq in sequences
        )
        assert interleaved

    def test_sync_mode_runs_bursts_between_sync_ops(self):
        """With sync-only preemption a thread's plain memory ops form
        uninterrupted bursts."""

        def factory():
            return _two_writer_program()

        for seed in range(5):
            trace = EventTrace()
            Execution(Program(factory), seed=seed, observers=[trace]).run(
                RandomScheduler(preemption="sync")
            )
            tids = [event.tid for event in trace.of_type(MemEvent)]
            # Each writer's five writes are contiguous: exactly one switch.
            switches = sum(1 for a, b in zip(tids, tids[1:]) if a != b)
            assert switches == 1, f"seed {seed}: {tids}"

    def test_seed_determinism_through_execution_rng(self):
        assert _mem_tid_sequence(RandomScheduler, 7) == _mem_tid_sequence(
            RandomScheduler, 7
        )


class TestDefaultScheduler:
    def test_deterministic(self):
        assert _mem_tid_sequence(DefaultScheduler, 0) == _mem_tid_sequence(
            DefaultScheduler, 1
        )

    def test_run_to_block_serializes_writers(self):
        tids = _mem_tid_sequence(DefaultScheduler, 0)
        # FIFO run-to-completion: all of thread 1, then all of thread 2.
        assert tids == [1] * 5 + [2] * 5

    def test_quantum_must_be_positive(self):
        with pytest.raises(ValueError):
            DefaultScheduler(quantum=0)

    def test_quantum_preempts_spinners(self):
        """A busy-polling thread must not starve the writer it waits for."""

        def factory():
            flag = SharedVar("flag", 0)

            def spinner():
                while (yield flag.read()) == 0:
                    yield ops.yield_point()

            def setter():
                yield flag.write(1)

            def main():
                a = yield ops.spawn(spinner)
                b = yield ops.spawn(setter)
                yield ops.join(a)
                yield ops.join(b)

            return main()

        result = Execution(Program(factory), max_steps=10_000).run(
            DefaultScheduler(quantum=10)
        )
        assert not result.truncated
        assert not result.deadlock


class TestRegistry:
    def test_scheduler_registry(self):
        assert isinstance(baseline_scheduler("default"), DefaultScheduler)
        assert baseline_scheduler("random").preemption == "every"
        assert baseline_scheduler("random-sync").preemption == "sync"
        assert isinstance(baseline_scheduler("rapos"), RaposScheduler)
        # A fresh instance per run: schedulers carry per-execution state.
        assert baseline_scheduler("default") is not baseline_scheduler("default")
        with pytest.raises(ValueError, match="unknown scheduler"):
            baseline_scheduler("uniform")
