"""Allocation-free emission and per-kind interpreter metrics.

Phase 2 runs RaceFuzzer with no observer (Sen08 Section 5: it needs only
sync ops plus the two racing statements, and its postponing loop reads ops
and statements directly, never through events).  So the engine must
construct *zero* event objects when no observer is attached; this gets a
regression test rather than a benchmark-only check.  The hoisted int-array
op tallies must still fold into the same ``interp.ops.*`` counters.
"""

from collections import Counter

from repro.obs import collecting
from repro.runtime import SharedVar, join_all, ops, spawn_all
from repro.runtime import interpreter as interp_mod
from repro.runtime.interpreter import Execution
from repro.runtime.program import Program
from repro.core.schedulers import RandomScheduler


def _counter_program(iterations=40):
    """Crash-free two-thread counter: plenty of steps, no terminal error."""

    def make():
        x = SharedVar("x", 0)

        def worker():
            for _ in range(iterations):
                value = yield x.read()
                yield x.write(value + 1)

        def main():
            threads = yield from spawn_all([worker, worker], prefix="w")
            yield from join_all(threads)

        return main()

    return Program(make, name="emission-counter")


_EVENT_CLASSES = (
    "MemEvent",
    "AcquireEvent",
    "ReleaseEvent",
    "SndEvent",
    "RcvEvent",
    "ThreadStartEvent",
    "ThreadEndEvent",
    "ErrorEvent",
    "DeadlockEvent",
)


class TestAllocationFreeEmission:
    def test_no_event_objects_without_observer(self, monkeypatch):
        """The no-observer engine must construct zero event objects.

        Every event class the interpreter binds is wrapped in a counting
        stub; any constructor call is a fast-path regression (an event
        built just to be thrown away).
        """
        constructions: Counter = Counter()
        for name in _EVENT_CLASSES:
            real = getattr(interp_mod, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                constructions[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(interp_mod, name, counting)
        execution = Execution(_counter_program(), seed=0)
        result = execution.run(RandomScheduler(preemption="sync"))
        assert result.steps > 100  # the run actually did work
        assert not result.crashes and not result.deadlock
        assert constructions == Counter(), (
            f"event objects allocated with no observer: {dict(constructions)}"
        )

    def test_metrics_still_fold_per_kind_counts(self):
        """Hoisted int-array metrics must fold back into the same
        ``interp.ops.*`` counters, summing exactly to ``interp.steps``."""
        with collecting() as registry:
            execution = Execution(_counter_program(), seed=1)
            execution.run(RandomScheduler(preemption="every"))
        counters = registry.snapshot().counters
        op_total = sum(
            value
            for name, value in counters.items()
            if name.startswith("interp.ops.")
        )
        assert op_total == counters["interp.steps"] > 0
        assert counters["interp.ops.read"] > 0
        assert counters["interp.ops.write"] > 0


class TestWakeMetricsAttribution:
    def test_wake_counted_at_the_waking_step(self):
        """A sleeper's wake step must count as ``wake``, not as the kind of
        the op the thread resumes with (the pre-overhaul miscount)."""

        def make():
            x = SharedVar("x", 0)

            def sleeper():
                yield ops.sleep(3)
                yield x.write(1)

            def main():
                handle = yield ops.spawn(sleeper)
                yield ops.join(handle)

            return main()

        with collecting() as registry:
            execution = Execution(Program(make, name="sleeper"), seed=0)
            execution.run(RandomScheduler(preemption="every"))
        counters = registry.snapshot().counters
        assert counters.get("interp.ops.wake", 0) >= 1
        op_total = sum(
            value
            for name, value in counters.items()
            if name.startswith("interp.ops.")
        )
        assert op_total == counters["interp.steps"]
