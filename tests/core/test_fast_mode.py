"""Allocation-free emission: no observer, no event objects.

Phase 2 runs RaceFuzzer with no observer (Sen08 Section 5: it needs only
sync ops plus the two racing statements, and its postponing loop reads ops
and statements directly, never through events).  So the engine must
construct *zero* event objects when no observer is attached; this gets a
regression test rather than a benchmark-only check.
"""

from collections import Counter

from repro.runtime import SharedCells, SharedVar, join_all, spawn_all
from repro.runtime import interpreter as interp_mod
from repro.runtime.interpreter import Execution
from repro.runtime.program import Program
from repro.core import RaceFuzzer, detect_races
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


def _probe_program(iterations=30):
    """Two workers race on ``x``; every iteration also crosses two
    memory sites that race with nothing (a shared read-only limit, and a
    cell of the worker's own).  A worker ends on its ``x`` write, whose
    statement its termination records."""

    def make():
        x = SharedVar("x", 0)
        limit = SharedVar("limit", iterations)
        own = SharedCells("own", 0)

        def worker(wid):
            for _ in range(iterations):
                yield limit.read()
                yield own.write(wid, 1)
                value = yield x.read()
                yield x.write(value + 1)

        def main():
            threads = yield from spawn_all(
                [lambda: worker(0), lambda: worker(1)], prefix="w"
            )
            yield from join_all(threads)

        return main()

    return Program(make, name="probe")


class TestTargetProbe:
    def test_bursts_build_no_statement_at_non_target_sites(self, monkeypatch):
        """RaceFuzzer's line-6 probe answers from the raw yield site: with
        no observer, no trial interns a statement for a site of the
        workers' bursts outside the racing pair."""
        program = _probe_program()
        pairs = detect_races(program, seeds=(0, 1)).pairs
        assert pairs and all("worker" in p.first.func for p in pairs)
        pair = pairs[0]
        built: list = []
        real = interp_mod.statement_at

        def recording(code, line):
            stmt = real(code, line)
            built.append(stmt)
            return stmt

        monkeypatch.setattr(interp_mod, "statement_at", recording)
        outcomes = [RaceFuzzer(pair).run(program, seed=seed) for seed in range(5)]
        assert sum(o.result.steps for o in outcomes) > 500
        assert any(o.created for o in outcomes)
        in_bursts = {stmt for stmt in built if "worker" in stmt.func}
        assert in_bursts <= {pair.first, pair.second}, (
            f"statements built at non-target sites: {in_bursts - {pair.first, pair.second}}"
        )
