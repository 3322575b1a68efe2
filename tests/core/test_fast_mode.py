"""Fast mode: verdict/schedule equivalence and allocation-free emission.

Fast mode (``fast_mode=True`` on the Phase-2 drivers) suppresses MemEvent
emission for statements outside the racing set.  Two properties are
load-bearing:

* **Verdict neutrality** — schedules, hits, crashes and deadlocks are
  byte-identical to full mode for the same seed: the filter sits strictly
  on the observer side of the engine, and the postponing loop reads ops
  and statements directly, never through events.
* **Allocation-free emission** — with no observer attached (the Phase-2
  worker configuration) the engine constructs *zero* event objects.  The
  steps/sec figures in BENCH_engine.json rest on this, so it gets a
  regression test rather than a benchmark-only check.
"""

from collections import Counter

import pytest

from repro.core import RaceFuzzer, detect_races
from repro.obs import collecting
from repro.runtime import Lock, SharedVar, join_all, ops, spawn_all
from repro.runtime import interpreter as interp_mod
from repro.runtime.events import MemEvent
from repro.runtime.interpreter import Execution
from repro.runtime.observer import ExecutionObserver
from repro.runtime.program import Program
from repro.runtime.statement import Statement, StatementPair
from repro.core.schedulers import RandomScheduler
from repro.workloads import figure1, figure2

SEEDS = range(8)

WORKLOADS = [
    pytest.param(figure1.build, id="figure1"),
    pytest.param(lambda: figure2.build(padding=3), id="figure2"),
]


class RecordingObserver(ExecutionObserver):
    """Collects every delivered event; optionally declines MemEvents."""

    def __init__(self, wants_mem: bool = True):
        self.wants_mem_events = wants_mem
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def _fingerprint(outcome):
    """Everything a verdict is built from, plus the schedule length."""
    result = outcome.result
    return (
        result.steps,
        result.deadlock,
        tuple(result.deadlocked_tids),
        result.truncated,
        tuple((c.tid, c.step, c.error.type) for c in result.crashes),
        tuple(outcome.hits),
        frozenset(outcome.pairs_created),
        outcome.postpones,
        outcome.coin_flips,
        outcome.forced_releases,
        outcome.watchdog_releases,
    )


class TestFastModeEquivalence:
    @pytest.mark.parametrize("build", WORKLOADS)
    def test_per_seed_outcomes_identical(self, build):
        """Fast mode must not change a single trial outcome on any seed."""
        pairs = detect_races(build(), seeds=(0, 1)).pairs
        assert pairs, "workload must yield at least one racing pair"
        for pair in pairs:
            full = RaceFuzzer(pair, max_steps=50_000)
            fast = RaceFuzzer(pair, max_steps=50_000, fast_mode=True)
            for seed in SEEDS:
                assert _fingerprint(full.run(build(), seed=seed)) == _fingerprint(
                    fast.run(build(), seed=seed)
                ), f"fast mode diverged for {pair} at seed {seed}"


def _filter_program():
    """Racing pair plus plenty of off-pair memory traffic to filter."""

    def make():
        x = SharedVar("x", 0)
        y = SharedVar("y", 0)
        lock = Lock("L")

        def writer():
            for _ in range(5):
                yield y.write(1, label="noise-w")
            yield lock.acquire(label="acq")
            yield x.write(1, label="racy-w")
            yield lock.release(label="rel")
            yield y.read(label="noise-r")

        def reader():
            for _ in range(5):
                yield y.write(2, label="noise-w2")
            yield x.read(label="racy-r")

        def main():
            threads = yield from spawn_all([writer, reader], prefix="t")
            yield from join_all(threads)

        return main()

    return Program(make, name="fastmode-filter")


_FILTER_PAIR = StatementPair(
    Statement(label="racy-w"), Statement(label="racy-r")
)


def _normalize(event):
    """Cross-run comparison key: Location/LockId uids are per-process, so
    compare events by their stable parts (kind, step, tid, stmt, names)."""
    key = [type(event).__name__, event.step, event.tid]
    for attr in ("stmt", "access", "child", "name", "msg_id", "blocked"):
        if hasattr(event, attr):
            key.append(getattr(event, attr))
    for attr in ("location", "lock"):
        value = getattr(event, attr, None)
        if value is not None:
            key.append(getattr(value, "name", str(value)))
    return tuple(key)


class TestFastModeFiltering:
    def _run(self, *, fast_mode, wants_mem=True, seed=3):
        observer = RecordingObserver(wants_mem=wants_mem)
        fuzzer = RaceFuzzer(
            _FILTER_PAIR,
            observers=[observer],
            fast_mode=fast_mode,
            max_steps=50_000,
        )
        outcome = fuzzer.run(_filter_program(), seed=seed)
        return observer.events, outcome

    def test_fast_mode_mem_events_only_from_race_set(self):
        events, _ = self._run(fast_mode=True)
        mem = [e for e in events if isinstance(e, MemEvent)]
        assert mem, "the racing statements themselves must still emit"
        assert all(e.stmt in _FILTER_PAIR for e in mem)

    def test_full_mode_is_a_superset_and_sync_events_unchanged(self):
        full_events, _ = self._run(fast_mode=False)
        fast_events, _ = self._run(fast_mode=True)
        full_mem = [_normalize(e) for e in full_events if isinstance(e, MemEvent)]
        fast_mem = [_normalize(e) for e in fast_events if isinstance(e, MemEvent)]
        assert len(fast_mem) < len(full_mem)
        assert set(fast_mem) <= set(full_mem)
        # Everything that is not a MemEvent is identical, in order.
        strip = lambda events: [
            _normalize(e) for e in events if not isinstance(e, MemEvent)
        ]
        assert strip(fast_events) == strip(full_events)

    def test_filter_irrelevant_when_no_observer_wants_mem(self):
        full_events, _ = self._run(fast_mode=False, wants_mem=False)
        fast_events, _ = self._run(fast_mode=True, wants_mem=False)
        assert not any(isinstance(e, MemEvent) for e in full_events)
        assert list(map(_normalize, full_events)) == list(
            map(_normalize, fast_events)
        )


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

    return Program(make, name="fastmode-counter")


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

    def test_fast_mode_run_allocates_no_off_pair_mem_events(self, monkeypatch):
        """With an observer attached, fast mode builds MemEvents only for
        race-set statements — the filter runs *before* construction."""
        constructions: Counter = Counter()
        real_mem = interp_mod.MemEvent

        def counting(*args, **kwargs):
            constructions["MemEvent"] += 1
            return real_mem(*args, **kwargs)

        monkeypatch.setattr(interp_mod, "MemEvent", counting)
        observer = RecordingObserver()
        fuzzer = RaceFuzzer(
            _FILTER_PAIR, observers=[observer], fast_mode=True, max_steps=50_000
        )
        fuzzer.run(_filter_program(), seed=3)
        delivered = sum(1 for e in observer.events if isinstance(e, real_mem))
        assert delivered > 0
        assert constructions["MemEvent"] == delivered

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
