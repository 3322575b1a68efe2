"""Trace auditing: the engine's own traces always validate; corrupted
traces are caught.  Plus the hypothesis sweep: random programs under every
scheduler produce valid traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DefaultScheduler, RaceFuzzer, RandomScheduler, baseline_scheduler
from repro.runtime import (
    EventTrace,
    Execution,
    Lock,
    MemEvent,
    Program,
    SharedVar,
    join_all,
    ops,
    spawn_all,
)
from repro.runtime.events import AcquireEvent, RcvEvent, ReleaseEvent
from repro.runtime.validate import TraceInvariantError, validate_trace
from repro.workloads import figure1, get

from tests.runtime.test_replay_determinism import _SCRIPTS, _make_program


def _trace_of(program, scheduler, seed=0):
    trace = EventTrace()
    Execution(program, seed=seed, observers=[trace], max_steps=200_000).run(
        scheduler
    )
    return trace.events


class TestValidTraces:
    def test_figure1_under_all_schedulers(self):
        for scheduler in (
            RandomScheduler("every"),
            RandomScheduler("sync"),
            DefaultScheduler(),
        ):
            audit = validate_trace(_trace_of(figure1.build(), scheduler))
            assert audit.mem_events > 0
            assert audit.messages_received <= audit.messages_sent

    def test_workload_traces_validate(self):
        for name in ("cache4j", "weblech", "linkedlist", "moldyn"):
            events = _trace_of(get(name).build(), RandomScheduler("every"))
            audit = validate_trace(events)
            assert audit.events > 50

    def test_racefuzzer_traces_validate(self):
        from repro.core.replay import replay_race

        for seed in range(5):
            run = replay_race(figure1.build(), figure1.REAL_PAIR, seed=seed)
            validate_trace(run.events)

    @given(scripts=st.lists(_SCRIPTS, min_size=1, max_size=3), seed=st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_random_programs_validate(self, scripts, seed):
        program = _make_program(scripts)
        validate_trace(_trace_of(program, RandomScheduler("every"), seed=seed))

    @given(seed=st.integers(0, 1_000))
    @settings(max_examples=15, deadline=None)
    def test_rapos_traces_validate(self, seed):
        rapos = baseline_scheduler("rapos")
        validate_trace(_trace_of(figure1.build(), rapos, seed=seed))


class TestCorruptedTraces:
    def _valid_events(self):
        return _trace_of(figure1.build(), RandomScheduler("every"))

    def test_double_acquire_caught(self):
        events = self._valid_events()
        acquire = next(e for e in events if isinstance(e, AcquireEvent))
        duplicated = []
        for event in events:
            duplicated.append(event)
            if event is acquire:
                duplicated.append(acquire)  # second acquire, same owner state
        with pytest.raises(TraceInvariantError):
            validate_trace(duplicated)

    def test_foreign_release_caught(self):
        events = self._valid_events()
        release = next(e for e in events if isinstance(e, ReleaseEvent))
        forged = [
            ReleaseEvent(step=e.step, tid=99, lock=e.lock, stmt=None)
            if e is release
            else e
            for e in events
        ]
        # thread 99 never started -> flagged even before lock ownership
        with pytest.raises(TraceInvariantError):
            validate_trace(forged)

    def test_time_travel_caught(self):
        events = self._valid_events()
        reversed_events = list(reversed(events))
        with pytest.raises(TraceInvariantError):
            validate_trace(reversed_events)

    def test_rcv_before_snd_caught(self):
        events = self._valid_events()
        rcv = next(e for e in events if isinstance(e, RcvEvent))
        hoisted = [RcvEvent(step=0, tid=rcv.tid, msg_id=99_999)] + events
        with pytest.raises(TraceInvariantError):
            validate_trace(hoisted)

    def test_wrong_lockset_caught(self):
        events = self._valid_events()
        mem = next(e for e in events if isinstance(e, MemEvent))
        lock = Lock("forged")
        forged = [
            MemEvent(
                step=e.step,
                tid=e.tid,
                stmt=e.stmt,
                location=e.location,
                access=e.access,
                locks_held=frozenset({lock.id}),
            )
            if e is mem
            else e
            for e in events
        ]
        with pytest.raises(TraceInvariantError):
            validate_trace(forged)
