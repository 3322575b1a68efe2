"""Native-backend traces satisfy the same invariants and render the same
way as generator-engine traces — the detectors' contract."""

from repro.core import RandomScheduler
from repro.core.traceview import format_trace
from repro.native import native_program
from repro.runtime import EventTrace, Execution, MemEvent
from repro.runtime.validate import validate_trace


def _traced_native_run(seed=0):
    trace = EventTrace()

    def program(rt):
        x = rt.var("x", 0)
        lock = rt.lock("L")

        def worker(k):
            rt.acquire(lock)
            rt.write(x, rt.read(x) + k)
            rt.release(lock)

        handles = [rt.spawn(worker, 1), rt.spawn(worker, 2)]
        for handle in handles:
            rt.join(handle)
        rt.check(rt.read(x) == 3, "lost update under lock")

    execution = Execution(native_program(program), seed=seed, observers=(trace,))
    return trace.events, execution.run(RandomScheduler())


class TestNativeTraceValidity:
    def test_traces_validate_across_seeds(self):
        for seed in range(8):
            events, result = _traced_native_run(seed)
            assert not result.crashes
            audit = validate_trace(events)
            assert audit.mem_events >= 5
            assert audit.acquires >= 2
            assert audit.messages_received <= audit.messages_sent

    def test_wait_notify_traces_validate(self):
        trace = EventTrace()

        def program(rt):
            lock = rt.lock("L")
            ready = rt.var("ready", 0)

            def consumer():
                rt.acquire(lock)
                while rt.read(ready) == 0:
                    rt.wait(lock)
                rt.release(lock)

            def producer():
                rt.acquire(lock)
                rt.write(ready, 1)
                rt.notify(lock)
                rt.release(lock)

            handles = [rt.spawn(consumer), rt.spawn(producer)]
            for handle in handles:
                rt.join(handle)

        execution = Execution(native_program(program), seed=3, observers=(trace,))
        result = execution.run(RandomScheduler())
        assert not result.deadlock
        validate_trace(trace.events)


class TestNativeTraceRendering:
    def test_format_trace_renders_native_events(self):
        events, _ = _traced_native_run(seed=1)
        text = format_trace(events)
        assert "acquire L" in text
        assert "write x" in text
        assert "{L}" in text  # lockset captured while held
        assert "end" in text

    def test_mem_events_carry_native_call_sites(self):
        events, _ = _traced_native_run(seed=1)
        mems = [event for event in events if isinstance(event, MemEvent)]
        assert mems
        for event in mems:
            assert event.stmt.file.endswith("test_native_traces.py")
