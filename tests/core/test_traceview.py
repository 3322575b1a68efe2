"""Interleaving rendering for replay debugging."""

from repro.core.replay import replay_race
from repro.core.traceview import format_replay, format_trace
from repro.runtime import EventTrace, Execution, Program, SharedVar, Lock, ops
from repro.core import RandomScheduler
from repro.workloads import figure1


def _traced_run():
    trace = EventTrace()

    def make():
        x = SharedVar("x", 0)
        lock = Lock("L")

        def main():
            yield lock.acquire()
            yield x.write(1)
            yield lock.release()
            yield x.read()

        return main()

    Execution(Program(make), observers=[trace]).run(RandomScheduler())
    return trace.events


class TestFormatTrace:
    def test_contains_core_rows(self):
        text = format_trace(_traced_run())
        assert "start main#0" in text
        assert "acquire L" in text
        assert "write x" in text
        assert "{L}" in text  # lockset shown while held
        assert "release L" in text
        assert "read x" in text
        assert "end" in text

    def test_messages_hidden_by_default(self):
        events = _traced_run()
        assert "snd" not in format_trace(events)
        assert "snd" in format_trace(events, show_messages=True)

    def test_truncation(self):
        events = _traced_run()
        text = format_trace(events, max_events=2)
        assert "truncated" in text

    def test_truncation_accounting_is_accurate(self):
        """The note must count displayable rows only: filtered SND/RCV
        bookkeeping rows are reported separately, never as 'hidden'."""
        from repro.runtime.events import RcvEvent, SndEvent

        events = _traced_run()
        rows = [e for e in events if not isinstance(e, (SndEvent, RcvEvent))]
        filtered = len(events) - len(rows)
        text = format_trace(events, max_events=2)
        assert f"showing 2 of {len(rows)} events" in text
        assert f"{len(rows) - 2} hidden" in text
        if filtered:
            assert f"({filtered} SND/RCV rows filtered)" in text

    def test_no_truncation_note_when_everything_shown(self):
        events = _traced_run()
        assert "truncated" not in format_trace(events, max_events=len(events))

    def test_columns_per_thread(self):
        run = replay_race(figure1.build(), figure1.REAL_PAIR, seed=2)
        text = format_trace(run.events)
        header = text.splitlines()[0]
        assert "T0" in header and "T1" in header and "T2" in header


class TestFormatReplay:
    def test_highlights_racing_pair(self):
        run = replay_race(figure1.build(), figure1.REAL_PAIR, seed=2)
        text = format_replay(run, pair=figure1.REAL_PAIR)
        assert ">>" in text
        assert "races created: 1" in text
        assert "result:" in text

    def test_crash_rendered(self):
        for seed in range(20):
            run = replay_race(figure1.build(), figure1.REAL_PAIR, seed=seed)
            if run.outcome.crashes:
                text = format_replay(run, pair=figure1.REAL_PAIR)
                assert "AssertionViolation" in text
                return
        raise AssertionError("no crashing seed found in 20")
