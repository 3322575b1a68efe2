"""Streaming trace I/O: record a live execution, read it back losslessly."""

import pytest

from repro.core import RandomScheduler
from repro.runtime import EventTrace, Execution
from repro.trace import (
    TraceReader,
    TraceSchemaError,
    load_trace,
    record_execution,
)
from repro.workloads import figure1


def _witness():
    """The events of an unrecorded run of the seed the tests record."""
    witness = EventTrace()
    Execution(
        figure1.build(), seed=0, observers=[witness], max_steps=10_000
    ).run(RandomScheduler(preemption="every"))
    return witness


def _record(tmp_path):
    path = tmp_path / "t.jsonl"
    result = record_execution(
        figure1.build(),
        RandomScheduler(preemption="every"),
        path=path,
        seed=0,
        max_steps=10_000,
        scheduler_spec="random:every",
    )
    return path, _witness(), result


class TestRecordAndRead:
    def test_events_round_trip_exactly(self, tmp_path):
        path, witness, _ = _record(tmp_path)
        header, events, footer = load_trace(path)
        # The witness ran the same seed in its own execution, so decoded
        # events equal the live ones, uids included, element for element.
        assert events == witness.events
        assert header.program == "figure1"
        assert header.seed == 0
        assert header.scheduler == "random:every"
        assert footer is not None
        assert footer.events == len(events)

    def test_footer_summarizes_result(self, tmp_path):
        path, _, result = _record(tmp_path)
        _, _, footer = load_trace(path)
        assert footer.steps == result.steps
        assert footer.deadlock == result.deadlock
        assert len(footer.crashes) == len(result.crashes)
        for crash, summary in zip(result.crashes, footer.crashes):
            assert summary["e"]["t"] == crash.error_type

    def test_reader_streams_lazily(self, tmp_path):
        path, witness, _ = _record(tmp_path)
        with TraceReader(path) as reader:
            assert reader.footer is None  # header parsed, events not yet
            first = next(iter(reader))
            assert first == witness.events[0]

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceSchemaError):
            TraceReader(empty)

    def test_recording_is_schedule_neutral(self, tmp_path):
        """A recorded run is the identical schedule an unobserved run takes."""
        path, witness, _ = _record(tmp_path)
        _, events, footer = load_trace(path)
        plain = Execution(figure1.build(), seed=0, max_steps=10_000).run(
            RandomScheduler(preemption="every")
        )
        assert footer.steps == plain.steps
        assert events == witness.events
