"""Trace integrity: per-file CRC32, event counts, TraceCorruptError.

The durability contract: every way a trace file can rot on disk —
truncation, a torn line, a flipped byte (valid UTF-8 or not), a dangling
table id, a vanished footer or footer checksum — must
surface as a structured :class:`TraceCorruptError` naming the file, the
offending line and the reason, never as a raw ``JSONDecodeError`` or
``KeyError`` escaping the reader.
"""

import json

import pytest

from repro.trace import (
    QUARANTINE_DIR,
    TraceCorruptError,
    TraceReader,
    TraceSchemaError,
    TraceStore,
    analyze_trace,
    detect_key,
    load_trace,
    verify_trace,
)
from repro.workloads import figure1

KEY = detect_key("figure1", 0, max_steps=10_000)


@pytest.fixture
def trace_path(tmp_path):
    """One freshly recorded figure1 trace."""
    return TraceStore(tmp_path).ensure(KEY, figure1.build())


def _lines(path):
    return path.read_bytes().splitlines(keepends=True)


def _rewrite(path, lines):
    path.write_bytes(b"".join(lines))


class TestCleanPath:
    def test_footer_carries_crc_and_count(self, trace_path):
        reader = TraceReader(trace_path)
        events = list(reader)
        assert reader.footer is not None
        assert reader.footer.crc32 is not None
        assert reader.footer.events == len(events)

    def test_verify_trace_returns_footer(self, trace_path):
        footer = verify_trace(trace_path)
        assert footer.events > 0
        assert footer.crc32 is not None

    def test_load_trace_round_trips(self, trace_path):
        header, events, footer = load_trace(trace_path)
        assert header.program == "figure1"
        assert events and footer.events == len(events)

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceReader(tmp_path / "nope.jsonl")


class TestCorruptionModes:
    def test_corrupt_error_is_a_schema_error(self):
        # Existing except-clauses on TraceSchemaError keep working.
        exc = TraceCorruptError("p.jsonl", 3, "why")
        assert isinstance(exc, TraceSchemaError)
        assert (exc.path, exc.offset, exc.reason) == ("p.jsonl", 3, "why")
        assert "line 3" in str(exc) and "why" in str(exc)

    def test_whole_file_offset_renders_distinctly(self):
        assert "whole file" in str(TraceCorruptError("p.jsonl", 0, "why"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(TraceCorruptError, match="empty trace file"):
            list(TraceReader(path))

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_bytes(b"not json\n")
        with pytest.raises(TraceCorruptError, match="malformed header"):
            TraceReader(path)

    def test_missing_footer_is_truncation(self, trace_path):
        _rewrite(trace_path, _lines(trace_path)[:-1])
        with pytest.raises(TraceCorruptError, match="footer missing"):
            verify_trace(trace_path)

    def test_torn_event_line(self, trace_path):
        lines = _lines(trace_path)
        lines[2] = lines[2][: len(lines[2]) // 2]  # no trailing newline either
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError) as info:
            verify_trace(trace_path)
        assert info.value.offset == 3  # 1-based line number

    def test_garbage_line_inside(self, trace_path):
        lines = _lines(trace_path)
        lines.insert(2, b"{ not json }\n")
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError, match="malformed line") as info:
            verify_trace(trace_path)
        assert info.value.offset == 3

    def test_blank_line_inside(self, trace_path):
        lines = _lines(trace_path)
        lines.insert(2, b"\n")
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError, match="blank line"):
            verify_trace(trace_path)

    def test_tampered_line_fails_the_checksum(self, trace_path):
        # Stays valid JSON and a valid event -> only the CRC can catch it.
        lines = _lines(trace_path)
        row = json.loads(lines[1])
        row[1] += 999  # the positional step field
        lines[1] = json.dumps(row).encode("utf-8") + b"\n"
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError, match="checksum") as info:
            verify_trace(trace_path)
        assert info.value.offset == 0  # detected at the footer: whole file

    def test_event_count_mismatch(self, trace_path):
        lines = _lines(trace_path)
        del lines[1]  # drop one event, keep the footer
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError):
            verify_trace(trace_path)

    def test_footer_without_crc_is_rejected(self, trace_path):
        # A rotted key name must not switch the checksum off.
        lines = _lines(trace_path)
        lines[-1] = lines[-1].replace(b'"crc32"', b'"crc33"')
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError, match="no crc32") as info:
            verify_trace(trace_path)
        assert info.value.offset == len(lines)

    def test_dangling_table_reference(self, trace_path):
        # The first memory access defines statement, location and lockset
        # id 0.  Without it the next access names id 0 or defines an id
        # past it; either is corruption at that access's line.
        lines = _lines(trace_path)
        rows = [json.loads(line) for line in lines]
        kinds = [row[0] if isinstance(row, list) else None for row in rows]
        first_mem = kinds.index(0)
        del lines[first_mem]
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError) as info:
            verify_trace(trace_path)
        next_mem = kinds.index(0, first_mem + 1)  # now one line earlier
        assert info.value.offset == next_mem  # 1-based: index + 1 - 1

    def test_flipped_byte_in_header(self, trace_path):
        lines = _lines(trace_path)
        lines[0] = lines[0][:5] + b"\xff" + lines[0][6:]
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError, match="malformed header") as info:
            verify_trace(trace_path)
        assert info.value.offset == 1

    def test_damaged_header_key_is_corruption(self, trace_path):
        lines = _lines(trace_path)
        lines[0] = lines[0].replace(b'"kind"', b'"kimd"', 1)
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError) as info:
            verify_trace(trace_path)
        assert info.value.offset == 1

    def test_older_schema_is_a_version_mismatch_not_corruption(self, trace_path):
        lines = _lines(trace_path)
        header = json.loads(lines[0])
        header["schema"] = 2
        lines[0] = json.dumps(header).encode("utf-8") + b"\n"
        _rewrite(trace_path, lines)
        with pytest.raises(TraceSchemaError, match="schema v2") as info:
            verify_trace(trace_path)
        assert not isinstance(info.value, TraceCorruptError)

    def test_flipped_byte_in_event_line(self, trace_path):
        lines = _lines(trace_path)
        lines[3] = lines[3][:2] + b"\xff" + lines[3][3:]
        _rewrite(trace_path, lines)
        with pytest.raises(TraceCorruptError, match="malformed line") as info:
            verify_trace(trace_path)
        assert info.value.offset == 4

    def test_reader_closes_file_on_corruption(self, trace_path):
        # Quarantine renames the file right after the error; a reader
        # holding the handle open would block that on some platforms.
        _rewrite(trace_path, _lines(trace_path)[:-1])
        reader = TraceReader(trace_path)
        with pytest.raises(TraceCorruptError):
            list(reader)
        assert reader._fh is None


def test_recovery_heals_a_flipped_byte(tmp_path):
    store = TraceStore(tmp_path)
    program = figure1.build()
    detectors = ["hybrid", "happens-before", "shb", "wcp"]
    path = store.ensure(KEY, program)
    clean = analyze_trace(path, detectors)
    lines = _lines(path)
    lines[2] = lines[2][:1] + b"\xff" + lines[2][2:]
    _rewrite(path, lines)

    healed = store.with_recovery(KEY, program, lambda p: analyze_trace(p, detectors))
    assert healed == clean
    assert store.stats.corrupt == 1 and store.stats.recovered == 1
    assert store.stats.executions == 2  # the original recording + one re-record
    assert (tmp_path / QUARANTINE_DIR / path.name).exists()
    verify_trace(store.get(KEY))
