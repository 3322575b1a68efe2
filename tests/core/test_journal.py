"""CheckpointJournal recovery: torn lines, damaged records, duplicate keys.

A journal is only as good as its failure story: a campaign killed
mid-write leaves a torn line, a record changed on disk fails its CRC, a
resumed campaign appends duplicate keys, and all must be survivable
*and visible*.
"""

import json
import zlib

from repro.core.supervisor import CheckpointJournal
from repro.obs import collecting


def _journal(tmp_path, lines):
    path = tmp_path / "journal.jsonl"
    path.write_text("".join(lines))
    return CheckpointJournal(path), path


def _record(key, result):
    body = json.dumps({"key": key, "result": result}, separators=(",", ":"))
    crc = zlib.crc32(body.encode())
    return json.dumps({"key": key, "result": result, "crc": crc}) + "\n"


class TestLoad:
    def test_missing_file_loads_empty(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "absent.jsonl")
        assert journal.load() == {}
        assert journal.skipped_lines == 0

    def test_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.append("a", 1)
        journal.append("b", {"x": [1, 2]})
        journal.close()
        assert journal.load() == {"a": 1, "b": {"x": [1, 2]}}
        assert journal.skipped_lines == 0

    def test_torn_trailing_line_skipped(self, tmp_path):
        journal, _ = _journal(
            tmp_path, [_record("a", 1), '{"key": "b", "resu'],
        )
        assert journal.load() == {"a": 1}
        assert journal.skipped_lines == 1

    def test_torn_mid_file_line_skipped_both_sides_survive(self, tmp_path):
        journal, _ = _journal(
            tmp_path,
            [_record("a", 1), "garbage not json\n", _record("b", 2)],
        )
        assert journal.load() == {"a": 1, "b": 2}
        assert journal.skipped_lines == 1

    def test_parseable_non_record_lines_are_skipped(self, tmp_path):
        journal, _ = _journal(
            tmp_path, [_record("a", 1), '["not", "a", "record"]\n', '{"no": "key"}\n'],
        )
        assert journal.load() == {"a": 1}
        assert journal.skipped_lines == 2

    def test_duplicate_keys_last_wins(self, tmp_path):
        journal, _ = _journal(
            tmp_path, [_record("a", 1), _record("b", 5), _record("a", 2)],
        )
        assert journal.load() == {"a": 2, "b": 5}

    def test_record_without_crc_is_skipped(self, tmp_path):
        journal, _ = _journal(
            tmp_path,
            [_record("a", 1), json.dumps({"key": "b", "result": 2}) + "\n"],
        )
        assert journal.load() == {"a": 1}
        assert journal.skipped_lines == 1

    def test_changed_record_fails_its_crc(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.append("a", {"created": 0})
        journal.append("b", {"created": 0})
        journal.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"created":0', '"created":1')
        path.write_text("\n".join(lines) + "\n")
        assert journal.load() == {"a": {"created": 0}}
        assert journal.skipped_lines == 1

    def test_blank_lines_are_not_counted_as_torn(self, tmp_path):
        journal, _ = _journal(tmp_path, [_record("a", 1), "\n", "\n"])
        assert journal.load() == {"a": 1}
        assert journal.skipped_lines == 0


class TestVisibility:
    def test_skips_land_in_the_metric(self, tmp_path):
        journal, _ = _journal(tmp_path, [_record("a", 1), "torn{"])
        with collecting() as registry:
            journal.load()
        assert registry.snapshot().counters["supervisor.journal_skipped"] == 1

    def test_skips_print_a_recovery_note(self, tmp_path, capsys):
        journal, _ = _journal(tmp_path, ["torn{\n", "more torn{"])
        journal.load()
        err = capsys.readouterr().err
        assert "skipped 2 torn/malformed line(s)" in err

    def test_clean_load_prints_nothing(self, tmp_path, capsys):
        journal, _ = _journal(tmp_path, [_record("a", 1)])
        journal.load()
        assert capsys.readouterr().err == ""
