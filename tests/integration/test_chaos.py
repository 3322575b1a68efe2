"""Chaos drills: campaigns under injected infrastructure failure.

The ISSUE-7 acceptance bar, end to end:

* corrupting any single trace-store entry never crashes a campaign —
  ``detect --trace-dir`` heals it (quarantine + re-record) and produces
  the identical report;
* a fuzz campaign under a combined fault plan (crash + disk_full +
  memory_hog + malformed, all transient) produces verdicts identical to
  the clean run;
* the ``repro store`` maintenance surface drives the same machinery from
  the command line.
"""

import pytest

from repro.cli import main
from repro.core import detect_races, fuzz_races, parse_fault_plan
from repro.trace import QUARANTINE_DIR, TraceStore, detect_key
from repro.workloads import figure1


def _corrupt_one_entry(trace_dir):
    """Hand-damage the first store entry (drop its footer)."""
    entry = TraceStore(trace_dir).entries()[0]
    lines = entry.read_bytes().splitlines(keepends=True)
    entry.write_bytes(b"".join(lines[:-1]))
    return entry


def _signature(verdict):
    return (
        verdict.trials,
        verdict.times_created,
        dict(verdict.exceptions),
        verdict.deadlocks,
        verdict.created_pairs,
    )


class TestDetectSurvivesCorruption:
    def test_corrupt_store_entry_heals_with_identical_report(self, tmp_path):
        program = figure1.build()
        clean = detect_races(
            program, seeds=range(4), max_steps=10_000, trace_dir=tmp_path
        )
        _corrupt_one_entry(tmp_path)
        healed = detect_races(
            figure1.build(), seeds=range(4), max_steps=10_000, trace_dir=tmp_path
        )
        assert healed.pairs == clean.pairs
        assert (tmp_path / QUARANTINE_DIR).exists()
        # The store is whole again: every entry passes verification.
        assert TraceStore(tmp_path).verify() == []

    def test_cli_detect_survives_hand_corruption(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "store")
        args = ["detect", "figure1", "--seeds", "4", "--trace-dir", trace_dir]
        assert main(args) == 0
        clean = capsys.readouterr().out
        _corrupt_one_entry(trace_dir)
        assert main(args) == 0
        assert capsys.readouterr().out == clean

    def test_injected_record_corruption_matches_clean_run(self, tmp_path):
        # The corrupt_trace fault damages the stored trace detect task 0 is
        # about to read; the task's with_recovery read must heal it.
        kwargs = dict(seeds=range(3), max_steps=10_000, trace_dir=tmp_path)
        clean = detect_races(figure1.build(), **kwargs)
        chaos = detect_races(
            figure1.build(),
            jobs=2,
            faults=parse_fault_plan("detect:0:corrupt_trace"),
            **kwargs,
        )
        assert chaos.pairs == clean.pairs
        assert [e.count for e in chaos.evidence.values()] == [
            e.count for e in clean.evidence.values()
        ]
        assert (tmp_path / QUARANTINE_DIR).exists()


class TestChaosCampaignEquivalence:
    def test_fuzz_verdicts_identical_under_combined_fault_plan(self):
        pairs = [figure1.REAL_PAIR, figure1.FALSE_PAIR]
        clean = fuzz_races(figure1.build(), pairs, trials=8, chunk_size=4)
        # One transient fault of each supervisor-visible kind; every
        # retry succeeds, so coverage — and therefore verdicts — match.
        plan = parse_fault_plan(
            "fuzz:0:crash:1,fuzz:1:disk_full:1,fuzz:2:malformed:1,"
            "fuzz:3:memory_hog:1:1"
        )
        chaos = fuzz_races(
            figure1.build(), pairs, trials=8, chunk_size=4, faults=plan
        )
        assert set(chaos) == set(clean)
        for pair in clean:
            assert _signature(chaos[pair]) == _signature(clean[pair])
            assert not chaos[pair].quarantined


class TestStoreCLI:
    def test_gc_and_verify_drive_the_store(self, tmp_path, capsys):
        trace_dir = str(tmp_path)
        store = TraceStore(trace_dir)
        for seed in range(3):
            store.ensure(
                detect_key("figure1", seed, max_steps=10_000), figure1.build()
            )

        assert main(["store", "verify", "--trace-dir", trace_dir]) == 0
        assert "0 damaged" in capsys.readouterr().out

        _corrupt_one_entry(trace_dir)
        assert (
            main(["store", "verify", "--trace-dir", trace_dir, "--quarantine"])
            == 1
        )
        captured = capsys.readouterr()
        assert "1 quarantined" in captured.out
        assert "CORRUPT" in captured.err

        # A byte budget that holds the larger of the two survivors.
        quota = max(p.stat().st_size for p in TraceStore(trace_dir).entries())
        assert (
            main(["store", "gc", "--trace-dir", trace_dir, "--quota", str(quota)])
            == 0
        )
        assert "evicted 1 entry" in capsys.readouterr().out
        assert len(TraceStore(trace_dir).entries()) == 1

    def test_gc_without_budget_is_an_error(self, tmp_path, capsys):
        assert main(["store", "gc", "--trace-dir", str(tmp_path)]) == 2
        assert "--quota" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["verify"], ["gc", "--quota", "1K"]], ids=" ".join
    )
    def test_missing_store_is_a_usage_error(self, tmp_path, capsys, argv):
        # A mistyped path must not pass as an empty, healthy store.
        missing = tmp_path / "typo"
        assert main(["store", *argv, "--trace-dir", str(missing)]) == 2
        captured = capsys.readouterr()
        assert f"no such trace store: {missing}" in captured.err
        assert captured.out == ""
        assert not missing.exists()

    def test_bad_quota_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["store", "gc", "--trace-dir", str(tmp_path), "--quota", "huge"])
        assert info.value.code == 2
        capsys.readouterr()
