"""Chaos drills: campaigns under injected infrastructure failure.

The ISSUE-7 acceptance bar, end to end:

* corrupting any single trace-store entry never crashes a campaign —
  ``detect --trace-dir`` heals it (quarantine + re-record) and produces
  the identical report;
* a fuzz campaign under a combined fault plan (crash + disk_full +
  memory_hog + malformed, all transient) produces verdicts identical to
  the clean run.
"""

from pathlib import Path

from repro.cli import main
from repro.core import detect_races, fuzz_races, parse_fault_plan
from repro.trace import QUARANTINE_DIR, verify_trace
from repro.workloads import figure1


def _corrupt_one_entry(trace_dir):
    """Hand-damage the first store entry (drop its footer)."""
    entry = sorted(Path(trace_dir).glob("*.jsonl"))[0]
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
        for entry in tmp_path.glob("*.jsonl"):
            verify_trace(entry)

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
