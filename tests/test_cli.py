"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("moldyn", "raytracer", "figure1", "linkedlist"):
            assert name in out
        assert "paper:" in out


class TestRun:
    def test_clean_run_exits_zero(self, capsys):
        code = main(["run", "sor", "--seed", "0"])
        assert code == 0
        assert "sor" in capsys.readouterr().out

    def test_crashing_run_exits_nonzero(self, capsys):
        # figure1 seed 3 under the random scheduler reaches ERROR1.
        codes = {main(["run", "figure1", "--seed", str(s)]) for s in range(8)}
        assert 1 in codes
        capsys.readouterr()

    @pytest.mark.parametrize(
        "scheduler", ["random", "default", "rapos", "random-sync"]
    )
    def test_scheduler_choices(self, scheduler, capsys):
        assert main(["run", "sor", "--scheduler", scheduler]) == 0
        capsys.readouterr()


class TestDetect:
    def test_detect_prints_pairs(self, capsys):
        assert main(["detect", "figure1", "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "2 potential racing pair(s)" in out
        assert "(5, 7)" in out

    def test_detector_choice(self, capsys):
        assert main(["detect", "figure1", "--detector", "lockset"]) == 0
        assert "lockset" in capsys.readouterr().out

    def test_unknown_detector_is_a_usage_error(self, capsys):
        assert main(["detect", "figure1", "--detector", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown detector(s): nope" in err
        for name in ("hybrid", "shb", "wcp"):
            assert name in err

    def test_repeated_detector_flags_print_one_section_each(self, capsys):
        assert (
            main(
                [
                    "detect", "figure1", "--seeds", "2",
                    "--detector", "hybrid", "--detector", "shb",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "== hybrid" in out
        assert "== shb" in out
        assert out.index("== hybrid") < out.index("== shb")

    def test_predictive_detector_reports_grades(self, capsys):
        assert main(["detect", "figure1", "--detector", "shb", "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "schedulable" in out
        assert "speculative" in out

    def test_trace_dir_multi_detector_reuses_recordings(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["detect", "figure1", "--trace-dir", store, "--seeds", "2"]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "detect", "figure1", "--trace-dir", store, "--seeds", "2",
                    "--detector", "hybrid", "--detector", "wcp",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "== wcp" in captured.out
        assert "0 recorded execution(s)" in captured.err  # warm store

    def test_quarantined_seeds_exit_three(self, capsys):
        # Every seed task crashes on every attempt: the report is empty
        # because coverage is missing, which must not pass for clean.
        code = main(
            [
                "detect", "figure1", "--seeds", "2",
                "--fault-plan", "detect:0:crash:5,detect:1:crash:5",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "0 potential racing pair(s)" in captured.out
        assert "2 Phase-1 seed task(s) quarantined (seed(s) 0, 1)" in captured.err
        assert "detect[1] quarantined" in captured.err

    def test_trace_dir_on_a_file_is_a_usage_error(self, tmp_path, capsys):
        # Rejected before any task runs, not retried and quarantined.
        path = tmp_path / "not-a-dir"
        path.write_text("")
        assert main(["detect", "figure1", "--seeds", "2", "--trace-dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro detect: trace_dir must be a directory, but {path} is a file\n"
        )
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [path]

    def test_one_quarantined_seed_keeps_the_others(self, capsys):
        code = main(
            ["detect", "figure1", "--seeds", "3", "--fault-plan", "detect:0:crash:5"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "(5, 7)" in captured.out
        assert "1 Phase-1 seed task(s) quarantined (seed(s) 0)" in captured.err


class TestFuzz:
    def test_confirmed_race_exits_one(self, capsys):
        # figure1 has a real race, and confirmed races gate CI: exit 1.
        assert main(["fuzz", "figure1", "--trials", "15"]) == 1
        out = capsys.readouterr().out
        assert "1 real" in out
        assert "harmful pairs" in out
        assert "(5, 7)" in out

    def test_clean_campaign_exits_zero(self, capsys):
        # All of sor's potential races are false alarms.
        assert main(["fuzz", "sor", "--trials", "2"]) == 0
        assert "0 real" in capsys.readouterr().out

    def test_multi_detector_phase1_feeds_the_union(self, capsys):
        assert (
            main(
                [
                    "fuzz", "figure1", "--trials", "15",
                    "--detector", "hybrid", "--detector", "shb",
                ]
            )
            == 1  # the union still contains the real race
        )
        out = capsys.readouterr().out
        assert "2 potential, 1 real" in out  # both pairs, one confirmed

    def test_unknown_detector_is_a_usage_error(self, capsys):
        assert main(["fuzz", "figure1", "--detector", "nope"]) == 2
        assert "unknown detector(s): nope" in capsys.readouterr().err

    def test_quarantine_exits_three(self, capsys):
        # A poisoned chunk (no confirmed race) must surface in the exit
        # code even though the campaign itself completes.
        code = main(
            [
                "fuzz", "sor", "--trials", "2",
                "--fault-plan", "fuzz:0:crash:99",
                "--retries", "0",
            ]
        )
        assert code == 3
        assert "quarantined" in capsys.readouterr().out

    def test_adaptive_schedule_confirms_the_race(self, capsys):
        code = main(
            ["fuzz", "figure1", "--schedule", "adaptive", "--trials", "30"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "(5, 7)" in out

    def test_adaptive_is_deterministic_per_seed(self, capsys):
        args = [
            "fuzz", "figure1", "--schedule", "adaptive",
            "--trials", "30", "--seed", "5",
        ]
        assert main(args) == 1
        first = capsys.readouterr().out
        assert main(args) == 1
        assert capsys.readouterr().out == first

    def test_trial_budget_caps_the_campaign(self, capsys):
        code = main(
            [
                "fuzz", "sor", "--schedule", "adaptive",
                "--trials", "50", "--trial-budget", "10",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_budget_flags_require_adaptive(self, capsys):
        assert main(["fuzz", "sor", "--trial-budget", "10"]) == 2
        assert "only applies to the 'adaptive' schedule" in capsys.readouterr().err
        assert main(["fuzz", "sor", "--time-budget", "1.0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value", [("--trial-budget", "5"), ("--time-budget", "1")]
    )
    def test_table1_shares_the_budget_check(self, flag, value, capsys):
        assert main(["fuzz", "figure1", flag, value]) == 2
        fuzz_err = capsys.readouterr().err
        assert fuzz_err == (
            "repro fuzz: a trial or time budget only applies to the "
            "'adaptive' schedule, not 'fixed'\n"
        )
        assert main(["table1", flag, value, "figure1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.replace("repro table1", "repro fuzz") == fuzz_err

    def test_checkpoint_restart_reuses_the_journal(self, tmp_path, capsys):
        path = str(tmp_path / "journal.jsonl")
        args = ["fuzz", "figure1", "--trials", "4", "--checkpoint", path]
        assert main(args) == 1
        first = capsys.readouterr().out
        journal_size = len(open(path).read().splitlines())
        assert journal_size > 0
        assert main(args) == 1  # resumed run: same verdicts, same exit
        assert capsys.readouterr().out == first
        assert len(open(path).read().splitlines()) == journal_size

    def test_damaged_journal_record_re_runs(self, tmp_path, capsys):
        """A journal record changed on disk fails its CRC: it is skipped
        with a note and its chunk re-runs, so a flipped digit can never
        turn a pair that did not race into a REAL one."""
        path = tmp_path / "journal.jsonl"
        args = ["fuzz", "figure1", "--trials", "20", "--checkpoint", str(path)]
        assert main(args) == 1
        clean = capsys.readouterr().out
        lines = path.read_text().splitlines()
        index = next(
            i for i, line in enumerate(lines) if '"times_created":0' in line
        )
        lines[index] = lines[index].replace(
            '"times_created":0', '"times_created":1'
        )
        path.write_text("\n".join(lines) + "\n")
        assert main(args) == 1
        resumed = capsys.readouterr()
        assert resumed.out == clean
        assert "skipped 1 torn/malformed line(s)" in resumed.err


    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "figure1", "--trials", "2", "--checkpoint"],
            ["table1", "--trials", "2", "figure1", "--checkpoint"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_checkpoint_is_a_usage_error(self, argv, tmp_path, capsys):
        # Rejected before any task runs and without creating anything:
        # a traceback would exit 1, which reads as "race confirmed".
        for checkpoint, reason in (
            (tmp_path, "is a directory"),
            (tmp_path / "missing" / "j.jsonl", "no such directory"),
        ):
            assert main([*argv, str(checkpoint)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"repro {argv[0]}: checkpoint")
            assert reason in captured.err
            assert captured.err.count("\n") == 1
            assert captured.out == ""
            assert list(tmp_path.iterdir()) == []


class TestReplay:
    def test_replay_renders_interleaving(self, capsys):
        assert main(["replay", "figure1", "--pair", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "step" in out
        assert ">>" in out
        assert "races created" in out

    def test_bad_pair_index(self, capsys):
        assert main(["replay", "figure1", "--pair", "99"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_find_crash_replays_an_error_revealing_seed(self, capsys):
        assert main(["replay", "figure1", "--pair", "1", "--find-crash"]) == 0
        out = capsys.readouterr().out
        assert "AssertionViolation" in out
        assert "ERROR1" in out

    def test_find_crash_gives_up_on_crash_free_programs(self, capsys):
        # sor never throws under any schedule (all its races are false).
        assert main(["replay", "sor", "--pair", "0", "--find-crash", "5"]) == 1
        assert "no crashing seed" in capsys.readouterr().err


class TestHarnessDelegation:
    def test_figure2_delegates(self, capsys):
        assert main(["figure2", "--runs", "5", "--paddings", "0,2"]) == 0
        out = capsys.readouterr().out
        assert "RF P(race)" in out

    def test_table1_delegates(self, capsys):
        assert main(["table1", "--quick", "raytracer"]) == 0
        out = capsys.readouterr().out
        assert "raytracer" in out
        assert "Hybrid#" in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "traces"],
            ["store", "verify", "--trace-dir", "traces"],
            ["detect", "figure1", "--store-quota", "1K"],
            ["replay", "figure1", "--save-trace", "t.jsonl"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_deleted_store_surface_is_unknown(self, argv, capsys):
        # A warm `detect --trace-dir` replays the store and heals it;
        # `replay` rebuilds an interleaving from the seed alone.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_dash_is_not_a_command(self, tmp_path, capsys):
        # Run reports are read by `stats` (tables) and `trace-export`
        # (Perfetto); there is no HTML dashboard.
        with pytest.raises(SystemExit) as exit_info:
            main(["dash", str(tmp_path / "report.json")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'dash'" in capsys.readouterr().err

    def test_record_is_not_a_command(self, tmp_path, capsys):
        # `detect --trace-dir` fills the trace store.
        with pytest.raises(SystemExit) as exit_info:
            main(["record", "figure1", "--trace-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'record'" in capsys.readouterr().err

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "not-a-workload"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "figure1", "--trials", "-3"],
            ["fuzz", "figure1", "--chunk-size", "0"],
            ["fuzz", "figure1", "--jobs", "-1"],
            ["fuzz", "figure1", "--retries", "-1"],
            ["fuzz", "figure1", "--deadline", "-1"],
            ["fuzz", "figure1", "--memory-budget", "-5"],
            ["fuzz", "figure1", "--schedule", "adaptive", "--trial-budget", "0"],
            ["fuzz", "figure1", "--trials", "many"],
            ["detect", "figure1", "--jobs", "-2"],
            ["detect", "figure1", "--seeds", "-2"],
            ["table1", "--trials", "-1", "figure1"],
            ["figure2", "--runs", "0"],
            ["figure2", "--paddings", "a,b"],
            ["figure2", "--paddings", "0,-5"],
            ["replay", "figure1", "--max-events", "-3"],
            ["replay", "figure1", "--find-crash", "-2"],
        ],
        ids=" ".join,
    )
    def test_bad_numbers_are_usage_errors(self, argv, capsys):
        """Exit 2 before anything runs: exit 1 is fuzz's "race confirmed"."""
        self._assert_usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "figure1", "--fault-plan", "fuzz:0:bogus"],
            ["fuzz", "figure1", "--fault-plan", "fuzz:x:crash"],
            ["detect", "figure1", "--fault-plan", "bogus:0:crash"],
            ["detect", "figure1", "--fault-plan", "record:0:corrupt_trace"],
        ],
        ids=" ".join,
    )
    def test_bad_fault_plans_are_usage_errors(self, argv, capsys):
        self._assert_usage_error(argv, capsys)

    @staticmethod
    def _assert_usage_error(argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"repro {argv[0]}: error: argument" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
