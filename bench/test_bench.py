"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

from layers import LAYERS, Tracer  # noqa: E402
from workloads import table1_row, workloads  # noqa: E402

from repro.core import driver  # noqa: E402
from repro.harness.table1 import measure_row  # noqa: E402
from repro.runtime.interpreter import Execution  # noqa: E402
from repro.workloads import get  # noqa: E402


@pytest.mark.parametrize("name", ["raytracer", "sor"])
def test_table1_mirror_matches_measure_row(name):
    spec = get(name)
    sizes = dict(trials=20, baseline_runs=20, timing_runs=1)
    expected = measure_row(spec, **sizes)
    mirror = table1_row(spec, 0, **sizes)
    assert (mirror.potential, mirror.real, mirror.harmful, mirror.simple) == (
        expected.potential,
        expected.real,
        expected.harmful,
        expected.exceptions_simple,
    )
    assert mirror.probability == expected.probability


@pytest.mark.parametrize("name", list(workloads()))
def test_each_workload_runs_one_small_program(name, tmp_path):
    workload = workloads()[name]
    result = workload.run(("raytracer",), 0, tmp_path)
    assert result.ops > 0
    assert result.attempted > 0
    assert result.failed == 0, result.problems


def test_traced_round_self_times_sum_to_its_wall(tmp_path):
    originals = (Execution.run, driver.detect_races)
    tracer = Tracer()
    workload = workloads()["campaign-adaptive"]
    result, wall = tracer.run_round(lambda: workload.run(("raytracer",), 0, tmp_path))
    tracer.probe(tmp_path)
    assert result.failed == 0
    assert (Execution.run, driver.detect_races) == originals
    assert sum(tracer.self_s.values()) == pytest.approx(wall)
    assert set(tracer.self_s) == set(LAYERS)
    metrics = tracer.metrics()
    assert metrics["postponing.trials"] >= result.ops
    assert metrics["supervisor.tasks"] > 0
    assert metrics["schedule.rounds"] > 0
    assert metrics["supervisor.pickle_bytes"] > 0


def test_benchmark_json_lists_every_workload_and_per_layer_metric():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads())
    listed = [metric["name"] for metric in spec["per_layer"]]
    assert sorted(listed) == sorted(Tracer().metrics())


def _record(path, scale=1.0):
    values = [10.0, 10.1, 10.05, 9.95, 10.0]
    summary = {
        metric["name"]: {
            "unit": metric["unit"],
            "median": 10.0 * scale,
            "iqr": 0.1 * scale,
            "values": [v * scale for v in values],
        }
        for metric in run.load_spec()["end_to_end"]
    }
    path.write_text(json.dumps({"workloads": {"table1-stall": {"end_to_end": summary}}}))
    return path


def test_compare_passes_identical_sets(tmp_path):
    base = _record(tmp_path / "a.json")
    assert run.compare(base, base)


def test_compare_flags_a_twenty_percent_regression(tmp_path, capsys):
    base = _record(tmp_path / "a.json")
    slower = _record(tmp_path / "b.json", scale=1.21)
    assert not run.compare(base, slower)
    rows = capsys.readouterr().out.splitlines()[1:]
    verdicts = {row.split()[0]: row.split()[-1] for row in rows}
    assert [row.split()[1] for row in rows] == ["table1-stall"] * len(rows)
    for metric in run.load_spec()["end_to_end"]:
        regressed = metric["better"] == "lower" and metric["bound"] < 0.21
        assert (verdicts[metric["name"]] == "REGRESSED") == regressed, metric


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table1-stall",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
