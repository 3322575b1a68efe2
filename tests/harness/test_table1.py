"""Table 1 harness: one full row measured end-to-end, and rendering."""

import pytest

from repro.core import parallel
from repro.harness.table1 import (
    Table1Row,
    build_table,
    measure_row,
    render_comparison,
    render_measured,
)
from repro.workloads import figure1, get


@pytest.fixture(scope="module")
def raytracer_row():
    return measure_row(get("raytracer"), trials=20, baseline_runs=10, timing_runs=2)


class TestMeasureRow:
    def test_row_fields(self, raytracer_row):
        row = raytracer_row
        assert isinstance(row, Table1Row)
        assert row.name == "raytracer"
        assert row.sloc > 50  # module line count
        assert row.normal_s > 0
        assert row.hybrid_s > 0
        assert row.racefuzzer_s > 0
        assert row.potential == 2
        assert row.real == 2
        assert row.harmful == 0
        assert row.probability == 1.0
        assert row.campaign is not None

    def test_phase1_quarantine_reaches_the_row(self, monkeypatch):
        """A Phase-1 seed that fails every attempt is quarantined onto the
        row's campaign, as on ``repro fuzz``; the other seeds still count."""
        run_detect_task = parallel.run_detect_task

        def failing_seed_1(task):
            if task.seed == 1:
                raise RuntimeError("injected detect failure")
            return run_detect_task(task)

        monkeypatch.setattr(parallel, "run_detect_task", failing_seed_1)
        spec = get("figure1")
        assert spec.phase1_seeds == (0, 1, 2)
        row = measure_row(spec, trials=4, baseline_runs=2, timing_runs=1)
        failures = row.campaign.failures
        assert [failure.phase for failure in failures] == ["detect"]
        assert failures[0].index == 1
        assert set(row.campaign.phase1.pairs) == {
            figure1.REAL_PAIR,
            figure1.FALSE_PAIR,
        }

    def test_timing_shape(self, raytracer_row):
        """The paper's qualitative timing claim: hybrid instrumentation
        costs more than an uninstrumented run."""
        assert raytracer_row.hybrid_s > raytracer_row.normal_s


class TestRendering:
    def test_render_measured(self, raytracer_row):
        text = render_measured([raytracer_row])
        assert "raytracer" in text
        assert "Hybrid#" in text
        assert "RF(real)" in text

    def test_render_comparison_contains_paper_values(self, raytracer_row):
        text = render_comparison([raytracer_row])
        assert "2/2" in text  # paper potential / measured potential
        assert "p/m" in text

    def test_build_table_subset(self):
        rows = build_table(
            [get("figure1")] if get("figure1").paper else [get("sor")],
            trials=10,
            baseline_runs=5,
            timing_runs=1,
        )
        assert len(rows) == 1
