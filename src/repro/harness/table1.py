"""Regenerate the paper's Table 1 over our workload suite (experiments E1-E5).

For each benchmark this measures, with the same protocol as Section 5.2:

* columns 3-5 — mean wall-clock of a Normal run (no instrumentation,
  sync-only preemption), a Hybrid-instrumented run, and a RaceFuzzer run;
* column 6  — distinct potentially racing pairs from Phase 1;
* column 7  — pairs RaceFuzzer proved real (created at least once);
* column 8  — the paper's "known" count, echoed for comparison;
* column 9  — distinct pairs whose race raised an exception;
* column 10 — exception types seen under the passive default scheduler;
* column 11 — mean per-pair probability of creating the race
  (the paper ran RaceFuzzer 100 times per pair; so does this, unless
  ``trials`` is overridden).

Every row's tasks run on one supervised
:class:`~repro.core.parallel.ParallelCampaign` (see :func:`build_table`).

Run ``repro table1 [--trials N] [--quick] [names...]`` (or
``python -m repro.harness.table1 ...``) for the full table.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

from repro.core import RandomScheduler
from repro.core.driver import open_campaign, race_directed_campaigns
from repro.core.results import CampaignReport
from repro.detectors import HybridRaceDetector
from repro.runtime import Execution
from repro.workloads.base import WorkloadSpec, table1_workloads

from .render import render_table


@dataclass
class Table1Row:
    """One measured row, next to its paper counterpart."""

    spec: WorkloadSpec
    sloc: int
    normal_s: float
    hybrid_s: float
    racefuzzer_s: float
    potential: int
    real: int
    harmful: int
    exceptions_simple: int
    probability: float | None
    deadlocks_found: int
    campaign: CampaignReport = field(repr=False, default=None)

    @property
    def name(self) -> str:
        return self.spec.name


def _count_module_sloc(spec: WorkloadSpec) -> int:
    """Non-blank source lines of the workload module (our SLOC column)."""
    module = inspect.getmodule(spec.build)
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):
        return 0
    return sum(1 for line in source.splitlines() if line.strip())


def _time_normal(spec: WorkloadSpec, runs: int) -> float:
    start = time.perf_counter()
    for seed in range(runs):
        Execution(spec.build(), seed=seed, max_steps=spec.max_steps).run(
            RandomScheduler(preemption="sync")
        )
    return (time.perf_counter() - start) / runs


def _time_hybrid(spec: WorkloadSpec, runs: int) -> float:
    start = time.perf_counter()
    for seed in range(runs):
        detector = HybridRaceDetector()
        Execution(
            spec.build(), seed=seed, observers=[detector], max_steps=spec.max_steps
        ).run(RandomScheduler(preemption="every"))
    return (time.perf_counter() - start) / runs


def measure_row(
    spec: WorkloadSpec,
    *,
    trials: int | None = None,
    timing_runs: int = 5,
    baseline_runs: int = 100,
    schedule: str | None = None,
    trial_budget: int | None = None,
    time_budget: float | None = None,
    **campaign,
) -> Table1Row:
    """Run the full two-phase protocol for one benchmark: a one-row
    :func:`build_table`."""
    return build_table(
        [spec],
        trials=trials,
        timing_runs=timing_runs,
        baseline_runs=baseline_runs,
        schedule=schedule,
        trial_budget=trial_budget,
        time_budget=time_budget,
        **campaign,
    )[0]


def build_table(
    specs: list[WorkloadSpec] | None = None,
    *,
    trials: int | None = None,
    timing_runs: int = 5,
    baseline_runs: int = 100,
    schedule: str | None = None,
    trial_budget: int | None = None,
    time_budget: float | None = None,
    **campaign,
) -> list[Table1Row]:
    """Measure every row on one supervised engine.

    Every row's Phase-1 seeds run as one batch, every row's pairs as
    lockstep rounds under per-row schedules (see
    :func:`~repro.core.driver.race_directed_campaigns`), then every
    row's baseline chunks as one batch.  A quarantined detect or fuzz
    task lands on its own row's ``campaign.failures`` and the table
    still finishes.  The Normal and Hybrid timing runs follow in this
    process once the pool is shut down; every other column is the same
    at every ``jobs``.  ``campaign`` holds the engine settings (see
    :class:`~repro.core.parallel.ParallelCampaign`); a ``checkpoint``
    journal serves every row, since chunk keys embed the workload name.

    ``schedule``/``trial_budget``/``time_budget`` pick the Phase-2
    trial-allocation policy (see :mod:`repro.core.schedule`).  The
    default ``fixed`` schedule is the paper's protocol and the only one
    whose probability column is comparable to Table 1 — the adaptive
    schedule deliberately truncates hopeless pairs' trial counts, so use
    it for race *discovery* runs, not for reproducing the paper's
    numbers.  Rows fuzz side by side, so each row's ``time_budget``
    clock also runs while other rows' chunks execute.
    """
    specs = specs if specs is not None else table1_workloads()
    max_steps = {spec.name: spec.max_steps for spec in specs}
    with open_campaign(
        {spec.name: spec.build() for spec in specs}, **campaign
    ) as (engine, names):
        campaigns = race_directed_campaigns(
            engine,
            names,
            phase1_seeds={spec.name: spec.phase1_seeds for spec in specs},
            trials={
                spec.name: spec.trials if trials is None else trials
                for spec in specs
            },
            max_steps=max_steps,
            schedule=schedule,
            trial_budget=trial_budget,
            time_budget=time_budget,
        )
        simple = engine.baseline(names, runs=baseline_runs, max_steps=max_steps)
    return [
        _row(spec, campaigns[spec.name], simple[spec.name], timing_runs)
        for spec in specs
    ]


def _row(spec, campaign, simple, timing_runs: int) -> Table1Row:
    """One row's columns from its campaign, its baseline and its timings."""
    verdicts = campaign.verdicts.values()
    rf_wall = sum(v.total_wall for v in verdicts)
    rf_trials = sum(v.trials for v in verdicts)
    return Table1Row(
        spec=spec,
        sloc=_count_module_sloc(spec),
        normal_s=_time_normal(spec, timing_runs),
        hybrid_s=_time_hybrid(spec, timing_runs),
        racefuzzer_s=rf_wall / rf_trials if rf_trials else 0.0,
        potential=campaign.potential_pairs,
        real=len(campaign.real_pairs),
        harmful=len(campaign.harmful_pairs),
        exceptions_simple=len([t for t in simple if t != "Deadlock"]),
        probability=campaign.mean_probability() if campaign.real_pairs else None,
        deadlocks_found=sum(v.deadlocks for v in verdicts),
        campaign=campaign,
    )


def render_measured(rows: list[Table1Row]) -> str:
    headers = [
        "Program", "SLOC", "Normal(s)", "Hybrid(s)", "RF(s)",
        "Hybrid#", "RF(real)", "#Exc RF", "Simple", "Prob",
    ]
    table = [
        [
            row.name, row.sloc,
            f"{row.normal_s:.4f}", f"{row.hybrid_s:.4f}",
            f"{row.racefuzzer_s:.4f}",
            row.potential, row.real, row.harmful,
            row.exceptions_simple, row.probability,
        ]
        for row in rows
    ]
    return render_table(headers, table, title="Table 1 (measured on this machine)")


def render_comparison(rows: list[Table1Row]) -> str:
    """Paper-vs-measured, the EXPERIMENTS.md payload."""
    headers = [
        "Program",
        "potential p/m", "real p/m", "#exc p/m", "simple p/m", "prob p/m",
        "hybrid/normal p/m", "rf/normal p/m",
    ]
    table = []
    for row in rows:
        paper = row.spec.paper
        if paper is None:
            # Workloads outside the paper's benchmark suite (figure1,
            # philosophers, ...) have no row to compare against.
            continue
        hybrid_ratio_paper = (
            f"{paper.hybrid_s / paper.normal_s:.1f}"
            if paper.hybrid_s and paper.normal_s
            else "-"
        )
        rf_ratio_paper = (
            f"{paper.racefuzzer_s / paper.normal_s:.1f}"
            if paper.racefuzzer_s and paper.normal_s
            else "-"
        )
        table.append(
            [
                row.name,
                f"{paper.hybrid_races}/{row.potential}",
                f"{paper.real_races}/{row.real}",
                f"{paper.exceptions_rf}/{row.harmful}",
                f"{paper.exceptions_simple}/{row.exceptions_simple}",
                f"{paper.probability if paper.probability is not None else '-'}"
                f"/{f'{row.probability:.2f}' if row.probability is not None else '-'}",
                f"{hybrid_ratio_paper}/{row.hybrid_s / row.normal_s:.1f}",
                f"{rf_ratio_paper}/{row.racefuzzer_s / row.normal_s:.1f}",
            ]
        )
    return render_table(
        headers, table, title="Paper vs measured (p/m = paper/measured)"
    )


if __name__ == "__main__":
    from repro.cli import main

    raise SystemExit(main(["table1", *sys.argv[1:]]))
