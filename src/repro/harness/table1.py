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

Run as a script for the full table::

    python -m repro.harness.table1 [--trials N] [--quick] [names...]
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

from repro.core import (
    RandomScheduler,
    baseline_exceptions,
    detect_races,
    fuzz_races,
    pool_map,
)
from repro.core.results import CampaignReport
from repro.detectors import HybridRaceDetector
from repro.obs import TelemetrySnapshot, collecting, maybe_telemetry
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
    #: the row's own telemetry snapshot, when the table run has telemetry
    #: on (rows measure in worker processes, so each carries its share home).
    metrics: TelemetrySnapshot | None = field(repr=False, default=None)

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
    checkpoint: str | None = None,
    schedule: str | None = None,
    trial_budget: int | None = None,
    time_budget: float | None = None,
) -> Table1Row:
    """Run the full two-phase protocol for one benchmark.

    ``checkpoint`` journals completed Phase-2 chunks to an append-only
    JSONL file (chunk keys embed the workload name, so all rows can
    share one journal); a killed table run restarted with the same path
    skips the fuzzing work it already finished.

    ``schedule``/``trial_budget``/``time_budget`` pick the Phase-2
    trial-allocation policy (see :mod:`repro.core.schedule`).  The
    default ``fixed`` schedule is the paper's protocol and the only one
    whose probability column is comparable to Table 1 — the adaptive
    schedule deliberately truncates hopeless pairs' trial counts, so use
    it for race *discovery* runs, not for reproducing the paper's
    numbers.
    """
    trials = trials if trials is not None else spec.trials
    phase1 = detect_races(
        spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
    )
    verdicts = fuzz_races(
        spec.build(),
        phase1.pairs,
        trials=trials,
        max_steps=spec.max_steps,
        checkpoint=checkpoint,
        schedule=schedule,
        trial_budget=trial_budget,
        time_budget=time_budget,
    )
    campaign = CampaignReport(
        program=spec.name, phase1=phase1, verdicts=verdicts
    )
    simple = baseline_exceptions(
        spec.build(), runs=baseline_runs, scheduler="default",
        max_steps=spec.max_steps,
    )
    rf_wall = sum(v.total_wall for v in verdicts.values())
    rf_trials = sum(v.trials for v in verdicts.values())
    deadlocks = sum(v.deadlocks for v in verdicts.values())
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
        deadlocks_found=deadlocks,
        campaign=campaign,
    )


def _measure_row_task(payload: tuple) -> Table1Row:
    """Worker entrypoint: measure one row, addressed by workload name.

    The spec is dropped from the returned row because some registry specs
    hold closure build functions that cannot cross the process boundary;
    the parent reattaches its own copy.  With ``collect`` the row measures
    under its own telemetry and carries the snapshot home — workers don't
    inherit the parent's telemetry, so this is how per-row telemetry
    crosses the process boundary.
    """
    from repro.workloads.base import get

    name, kwargs, collect = payload
    if not collect:
        row = measure_row(get(name), **kwargs)
    else:
        with collecting() as telemetry:
            row = measure_row(get(name), **kwargs)
        row.metrics = telemetry.snapshot()
    row.spec = None
    return row


def build_table(
    specs: list[WorkloadSpec] | None = None,
    *,
    jobs: int = 1,
    on_progress=None,
    **kwargs,
) -> list[Table1Row]:
    """Measure every row; ``jobs=N`` measures rows in worker processes.

    Row-level parallelism keeps each row's protocol (and its seed
    discipline) untouched, so the numbers match a serial run — apart from
    the wall-clock columns, which measure a now-contended machine.

    With telemetry on, every row carries a
    :class:`~repro.obs.TelemetrySnapshot` that is merged into the
    caller's telemetry, in row order, so serial and parallel table runs
    report identical counters.  ``on_progress(done, total)`` fires as
    rows finish.
    """
    specs = specs if specs is not None else table1_workloads()
    telemetry = maybe_telemetry()
    payloads = [(spec.name, kwargs, telemetry is not None) for spec in specs]
    rows = pool_map(
        _measure_row_task, payloads, jobs=jobs, on_progress=on_progress
    )
    for spec, row in zip(specs, rows):
        row.spec = spec
        if telemetry is not None:
            telemetry.merge_snapshot(row.metrics)
    return rows


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


def main(argv: list[str] | None = None) -> None:
    import argparse
    from contextlib import nullcontext

    from repro.cli import COUNT, POSITIVE_FLOAT, POSITIVE_INT
    from repro.obs import ProgressPrinter, ProgressUpdate, write_run_report
    from repro.workloads.base import get

    parser = argparse.ArgumentParser(prog="repro table1", description=__doc__)
    parser.add_argument("names", nargs="*", help="benchmarks (default: all)")
    parser.add_argument("--trials", type=COUNT, default=None)
    parser.add_argument(
        "--quick", action="store_true", help="20 trials, 20 baseline runs"
    )
    parser.add_argument(
        "--schedule",
        choices=("fixed", "adaptive"),
        default="fixed",
        help="Phase-2 trial allocation policy; 'fixed' reproduces the "
        "paper's per-pair protocol (Table 1 numbers are only comparable "
        "under it), 'adaptive' spends a global budget by expected yield",
    )
    parser.add_argument(
        "--trial-budget",
        type=POSITIVE_INT,
        default=None,
        metavar="N",
        help="adaptive only: global trial cap per row (default: trials "
        "per pair)",
    )
    parser.add_argument(
        "--time-budget",
        type=POSITIVE_FLOAT,
        default=None,
        metavar="SECONDS",
        help="adaptive only: wall-clock cap on each row's Phase 2",
    )
    parser.add_argument(
        "--jobs",
        type=COUNT,
        default=1,
        help="measure benchmark rows in N worker processes (0 = per core)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="JSONL journal of completed fuzzing chunks; restart with the "
        "same path to resume a killed table run",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a versioned JSON run report of the whole table run, "
        "timeline events included (read it with `repro stats`, "
        "`repro trace-export` or `repro dash`); with --checkpoint, a "
        "resumed run merges into the prior report",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a progress line to stderr as each row finishes",
    )
    args = parser.parse_args(argv)

    kwargs = {}
    if args.quick:
        kwargs = {"trials": 20, "baseline_runs": 20, "timing_runs": 2}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.checkpoint is not None:
        kwargs["checkpoint"] = args.checkpoint
    if args.schedule != "adaptive" and (
        args.trial_budget is not None or args.time_budget is not None
    ):
        parser.error("--trial-budget/--time-budget require --schedule adaptive")
    if args.schedule != "fixed":
        kwargs["schedule"] = args.schedule
        kwargs["trial_budget"] = args.trial_budget
        kwargs["time_budget"] = args.time_budget
    specs = [get(name) for name in args.names] if args.names else None

    on_progress = None
    if args.progress:
        printer = ProgressPrinter()
        started = time.perf_counter()

        def on_progress(done: int, total: int) -> None:
            printer(
                ProgressUpdate(
                    phase="table1",
                    done=done,
                    total=total,
                    elapsed_s=time.perf_counter() - started,
                )
            )

    with collecting() if args.metrics_out is not None else nullcontext() as telemetry:
        rows = build_table(
            specs, jobs=args.jobs, on_progress=on_progress, **kwargs
        )
    if telemetry is not None:
        write_run_report(
            args.metrics_out,
            telemetry.snapshot(),
            command="table1",
            merge_existing=args.checkpoint is not None,
        )
    print(render_measured(rows))
    print()
    print(render_comparison(rows))


if __name__ == "__main__":
    main()
