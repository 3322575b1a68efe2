"""The benchmark's four workloads, each a closed loop of identical rounds.

A round is one request from a single client: it runs a fixed protocol
over every program of the workload and returns only when all of it is
done, so a slower engine simply completes fewer rounds.  Everything runs
in one process with ``jobs=1``: no pool, no threads.

Round ``r`` of a run with seed ``S`` shifts every seed it passes to the
engine by :func:`round_offset`, so the same seed gives the same inputs,
and seed 0's first round uses exactly the seeds of
``python -m repro.harness.table1``.

Every round also checks the engine's output against ground truth (see
:func:`check_verdicts` and :func:`detect_store_round`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import repro.trace
from repro.core import driver
from repro.core.results import CampaignReport
from repro.core.schedulers import RandomScheduler
from repro.detectors import HybridRaceDetector
from repro.obs import collecting, recording_timeline
from repro.runtime import Execution
from repro.workloads import get, table1_workloads
from repro.workloads.base import WorkloadSpec

#: Table-1 rows whose candidate pairs never or rarely meet, so Phase-2
#: trials spend their steps waiting out the watchdog's ``patience``.
STALL_ROWS = ("sor", "jspider", "hedc", "montecarlo")

#: rows whose real-pair count equals ``truth.real_pairs`` for any seeds:
#: each pair is created in every trial or in none, and Phase 1 finds
#: every real pair from any three seeds.  On the other rows a pair may be
#: created in 1% of trials (linkedlist), Phase 1 may miss a real pair
#: (jigsaw), and treeset has 5 creatable pairs where ``truth`` says 3.
EXACT_TRUTH = ("sor", "jspider", "hedc", "montecarlo", "moldyn", "raytracer", "cache4j")

#: the four detectors ``detect-store`` runs over one execution per seed.
DETECTORS = ("hybrid", "happens-before", "shb", "wcp")

# The Table-1 protocol is 100 trials per pair, 100 baseline runs and 5
# timing runs per mode.  A round scales it by 1/10 (timing runs: 1) so
# one round takes 1-2 s and a run holds enough rounds for a median.
TABLE1_TRIALS = 10
TABLE1_BASELINE_RUNS = 10
TABLE1_TIMING_RUNS = 1

#: Phase-1 seeds per program and round in ``detect-store``.
DETECT_SEEDS = 3

# The adaptive campaign's trial budget per pair, and the chunk it grants
# per bandit round: two chunks per pair on average, so Thompson sampling
# decides where most of the budget goes.
CAMPAIGN_TRIALS = 10
CAMPAIGN_CHUNK = 5


def round_offset(seed: int, index: int) -> int:
    """The seed shift of round ``index`` in a run with ``seed``.

    Rounds use at most 100 consecutive seeds from their offset, so the
    rounds of one run, and of runs with other seeds, never share one.
    """
    return (seed * 100 + index) * 100


@dataclass
class RoundResult:
    """What one round did, and which of its outputs were wrong."""

    #: outputs produced: a verdict per candidate pair in the Phase-2
    #: workloads (not trials: the adaptive schedule decides how many a
    #: verdict takes), a detector's analysis of one seed in detect-store.
    ops: int = 0
    #: checked outputs: one per candidate pair's verdict or per analysis.
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: per-layer counts only the workload can see (pairs, bytes, events).
    counts: dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    programs: tuple[str, ...]
    #: ``run(programs, offset, scratch)`` executes one round.
    run: Callable[[tuple[str, ...], int, Path], RoundResult]
    #: run rounds with the metrics registry and the timeline recording.
    telemetry: bool = False


def check_verdicts(
    result: RoundResult, spec: WorkloadSpec, campaign: CampaignReport
) -> None:
    """Check one program's Phase-2 verdicts.

    Every candidate pair must get a verdict from all its trials, none
    quarantined or cut off at ``max_steps``, and every race a trial
    created must be between the pair's own statements.

    ``spec.truth`` holds only the number of real pairs, so a
    misclassified pair shows as a real count that differs from it.  The
    count is checked on :data:`EXACT_TRUTH` alone: elsewhere it varies
    with the seeds.
    """
    for verdict in campaign.verdicts.values():
        result.attempted += 1
        statements = {verdict.pair.first, verdict.pair.second}
        if verdict.errors:
            result.fail(1, f"{spec.name}: {verdict.pair} quarantined")
        elif verdict.truncated:
            result.fail(1, f"{spec.name}: {verdict.pair} hit max_steps")
        elif any({p.first, p.second} - statements for p in verdict.created_pairs):
            result.fail(1, f"{spec.name}: {verdict.pair} created a foreign race")
    for failure in campaign.failures:
        result.fail(1, f"{spec.name}: {failure.describe()}")
    real, truth = len(campaign.real_pairs), spec.truth.real_pairs
    if spec.name in EXACT_TRUTH and real != truth:
        result.fail(abs(real - truth), f"{spec.name}: {real} real pairs, {truth} seeded")


@dataclass(frozen=True)
class Table1Row:
    """The deterministic Table-1 columns of one row."""

    potential: int
    real: int
    harmful: int
    simple: int
    probability: float | None
    campaign: CampaignReport


def table1_row(
    spec: WorkloadSpec,
    offset: int,
    *,
    trials: int,
    baseline_runs: int,
    timing_runs: int,
) -> Table1Row:
    """``harness.table1.measure_row``'s calls, with every seed shifted.

    At ``offset`` 0 this returns the columns ``measure_row`` reports.
    The timing runs execute as there, but their times are not kept.
    """
    phase1 = driver.detect_races(
        spec.build(),
        seeds=[seed + offset for seed in spec.phase1_seeds],
        max_steps=spec.max_steps,
    )
    verdicts = driver.fuzz_races(
        spec.build(),
        phase1.pairs,
        trials=trials,
        base_seed=offset,
        max_steps=spec.max_steps,
    )
    campaign = CampaignReport(program=spec.name, phase1=phase1, verdicts=verdicts)
    simple = driver.baseline_exceptions(
        spec.build(),
        runs=baseline_runs,
        scheduler="default",
        base_seed=offset,
        max_steps=spec.max_steps,
    )
    for seed in range(offset, offset + timing_runs):
        Execution(spec.build(), seed=seed, max_steps=spec.max_steps).run(
            RandomScheduler(preemption="sync")
        )
    for seed in range(offset, offset + timing_runs):
        Execution(
            spec.build(),
            seed=seed,
            observers=[HybridRaceDetector()],
            max_steps=spec.max_steps,
        ).run(RandomScheduler(preemption="every"))
    return Table1Row(
        potential=campaign.potential_pairs,
        real=len(campaign.real_pairs),
        harmful=len(campaign.harmful_pairs),
        simple=len([kind for kind in simple if kind != "Deadlock"]),
        probability=campaign.mean_probability() if campaign.real_pairs else None,
        campaign=campaign,
    )


def table1_round(programs, offset: int, scratch: Path) -> RoundResult:
    result = RoundResult()
    for name in programs:
        spec = get(name)
        row = table1_row(
            spec,
            offset,
            trials=TABLE1_TRIALS,
            baseline_runs=TABLE1_BASELINE_RUNS,
            timing_runs=TABLE1_TIMING_RUNS,
        )
        result.ops += len(row.campaign.verdicts)
        result.count("detectors.pairs", row.potential)
        check_verdicts(result, spec, row.campaign)
    return result


def report_fingerprint(report) -> tuple:
    """A race report with each location reduced to its kind and name.

    A live run and the recording of the same seed allocate location uids
    from one process-wide counter, so the same location carries another
    uid in each; everything else in the report must be equal.
    """
    evidence = {}
    for pair, item in report.evidence.items():
        if item is None:
            evidence[pair] = None
            continue
        loc = item.location
        evidence[pair] = (
            item.tids,
            item.both_write,
            item.count,
            item.schedulable,
            type(loc).__name__,
            loc.name,
            getattr(loc, "fieldname", None),
            getattr(loc, "index", None),
        )
    return report.program, report.detector, report.truncated_locations, evidence


@contextmanager
def telemetry():
    """Metrics registry and campaign timeline both on, as the CLI's
    ``--metrics-out`` and ``--timeline-out`` turn them on; yields the
    timeline recorder."""
    with collecting(), recording_timeline() as recorder:
        yield recorder


@contextmanager
def watched_stores():
    """Collect every :class:`~repro.trace.TraceStore` opened in the block.

    ``detect_races`` opens its store internally; swapping the class it
    imports lets the caller read that store's ``stats`` afterwards.
    """
    base = repro.trace.TraceStore
    opened = []

    class WatchedStore(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    repro.trace.TraceStore = WatchedStore
    try:
        yield opened
    finally:
        repro.trace.TraceStore = base


def detect_store_round(programs, offset: int, scratch: Path) -> RoundResult:
    """Four-detector Phase 1 in three passes: live, cold store, warm store.

    The cold pass records each seed once and replays it; the warm pass
    must replay only.  Both must report what the live pass reported.
    """
    result = RoundResult()
    store = scratch / "store"
    seeds = range(offset, offset + DETECT_SEEDS)

    def detect(name, **kwargs):
        spec = get(name)
        return driver.detect_races(
            spec.build(),
            detector=list(DETECTORS),
            seeds=seeds,
            max_steps=spec.max_steps,
            **kwargs,
        )

    start = time.perf_counter()
    live = {name: detect(name) for name in programs}
    cold_start = time.perf_counter()
    cold = {name: detect(name, trace_dir=store) for name in programs}
    warm_start = time.perf_counter()
    warm = {}
    executions = {}
    for name in programs:
        with watched_stores() as opened:
            warm[name] = detect(name, trace_dir=store)
        executions[name] = sum(s.stats.executions for s in opened)
    end = time.perf_counter()
    result.count("trace.live_pass_s", cold_start - start)
    result.count("trace.cold_pass_s", warm_start - cold_start)
    result.count("trace.warm_pass_s", end - warm_start)
    result.count(
        "trace.store_mb",
        sum(path.stat().st_size for path in store.glob("*.jsonl")) / 2**20,
    )
    for name in programs:
        if executions[name]:
            result.fail(
                len(DETECTORS), f"{name}: warm pass executed {executions[name]} run(s)"
            )
        for detector in DETECTORS:
            expected = report_fingerprint(live[name][detector])
            result.attempted += 2
            result.count("detectors.pairs", len(live[name][detector]))
            if report_fingerprint(cold[name][detector]) != expected:
                result.fail(1, f"{name}/{detector}: cold report differs from live")
            if warm[name][detector] != cold[name][detector]:
                result.fail(1, f"{name}/{detector}: warm report differs from cold")
    result.ops = 3 * len(programs) * len(seeds) * len(DETECTORS)
    return result


def campaign_round(programs, offset: int, scratch: Path) -> RoundResult:
    """The full adaptive pipeline with a fresh checkpoint journal per program.

    A checkpoint routes ``jobs=1`` through the campaign supervisor's
    inline path, so this round exercises the schedule policy, the
    supervisor and the journal.
    """
    result = RoundResult()
    for name in programs:
        spec = get(name)
        journal = scratch / f"{name}.journal"
        campaign = driver.race_directed_test(
            spec.build(),
            detector=["hybrid", "shb"],
            phase1_seeds=[seed + offset for seed in spec.phase1_seeds],
            schedule="adaptive",
            trials=CAMPAIGN_TRIALS,
            chunk_size=CAMPAIGN_CHUNK,
            base_seed=offset,
            max_steps=spec.max_steps,
            checkpoint=journal,
        )
        result.ops += len(campaign.verdicts)
        result.count("detectors.pairs", campaign.potential_pairs)
        if journal.exists():  # no candidate pairs, no Phase-2 tasks to journal
            result.count("supervisor.journal_bytes", journal.stat().st_size)
        check_verdicts(result, spec, campaign)
    return result


def workloads() -> dict[str, Workload]:
    """The four workloads by name (built from the workload registry)."""
    rows = tuple(spec.name for spec in table1_workloads())
    rendezvous = tuple(name for name in rows if name not in STALL_ROWS)
    return {
        workload.name: workload
        for workload in (
            Workload("table1-stall", STALL_ROWS, table1_round),
            Workload("table1-rendezvous", rendezvous, table1_round),
            Workload("detect-store", rows, detect_store_round),
            Workload("campaign-adaptive", rows, campaign_round, telemetry=True),
        )
    }


def prepare(workload: Workload) -> None:
    """Set-up before timing: build every program of the workload once."""
    for name in workload.programs:
        get(name).build()
