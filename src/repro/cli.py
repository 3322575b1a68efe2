"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``     — registered benchmark workloads, with their paper rows;
* ``run``      — one execution of a workload under a passive scheduler;
* ``detect``   — Phase 1: report potentially racing statement pairs
  (``--trace-dir`` fills a trace store: each seed's execution is recorded
  once and every report replays it; a corrupt entry is quarantined and
  re-recorded);
* ``fuzz``     — the full two-phase RaceFuzzer campaign;
* ``replay``   — re-run one (pair, seed) with a rendered interleaving,
  rebuilt from the seed alone;
* ``stats``    — render a ``--metrics-out`` run report as tables:
  counters, the detector funnel and each fuzzed pair's outcome;
* ``trace-export`` — render a run report's timeline as Chrome
  trace-event JSON for Perfetto / chrome://tracing;
* ``table1``   — regenerate Table 1 (:mod:`repro.harness.table1`);
* ``figure2``  — the Figure 2 probability sweep
  (:mod:`repro.harness.figure2_prob`).

The run report (``--metrics-out``) is the one telemetry document:
``stats`` and ``trace-export`` both load and validate it through one
helper.
"""

from __future__ import annotations

import argparse
import os
import sys

from contextlib import nullcontext

from repro.core import (
    baseline_scheduler,
    detect_races,
    make_schedule,
    parse_fault_plan,
    race_directed_test,
)
from repro.core.driver import open_campaign
from repro.core.parallel import ParallelCampaign, check_detectors
from repro.core.replay import replay_race
from repro.core.schedulers import BASELINE_SCHEDULERS
from repro.core.traceview import format_replay
from repro.detectors import available_detectors
from repro.obs import (
    ProgressPrinter,
    chrome_trace,
    collecting,
    load_run_report,
    render_stats_table,
    validate_run_report,
    write_chrome_trace,
    write_run_report,
)
from repro.runtime import Execution
from repro.workloads import all_workloads, get


def _telemetry_scope(args, *, also: bool = False):
    """One telemetry scope for a command's body: on when ``--metrics-out``
    (or ``also``) asks for it, else a null scope yielding ``None``."""
    wanted = also or args.metrics_out is not None
    return collecting() if wanted else nullcontext()


def _checked_detectors(names: list[str]) -> list[str] | None:
    """The engine's detector check (:func:`check_detectors`) as an exit-2
    usage error: None (after printing why) means reject.

    Duplicates collapse (first occurrence wins), matching the
    one-observer-per-name protocol.
    """
    try:
        return list(check_detectors(list(dict.fromkeys(names))))
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return None


def _bounded(convert, low, *, strict: bool = False):
    """An argparse ``type=``: ``convert(text)``, rejected below ``low``
    (or at it, when ``strict``) with a usage error instead of a traceback
    from the engine's own check of the same bound."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            )
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text!r}"
            )
        return value

    return parse


#: trials, retries, and jobs (0 = one worker per core).
COUNT = _bounded(int, 0)
#: chunk sizes, trial budgets, seed counts.
POSITIVE_INT = _bounded(int, 1)
#: deadlines, time budgets, memory budgets.
POSITIVE_FLOAT = _bounded(float, 0, strict=True)


def _fault_plan(text: str):
    """An argparse ``type=`` for ``--fault-plan``: a bad spec, an unknown
    phase or kind included, is a usage error rather than a traceback."""
    try:
        return parse_fault_plan(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


#: each engine setting (see :class:`~repro.core.parallel.ParallelCampaign`)
#: and the parsed flag that carries it.
_ENGINE_FLAGS = {
    "jobs": "jobs",
    "chunk_size": "chunk_size",
    "deadline": "deadline",
    "retries": "retries",
    "checkpoint": "checkpoint",
    "faults": "fault_plan",
    "memory_budget_mb": "memory_budget",
}


def _engine_settings(args) -> dict:
    """The engine settings of a command's flags: each one the command has
    and was given (an omitted flag leaves the engine's default), plus a
    stderr progress printer under ``--progress``."""
    settings = {
        setting: getattr(args, flag)
        for setting, flag in _ENGINE_FLAGS.items()
        if getattr(args, flag, None) is not None
    }
    if getattr(args, "progress", False):
        settings["on_progress"] = ProgressPrinter(sys.stderr)
    return settings


def _settings_misused(args) -> bool:
    """The engine's checks of a campaign's schedule (:func:`make_schedule`)
    and settings (:class:`ParallelCampaign`, which starts no pool until a
    batch runs) as an exit-2 usage error, made before any task runs: True
    (after printing why) means reject."""
    try:
        make_schedule(
            args.schedule,
            trial_budget=args.trial_budget,
            time_budget_s=args.time_budget,
        )
        ParallelCampaign(**_engine_settings(args)).close()
    except ValueError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return True
    return False


def _cmd_list(args) -> int:
    for spec in all_workloads():
        row = ""
        if spec.paper is not None:
            row = (
                f"  [paper: {spec.paper.hybrid_races} potential, "
                f"{spec.paper.real_races} real, "
                f"{spec.paper.exceptions_rf} exceptions]"
            )
        print(f"{spec.name:12s} {spec.description}{row}")
    return 0


def _cmd_run(args) -> int:
    spec = get(args.workload)
    with _telemetry_scope(args) as telemetry:
        result = Execution(
            spec.build(), seed=args.seed, max_steps=spec.max_steps
        ).run(baseline_scheduler(args.scheduler))
    print(result)
    if telemetry is not None:
        write_run_report(
            args.metrics_out, telemetry.snapshot(), command="run",
            workload=spec.name,
        )
    return 0 if not result.crashes and not result.deadlock else 1


def _cmd_detect(args) -> int:
    spec = get(args.workload)
    detectors = _checked_detectors(args.detector or ["hybrid"])
    if detectors is None:
        return 2
    seeds = range(args.seeds)
    # The trace-store stats line rides on the telemetry stream, so a
    # --trace-dir run collects even without an output flag.  The engine is
    # opened here, as detect_races would, so its quarantined tasks can be
    # reported.
    with _telemetry_scope(args, also=args.trace_dir is not None) as telemetry:
        with open_campaign(
            {spec.name: spec.build()}, **_engine_settings(args)
        ) as (engine, [name]):
            try:
                report = engine.detect(
                    name,
                    detector=detectors[0] if len(detectors) == 1 else detectors,
                    seeds=seeds,
                    max_steps=spec.max_steps,
                    trace_dir=args.trace_dir,
                )
            except ValueError as error:  # rejected before any task ran
                print(f"repro detect: {error}", file=sys.stderr)
                return 2
            failures = list(engine.failures)
    if isinstance(report, dict):
        # One section per requested detector, all fed by the same
        # recorded execution(s) of each seed.
        for index, name in enumerate(detectors):
            if index:
                print()
            print(f"== {name}")
            print(report[name])
    else:
        print(report)
    if telemetry is not None:
        snapshot = telemetry.snapshot()
        if args.metrics_out is not None:
            write_run_report(
                args.metrics_out, snapshot, command="detect", workload=spec.name
            )
        if args.trace_dir is not None:
            c = snapshot.counters
            print(
                f"trace store: {c.get('trace.store_hits', 0)} hit(s), "
                f"{c.get('trace.store_misses', 0)} miss(es), "
                f"{c.get('trace.store_executions', 0)} recorded "
                f"execution(s), {c.get('trace.store_bytes', 0)} byte(s) "
                f"written",
                file=sys.stderr,
            )
    # Exit 3, as fuzz does: a quarantined seed's coverage is missing from
    # the report, however complete it looks.
    if failures:
        named = ", ".join(str(seeds[failure.index]) for failure in failures)
        print(
            f"repro detect: {len(failures)} Phase-1 seed task(s) quarantined "
            f"(seed(s) {named}); the report lacks their executions",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        return 3
    return 0


def _cmd_fuzz(args) -> int:
    spec = get(args.workload)
    detectors = _checked_detectors(args.detector or ["hybrid"])
    if detectors is None:
        return 2
    if _settings_misused(args):
        return 2
    with _telemetry_scope(args) as telemetry:
        campaign = race_directed_test(
            spec.build(),
            detector=detectors[0] if len(detectors) == 1 else detectors,
            trials=args.trials,
            base_seed=args.seed,
            phase1_seeds=spec.phase1_seeds,
            max_steps=spec.max_steps,
            schedule=args.schedule,
            trial_budget=args.trial_budget,
            time_budget=args.time_budget,
            **_engine_settings(args),
        )
    if telemetry is not None:
        # A checkpoint-resumed campaign accumulates into the prior report
        # rather than overwriting it (mirrors the journal semantics); the
        # timeline section dedup-unions the same way.
        write_run_report(
            args.metrics_out,
            telemetry.snapshot(),
            command="fuzz",
            workload=spec.name,
            merge_existing=args.checkpoint is not None,
        )
    print(campaign)
    if campaign.harmful_pairs:
        print()
        print("harmful pairs (exceptions attributed to the race):")
        for pair in campaign.harmful_pairs:
            verdict = campaign.verdict_for(pair)
            kinds = ", ".join(sorted(verdict.exceptions))
            print(f"  {pair}: {kinds}")
    # CI-gate exit discipline: 1 = a real race was confirmed, 3 = no race
    # confirmed but some task ended quarantined (verdicts incomplete),
    # 0 = clean campaign with full coverage.
    if campaign.real_pairs:
        return 1
    if campaign.quarantined:
        return 3
    return 0


def _cmd_replay(args) -> int:
    spec = get(args.workload)
    report = detect_races(
        spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
    )
    pairs = report.pairs
    if not 0 <= args.pair < len(pairs):
        print(
            f"pair index {args.pair} out of range; {len(pairs)} pair(s):",
            file=sys.stderr,
        )
        for index, pair in enumerate(pairs):
            print(f"  [{index}] {pair}", file=sys.stderr)
        return 2
    pair = pairs[args.pair]
    seed = args.seed
    if args.find_crash:
        for candidate in range(args.seed, args.seed + args.find_crash):
            probe = replay_race(
                spec.build(), pair, seed=candidate, max_steps=spec.max_steps
            )
            if probe.outcome.crashes:
                seed = candidate
                break
        else:
            print(
                f"no crashing seed for {pair} in "
                f"[{args.seed}, {args.seed + args.find_crash})",
                file=sys.stderr,
            )
            return 1
    replayed = replay_race(spec.build(), pair, seed=seed, max_steps=spec.max_steps)
    print(f"replaying {spec.name}, pair {pair}, seed {seed}:")
    print()
    print(format_replay(replayed, pair=pair, max_events=args.max_events))
    return 0


def _load_report(path) -> dict | None:
    """Load and validate a run report for ``stats`` and ``trace-export``;
    prints the problem and returns None on failure."""
    try:
        report = load_run_report(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read run report {path}: {exc}", file=sys.stderr)
        return None
    errors = validate_run_report(report)
    for error in errors:
        print(f"invalid run report: {error}", file=sys.stderr)
    return None if errors else report


def _cmd_stats(args) -> int:
    report = _load_report(args.path)
    if report is None:
        return 2
    try:
        print(render_stats_table(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream head/pager closed the pipe early; redirect stdout to
        # devnull so interpreter shutdown doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_trace_export(args) -> int:
    import json as _json

    report = _load_report(args.path)
    if report is None:
        return 2
    section = report["timeline"]
    if args.out is not None:
        trace = write_chrome_trace(args.out, section)
        print(
            f"{len(trace['traceEvents'])} trace event(s) -> {args.out} "
            "(load in ui.perfetto.dev or chrome://tracing)",
            file=sys.stderr,
        )
    else:
        print(_json.dumps(chrome_trace(section), indent=1))
    return 0


def _cmd_table1(args) -> int:
    from repro.harness.table1 import (
        build_table,
        render_comparison,
        render_measured,
    )

    if _settings_misused(args):
        return 2
    sizes = {}
    if args.quick:
        sizes = {"trials": 20, "baseline_runs": 20, "timing_runs": 2}
    if args.trials is not None:
        sizes["trials"] = args.trials
    specs = [get(name) for name in args.names] if args.names else None
    with _telemetry_scope(args) as telemetry:
        rows = build_table(
            specs,
            schedule=args.schedule,
            trial_budget=args.trial_budget,
            time_budget=args.time_budget,
            **sizes,
            **_engine_settings(args),
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
    return 0


def _cmd_figure2(args) -> int:
    from repro.harness.figure2_prob import render_sweep, sweep

    print(render_sweep(sweep(args.paddings, runs=args.runs)))
    return 0


def _paddings(text: str) -> tuple[int, ...]:
    """An argparse ``type=``: comma-separated non-negative paddings."""
    return tuple(COUNT(padding) for padding in text.split(","))


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    """The Phase-2 trial-allocation flags ``fuzz`` and ``table1`` share."""
    parser.add_argument(
        "--schedule",
        choices=("fixed", "adaptive"),
        default="fixed",
        help="Phase-2 trial allocation policy: 'fixed' spends exactly "
        "--trials per pair (the paper's protocol; Table 1 numbers are only "
        "comparable under it); 'adaptive' reallocates a global budget "
        "toward pairs whose posterior race probability is still undecided, "
        "early-stopping hopeless ones (deterministic per seed)",
    )
    parser.add_argument(
        "--trial-budget",
        type=POSITIVE_INT,
        default=None,
        metavar="N",
        help="adaptive only: global cap on a campaign's total Phase-2 "
        "trials across all pairs (default: --trials per pair)",
    )
    parser.add_argument(
        "--time-budget",
        type=POSITIVE_FLOAT,
        default=None,
        metavar="SECONDS",
        help="adaptive only: wall-clock cap on a campaign's Phase 2; no new "
        "chunks are scheduled past it (already-running chunks finish)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RaceFuzzer: race-directed random testing (PLDI 2008)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list benchmark workloads").set_defaults(
        handler=_cmd_list
    )

    run_parser = commands.add_parser("run", help="one passive execution")
    run_parser.add_argument("workload")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--scheduler", choices=tuple(BASELINE_SCHEDULERS), default="random"
    )
    run_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a versioned JSON run report of the execution's metrics "
        "and timeline events (read it with `repro stats` or "
        "`repro trace-export`)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    detect_parser = commands.add_parser("detect", help="Phase 1 race detection")
    detect_parser.add_argument("workload")
    detect_parser.add_argument(
        "--detector",
        action="append",
        default=None,
        metavar="NAME",
        help="detector to run (default hybrid); repeat the flag to run "
        "several — each seed then executes once with every requested "
        "detector attached, and the output has one section per detector. "
        f"Names: {', '.join(available_detectors())}",
    )
    detect_parser.add_argument("--seeds", type=POSITIVE_INT, default=3)
    detect_parser.add_argument(
        "--jobs",
        type=COUNT,
        help="worker processes for seed runs (0 = one per core)",
    )
    detect_parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="record-once trace cache: each seed executes at most once "
        "ever (across invocations); reports come from replaying the "
        "stored traces",
    )
    detect_parser.add_argument(
        "--deadline",
        type=POSITIVE_FLOAT,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget (routes through the campaign "
        "supervisor, as for fuzz)",
    )
    detect_parser.add_argument(
        "--retries",
        type=COUNT,
        metavar="N",
        help="re-attempts per failing task before quarantine (default 2)",
    )
    detect_parser.add_argument(
        "--fault-plan",
        type=_fault_plan,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, as for fuzz: comma-separated "
        "detect:index:kind[:attempts[:arg]] entries (kinds include crash, "
        "hang, malformed, memory_hog, disk_full, and corrupt_trace, which "
        "damages the stored trace the task is about to read)",
    )
    detect_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a versioned JSON run report of the campaign's metrics "
        "and timeline events (per-seed detect events, store hits/misses)",
    )
    detect_parser.set_defaults(handler=_cmd_detect)

    fuzz_parser = commands.add_parser("fuzz", help="two-phase RaceFuzzer campaign")
    fuzz_parser.add_argument("workload")
    fuzz_parser.add_argument(
        "--detector",
        action="append",
        default=None,
        metavar="NAME",
        help="Phase-1 detector (default hybrid); repeat the flag to feed "
        "Phase 2 the union of several detectors' candidate pairs from "
        "the same Phase-1 executions",
    )
    fuzz_parser.add_argument("--trials", type=COUNT, default=100)
    _add_schedule_flags(fuzz_parser)
    fuzz_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for Phase-2 trials (and the adaptive schedule's "
        "Thompson draws)",
    )
    fuzz_parser.add_argument(
        "--jobs",
        type=COUNT,
        help="worker processes for both phases (0 = one per core)",
    )
    fuzz_parser.add_argument(
        "--chunk-size",
        type=POSITIVE_INT,
        help="Phase-2 trials per worker task",
    )
    fuzz_parser.add_argument(
        "--deadline",
        type=POSITIVE_FLOAT,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget; a chunk that overruns is retried "
        "and eventually quarantined (distinct from the abstract max_steps)",
    )
    fuzz_parser.add_argument(
        "--retries",
        type=COUNT,
        metavar="N",
        help="re-attempts per failing task before quarantine (default 2)",
    )
    fuzz_parser.add_argument(
        "--memory-budget",
        type=POSITIVE_FLOAT,
        default=None,
        metavar="MIB",
        help="per-task resident-set growth budget in MiB; a task that "
        "exceeds it fails with kind 'memory' (retried, then quarantined)",
    )
    fuzz_parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="append-only JSONL journal; a killed campaign restarted with "
        "the same path re-executes only its unfinished tasks",
    )
    fuzz_parser.add_argument(
        "--fault-plan",
        type=_fault_plan,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for resilience testing: "
        "comma-separated phase:index:kind[:attempts[:arg]] entries "
        "(arg = MiB for memory_hog, seconds otherwise), e.g. "
        "'fuzz:3:crash,fuzz:7:hang:1:0.5,fuzz:9:memory_hog:1:64'",
    )
    fuzz_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a versioned JSON run report of the campaign's metrics "
        "and timeline (trial/chunk spans, schedule rounds with their "
        "Thompson draws, per-pair outcomes, task retries and quarantines; "
        "read it with `repro stats` or `repro trace-export`); "
        "with --checkpoint, a resumed run merges into the prior report",
    )
    fuzz_parser.add_argument(
        "--progress",
        action="store_true",
        help="print throttled progress lines (settled/scheduled chunks, "
        "confirms, ETA over remaining scheduled work) to stderr",
    )
    fuzz_parser.set_defaults(handler=_cmd_fuzz)

    replay_parser = commands.add_parser(
        "replay", help="replay one (pair, seed) with the interleaving"
    )
    replay_parser.add_argument("workload")
    replay_parser.add_argument("--pair", type=int, default=0, help="pair index")
    replay_parser.add_argument("--seed", type=int, default=0)
    replay_parser.add_argument("--max-events", type=COUNT, default=200)
    replay_parser.add_argument(
        "--find-crash",
        type=COUNT,
        nargs="?",
        const=100,
        default=0,
        metavar="N",
        help="scan up to N seeds (default 100) for an error-revealing "
        "schedule and replay that one",
    )
    replay_parser.set_defaults(handler=_cmd_replay)

    stats_parser = commands.add_parser(
        "stats",
        help="render a run report as tables: metrics, the detector funnel "
        "per workload and each fuzzed pair's outcome",
    )
    stats_parser.add_argument("path", help="a --metrics-out run report")
    stats_parser.set_defaults(handler=_cmd_stats)

    export_parser = commands.add_parser(
        "trace-export",
        help="render a run report's timeline as Chrome trace-event JSON "
        "(Perfetto)",
    )
    export_parser.add_argument("path", help="a --metrics-out run report")
    export_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the trace JSON here instead of stdout",
    )
    export_parser.set_defaults(handler=_cmd_trace_export)

    table_parser = commands.add_parser(
        "table1", help="regenerate Table 1 (experiments E1-E5)"
    )
    table_parser.add_argument("names", nargs="*", help="benchmarks (default: all)")
    table_parser.add_argument("--trials", type=COUNT, default=None)
    table_parser.add_argument(
        "--quick", action="store_true", help="20 trials, 20 baseline runs"
    )
    _add_schedule_flags(table_parser)
    table_parser.add_argument(
        "--jobs",
        type=COUNT,
        help="run every row's tasks on N supervised worker processes "
        "(0 = per core)",
    )
    table_parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="JSONL journal of completed fuzzing chunks; restart with the "
        "same path to resume a killed table run",
    )
    table_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a versioned JSON run report of the whole table run, "
        "timeline events included (read it with `repro stats` or "
        "`repro trace-export`); with --checkpoint, a "
        "resumed run merges into the prior report",
    )
    table_parser.add_argument(
        "--progress",
        action="store_true",
        help="print throttled progress lines (settled/scheduled tasks of "
        "each phase, over every row) to stderr",
    )
    table_parser.set_defaults(handler=_cmd_table1)

    figure_parser = commands.add_parser(
        "figure2", help="race-creation probability vs padding (experiment E7)"
    )
    figure_parser.add_argument("--runs", type=POSITIVE_INT, default=100)
    figure_parser.add_argument(
        "--paddings",
        type=_paddings,
        default="0,2,5,10,20,40",
        help="comma-separated padding distances (non-negative integers)",
    )
    figure_parser.set_defaults(handler=_cmd_figure2)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
