"""RaceFuzzer benchmark: end-to-end metrics per workload, per-layer on request.

One run (what a harness calls)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs rounds of the workload (see ``workloads.py``) for about ``S``
seconds and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced rounds,
prints the breakdown table and writes ``bench/out/<workload>.trace.json``.
The exit code is 1 when an output check failed.

A full set (every workload, 5 untraced runs with seeds N..N+4 in fresh
processes, then one traced run)::

    python3 bench/run.py [--seed N] [--seconds S] [--out FILE]

and a comparison of two full sets, metric by metric and workload by
workload, against the bounds in ``BENCHMARK.json``::

    python3 bench/run.py --compare A.json B.json

The program under test is the ``src/`` tree of the checkout holding this
file; nothing needs installing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"

#: untraced runs per workload in a full set.
REPEATS = 5
#: fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit with an error.

    The benchmark's own modules import ``repro``, so they are imported
    only after this has run.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"bench: imported repro from {repro.__file__}, not {src}")


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


# -- one run ---------------------------------------------------------------- #


def probe_setup(workload: str) -> float:
    """Wall time of a fresh process doing the run's set-up and nothing else."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload],
        cwd=ROOT,
        check=True,
    )
    return time.perf_counter() - start


def setup_only(workload: str) -> None:
    """What a run does before its first round: imports, builds, scratch dir."""
    from workloads import prepare, workloads

    prepare(workloads()[workload])
    OUT.mkdir(exist_ok=True)
    shutil.rmtree(tempfile.mkdtemp(dir=OUT))


def reference_s() -> float:
    """Time of a fixed pure-Python loop that runs no program code.

    The speed of the host the benchmark was written on drifts by 10-25%
    over tens of seconds, and the interpreter's with it.  A round's wall
    time divided by this loop's, timed just before and after the round,
    cancels about half of that drift, and no change to the program can
    make the loop faster.
    """
    start = time.perf_counter()
    cells: dict[int, int] = {}
    window: list[int] = []
    for i in range(200_000):
        cells[i & 1023] = i
        window.append(i)
        if len(window) > 64:
            window.clear()
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: rounds for about ``seconds``; returns the JSON result."""
    from workloads import prepare, round_offset, telemetry, workloads

    if not trace:
        setup_s = statistics.median(probe_setup(workload) for _ in range(SETUP_PROBES))
    spec = workloads()[workload]
    prepare(spec)
    OUT.mkdir(exist_ok=True)

    tracer = None
    # Untraced rounds only, or a cycle that also holds a traced round
    # and, for a workload with telemetry, a round with telemetry off.  A
    # traced run compares the kinds over few rounds, so its first round,
    # which pays for first use of code paths, is a warm-up.
    cycle = ["plain"]
    warmup = 0
    if trace:
        from layers import Tracer

        tracer = Tracer()
        cycle = ["plain", "quiet", "traced"] if spec.telemetry else ["plain", "traced"]
        warmup = 1
    walls: list[float] = []  # untraced rounds with the workload's telemetry
    relative: list[float] = []  # the same rounds' wall / reference_s()
    ops = attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if index >= warmup + len(cycle) and elapsed + elapsed / index > seconds:
            break
        kind = "warmup" if index < warmup else cycle[(index - warmup) % len(cycle)]
        scratch = Path(tempfile.mkdtemp(dir=OUT))
        try:
            telemetry_on = spec.telemetry and kind != "quiet"
            with telemetry() if telemetry_on else nullcontext() as recorder:
                body = partial(spec.run, spec.programs, round_offset(seed, index), scratch)
                reference = reference_s()
                if kind == "traced":
                    result, wall = tracer.run_round(body)
                else:
                    round_start = time.perf_counter()
                    result = body()
                    wall = time.perf_counter() - round_start
                reference = (reference + reference_s()) / 2
            if recorder is not None:
                result.count("obs.timeline_events", len(recorder.snapshot().events))
            if tracer is not None and kind != "warmup":
                tracer.note_round(kind, wall, reference, result.counts)
            if kind == "traced":
                tracer.probe(scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if kind == "plain":
            walls.append(wall)
            relative.append(wall / reference)
            ops += result.ops
        attempted += result.attempted
        failed += result.failed
        problems.extend(result.problems)
        index += 1

    for problem in problems:
        print(f"FAILED {problem}")
    if tracer is not None:
        metrics = tracer.metrics()
        print(f"breakdown of {workload}, {tracer.rounds} traced round(s):")
        print(tracer.breakdown())
        trace_file = OUT / f"{workload}.trace.json"
        tracer.write_chrome_trace(trace_file)
        print(f"wrote {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_ref": statistics.median(relative),
            "ops_per_ref": ops / sum(relative),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    listed = load_spec()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    print(
        f"{workload}: {index} round(s) in {time.perf_counter() - start:.1f} s, "
        f"median untraced round {statistics.median(walls):.3f} s"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


# -- a full set --------------------------------------------------------------- #


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh process; relays its report lines, returns its JSON."""
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__)),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    sys.stderr.write(proc.stderr)
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    return json.loads(lines[-1])


def full_set(seed: int, seconds: float, out: Path) -> bool:
    spec = load_spec()
    from workloads import workloads

    record = {
        "seed": seed,
        "seconds": seconds,
        "repeats": REPEATS,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "workloads": {},
    }
    ok = True
    for name in workloads():
        print(f"== {name}")
        runs = [run_child(name, seed + i, seconds, False) for i in range(REPEATS)]
        traced = run_child(name, seed, seconds, True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {
                "unit": metric["unit"], "median": median, "iqr": q3 - q1, "values": values,
            }
            print(f"  {metric['name']:<14}{median:>14.4f} {metric['unit']:<6} IQR {q3 - q1:.4f}")
        correct = all(r["correct"] for r in [*runs, traced])
        ok = ok and correct
        record["workloads"][name] = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in [*runs, traced]),
            "failed": sum(r["failed"] for r in [*runs, traced]),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return ok


# -- comparing two full sets --------------------------------------------------- #


def compare(base_path: Path, new_path: Path) -> bool:
    """One row per (metric, workload); False when any metric regressed.

    A metric is *unresolved* when either side's IQR, as a share of its
    median, is wider than the bound, unless every new run beats every
    base run.
    """
    base = json.loads(base_path.read_text())["workloads"]
    new = json.loads(new_path.read_text())["workloads"]
    ok = True
    print(f"{'metric':<14}{'workload':<20}{'base':>12}{'new':>12}{'worse':>9}  verdict")
    for metric in load_spec()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for workload in sorted(base.keys() & new.keys()):
            a = base[workload]["end_to_end"][name]
            b = new[workload]["end_to_end"][name]
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = max(a["iqr"] / a["median"], b["iqr"] / b["median"])
            beats_all = all(sign * (x - y) < 0 for x in b["values"] for y in a["values"])
            if spread > bound and not beats_all:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                ok = False
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            print(
                f"{name:<14}{workload:<20}{a['median']:>12.4f}{b['median']:>12.4f}"
                f"{worse:>+9.1%}  {verdict}"
            )
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload (default: a full set)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results.json",
                        help="where a full set writes its record")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return 0 if compare(*args.compare) else 1
    use_checkout_source()
    if args.setup_only:
        setup_only(args.workload)
        return 0
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload is None:
        return 0 if full_set(args.seed, seconds, args.out) else 1
    from workloads import workloads

    if args.workload not in workloads():
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads())}")
    result = measure(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
