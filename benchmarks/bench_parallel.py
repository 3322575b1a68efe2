"""Parallel campaign engine: serial-vs-parallel wall clock, merge overhead.

Measures the multi-pair Phase-2 campaign (the paper's "embarrassingly
parallel" workload) serially and across a process pool, plus the cost of
the parent-side deterministic merge, and records the observed speedup.

Two entry points:

* under pytest (``pytest benchmarks/bench_parallel.py --benchmark-only``)
  each configuration is a ``benchmark`` case;
* as a script (``python benchmarks/bench_parallel.py [--jobs N]``) it
  prints the comparison and writes a ``BENCH_parallel.json`` speedup
  record for the perf trajectory.

Speedup scales with available cores: on a single-core container the pool
only adds overhead, so the JSON record carries ``cpu_count`` alongside
the ratio to keep the trajectory interpretable.
"""

import json
import os
import time

from repro.core import fuzz_races
from repro.core.parallel import FuzzTask, run_fuzz_task
from repro.core.results import PairVerdict
from repro.core.schedule import chunk_spans
from repro.obs import environment_metadata
from repro.workloads import figure1

PAIRS = [figure1.REAL_PAIR, figure1.FALSE_PAIR]


def _campaign(jobs, trials, chunk_size=5):
    return fuzz_races(
        figure1.build(),
        PAIRS,
        trials=trials,
        jobs=jobs,
        chunk_size=chunk_size,
    )


def test_serial_campaign(benchmark, quick_trials):
    verdicts = benchmark(lambda: _campaign(jobs=1, trials=quick_trials))
    assert verdicts[figure1.REAL_PAIR].is_real


def test_parallel_campaign(benchmark, quick_trials):
    jobs = min(4, os.cpu_count() or 1)
    verdicts = benchmark(lambda: _campaign(jobs=jobs, trials=quick_trials))
    benchmark.extra_info["jobs"] = jobs
    assert verdicts[figure1.REAL_PAIR].is_real


def test_merge_overhead(benchmark):
    """Parent-side reduction cost: merging chunk verdicts is ~free."""
    chunks = [
        run_fuzz_task(
            FuzzTask(workload="figure1", pair=figure1.REAL_PAIR,
                     seed_start=start, count=count)
        )
        for start, count in chunk_spans(0, 40, 5)
    ]

    def merge():
        merged = PairVerdict(pair=figure1.REAL_PAIR)
        for chunk in chunks:
            merged.merge(chunk)
        return merged

    merged = benchmark(merge)
    assert merged.trials == 40


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    parser.add_argument("--chunk-size", type=int, default=5)
    parser.add_argument("--output", default="BENCH_parallel.json")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    serial = _campaign(jobs=1, trials=args.trials, chunk_size=args.chunk_size)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = _campaign(
        jobs=args.jobs, trials=args.trials, chunk_size=args.chunk_size
    )
    parallel_s = time.perf_counter() - start

    # The acceptance bar: identical aggregates, whatever the fan-out.
    for pair in serial:
        assert serial[pair].trials == parallel[pair].trials
        assert serial[pair].times_created == parallel[pair].times_created
        assert serial[pair].exceptions == parallel[pair].exceptions

    chunks = [
        run_fuzz_task(
            FuzzTask(workload="figure1", pair=figure1.REAL_PAIR,
                     seed_start=chunk_start, count=count)
        )
        for chunk_start, count in chunk_spans(0, args.trials, args.chunk_size)
    ]
    start = time.perf_counter()
    merged = PairVerdict(pair=figure1.REAL_PAIR)
    for chunk in chunks:
        merged.merge(chunk)
    merge_s = time.perf_counter() - start

    record = {
        "benchmark": "parallel-campaign",
        "workload": "figure1",
        "pairs": len(PAIRS),
        "trials_per_pair": args.trials,
        "chunk_size": args.chunk_size,
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "env": environment_metadata(),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "merge_overhead_s": round(merge_s, 6),
        "verdicts_identical": True,
    }
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
