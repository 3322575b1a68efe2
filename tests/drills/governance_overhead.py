"""Supervisor overhead: what does the failure story cost a clean campaign?

The campaign supervisor wraps every task in a deadline/retry/quarantine
envelope and (optionally) a checkpoint journal.  On a fault-free campaign
all of that machinery is pure overhead, so this script measures the same
Phase-2 campaign four ways:

* the default inline path (default retry policy, no deadline, 25-trial
  chunks);
* the supervised inline path (deadline + retry armed, no faults fire);
* the governed inline path (supervision plus a per-task memory budget
  that never fires — the resource-governance clean path);
* a supervised run with injected transient faults (one crash, one hang,
  one malformed result), which pays real retry work.

It also times the trace store's durability machinery on its clean path:
recording with the always-on CRC32 checksum, and recording under a disk
budget that never evicts (every publish pays one stat pass).

Run it from the repository root::

    PYTHONPATH=src python tests/drills/governance_overhead.py --trials 60 --output FILE

It prints the comparison and writes it as JSON to ``FILE``; CI's
governance gate reads ``governed_overhead_ratio`` and
``verdicts_identical`` from it.
"""

import json
import os
import time

from repro.core import fuzz_races
from repro.core.faults import FaultPlan, FaultSpec
from repro.obs import environment_metadata
from repro.workloads import figure1

PAIRS = [figure1.REAL_PAIR, figure1.FALSE_PAIR]

#: Transient faults only — every retry succeeds, nothing is quarantined,
#: so the faulted campaign's verdicts still match the bare run.
FAULTS = FaultPlan(
    [
        FaultSpec(kind="crash", index=0, attempts=1),
        FaultSpec(kind="hang", index=2, attempts=1, delay=0.3),
        FaultSpec(kind="malformed", index=4, attempts=1),
    ]
)


def _bare(trials):
    return fuzz_races(figure1.build(), PAIRS, trials=trials)


def _supervised(trials, faults=None, chunk_size=5, memory_budget_mb=None):
    return fuzz_races(
        figure1.build(),
        PAIRS,
        trials=trials,
        chunk_size=chunk_size,
        deadline=10.0,
        retries=2,
        faults=faults,
        memory_budget_mb=memory_budget_mb,
    )


def _store_round(trace_dir, seeds, **store_kwargs):
    """Record ``seeds`` fresh traces and integrity-read each one back."""
    from repro.trace import TraceStore, detect_key, verify_trace

    store = TraceStore(trace_dir, **store_kwargs)
    for seed in range(seeds):
        path = store.ensure(
            detect_key("figure1", seed, max_steps=10_000), figure1.build()
        )
        verify_trace(path)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--chunk-size", type=int, default=5)
    parser.add_argument(
        "--store-seeds",
        type=int,
        default=8,
        help="fresh traces per store-overhead round",
    )
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    bare = _bare(args.trials)
    bare_s = time.perf_counter() - start

    start = time.perf_counter()
    clean = _supervised(args.trials, chunk_size=args.chunk_size)
    clean_s = time.perf_counter() - start

    start = time.perf_counter()
    governed = _supervised(
        args.trials, chunk_size=args.chunk_size, memory_budget_mb=4096
    )
    governed_s = time.perf_counter() - start

    start = time.perf_counter()
    faulted = _supervised(
        args.trials, faults=FAULTS, chunk_size=args.chunk_size
    )
    faulted_s = time.perf_counter() - start

    # Transient faults and a never-firing budget must both be invisible
    # in the aggregates.
    for pair in bare:
        for run in (clean, governed, faulted):
            assert run[pair].trials == bare[pair].trials
            assert run[pair].times_created == bare[pair].times_created
            assert run[pair].exceptions == bare[pair].exceptions
            assert not run[pair].quarantined

    # Store durability clean path: checksummed record + verify read,
    # without and with a (never-evicting) disk budget.
    import tempfile

    with tempfile.TemporaryDirectory() as warm_dir:
        _store_round(warm_dir, 1)  # imports + codec warm-up, untimed
    with tempfile.TemporaryDirectory() as plain_dir:
        start = time.perf_counter()
        _store_round(plain_dir, args.store_seeds)
        store_plain_s = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as quota_dir:
        start = time.perf_counter()
        _store_round(quota_dir, args.store_seeds, max_bytes=1 << 30)
        store_quota_s = time.perf_counter() - start

    record = {
        "benchmark": "supervisor-resilience",
        "workload": "figure1",
        "pairs": len(PAIRS),
        "trials_per_pair": args.trials,
        "chunk_size": args.chunk_size,
        "cpu_count": os.cpu_count(),
        "env": environment_metadata(),
        "bare_s": round(bare_s, 4),
        "supervised_clean_s": round(clean_s, 4),
        "governed_clean_s": round(governed_s, 4),
        "supervised_faulted_s": round(faulted_s, 4),
        "clean_overhead_ratio": round(clean_s / bare_s, 3) if bare_s else None,
        #: memory budget armed (never fires) on top of supervision — the
        #: resource-governance clean-path cost; the design bar is <= 1.05.
        "governed_overhead_ratio": (
            round(governed_s / clean_s, 3) if clean_s else None
        ),
        "faulted_overhead_ratio": (
            round(faulted_s / bare_s, 3) if bare_s else None
        ),
        "store_seeds": args.store_seeds,
        "store_record_verify_s": round(store_plain_s, 4),
        "store_quota_record_verify_s": round(store_quota_s, 4),
        #: disk budget armed (never evicts) on top of checksummed
        #: record+verify — the quota clean-path cost.
        "store_quota_overhead_ratio": (
            round(store_quota_s / store_plain_s, 3) if store_plain_s else None
        ),
        "injected_faults": [
            f"{s.phase}:{s.index}:{s.kind}" for s in FAULTS.specs
        ],
        "verdicts_identical": True,
    }
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
