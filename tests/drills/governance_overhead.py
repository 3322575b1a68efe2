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

One campaign takes a few hundredths of a second, too short to time
once, so all four are timed over :data:`ROUNDS` alternated rounds (the
order reverses every round) and the record reports medians.
``governed_overhead_ratio`` is the median of the per-round
governed/supervised ratios; the per-round list rides in the record.

Run it from the repository root::

    PYTHONPATH=src python tests/drills/governance_overhead.py --trials 60 --output FILE

It prints the comparison and writes it as JSON to ``FILE``; CI's
governance gate reads ``governed_overhead_ratio`` and
``verdicts_identical`` from it.
"""

import json
import os
import time
from statistics import median

from repro.core import fuzz_races
from repro.core.faults import FaultPlan, FaultSpec
from repro.obs import environment_metadata
from repro.workloads import figure1

PAIRS = [figure1.REAL_PAIR, figure1.FALSE_PAIR]

#: alternated rounds of the four campaigns (bare, supervised, governed,
#: faulted) behind every campaign time and ``governed_overhead_ratio``.
ROUNDS = 15

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


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--chunk-size", type=int, default=5)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    runs = {
        "bare": lambda: _bare(args.trials),
        "clean": lambda: _supervised(args.trials, chunk_size=args.chunk_size),
        "governed": lambda: _supervised(
            args.trials, chunk_size=args.chunk_size, memory_budget_mb=4096
        ),
        "faulted": lambda: _supervised(
            args.trials, faults=FAULTS, chunk_size=args.chunk_size
        ),
    }
    results = {name: [] for name in runs}
    times = {name: [] for name in runs}
    for round_index in range(ROUNDS):
        # Alternate the order, keeping supervised and governed adjacent.
        for name in reversed(runs) if round_index % 2 else runs:
            start = time.perf_counter()
            results[name].append(runs[name]())
            times[name].append(time.perf_counter() - start)
    round_ratios = [
        governed / clean
        for clean, governed in zip(times["clean"], times["governed"])
    ]
    bare_s, clean_s, governed_s, faulted_s = (
        median(times[name]) for name in ("bare", "clean", "governed", "faulted")
    )

    # Transient faults and a never-firing budget must both be invisible
    # in the aggregates.
    bare = results["bare"][0]
    every_run = [run for name in runs for run in results[name]]
    for pair in bare:
        for run in every_run:
            assert run[pair].trials == bare[pair].trials
            assert run[pair].times_created == bare[pair].times_created
            assert run[pair].exceptions == bare[pair].exceptions
            assert not run[pair].quarantined

    record = {
        "benchmark": "supervisor-resilience",
        "workload": "figure1",
        "pairs": len(PAIRS),
        "trials_per_pair": args.trials,
        "chunk_size": args.chunk_size,
        "cpu_count": os.cpu_count(),
        "env": environment_metadata(),
        "rounds": ROUNDS,
        #: medians over the alternated rounds.
        "bare_s": round(bare_s, 4),
        "supervised_clean_s": round(clean_s, 4),
        "governed_clean_s": round(governed_s, 4),
        "supervised_faulted_s": round(faulted_s, 4),
        "clean_overhead_ratio": round(clean_s / bare_s, 3) if bare_s else None,
        #: memory budget armed (never fires) on top of supervision — the
        #: resource-governance clean-path cost, as the median per-round
        #: ratio; the design bar is <= 1.05.
        "governed_overhead_ratio": round(median(round_ratios), 3),
        "governed_overhead_rounds": [round(r, 3) for r in round_ratios],
        "faulted_overhead_ratio": (
            round(faulted_s / bare_s, 3) if bare_s else None
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
