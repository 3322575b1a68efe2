"""The same seeds give the same campaign, however the campaign runs.

A campaign here is Phase 1 (``detect_races``) then Phase 2
(``fuzz_races``) on one workload, with telemetry on.  Its result is the
Phase-1 pairs with their evidence counts, the Phase-2 verdict signatures,
the deterministic projection of the timeline, and the ``interp.*`` /
``fuzz.*`` / ``trace.*`` counters, gauges and histograms.
``trace.store_bytes`` is left out: location uids are per process, so the
same trace differs in size between processes.

Each variant changes one way of running the campaign: a process pool,
another chunk size, or a resume from a half-written checkpoint journal.
It must give exactly the result of the inline run with the same trace
mode (no store, a cold store, or a warm one).  Across trace modes all but
the metrics must agree as well; a warm store executes nothing, so its
``interp.*`` counters differ by design.
"""

import pytest

from repro.core import FaultPlan, FaultSpec, detect_races, fuzz_races
from repro.obs import collecting
from repro.obs.timeline import deterministic_section
from repro.workloads import get

WORKLOADS = ["figure1", "philosophers"]
TRIALS = 8
#: histograms of wall-clock seconds: only their observation count is
#: schedule-determined.
TIMING_HISTOGRAMS = ("fuzz.trial_wall_s",)
#: timeline kinds that describe the chunking itself; chunk-size variants
#: compare the rest of the timeline.
CHUNKING_KINDS = ("schedule.bind", "schedule.round", "chunk")
VARIANTS = {
    "pool": dict(jobs=2),
    "pool-chunk1": dict(jobs=2, chunk_size=1),
    "chunk8": dict(chunk_size=8),
    "resume": dict(resume=True),
}


def _metrics(snapshot):
    def ours(name):
        return name.split(".", 1)[0] in ("interp", "fuzz", "trace")

    counters = {n: v for n, v in snapshot.counters.items() if ours(n)}
    counters.pop("trace.store_bytes", None)
    histograms = {
        n: h.count if n in TIMING_HISTOGRAMS else h
        for n, h in snapshot.histograms.items()
        if ours(n)
    }
    gauges = {n: v for n, v in snapshot.gauges.items() if ours(n)}
    return counters, gauges, histograms


def _campaign(workload, scratch, *, store=None, jobs=1, chunk_size=2, resume=False):
    spec = get(workload)
    phase1 = dict(seeds=spec.phase1_seeds, max_steps=spec.max_steps, jobs=jobs)
    if store is not None:
        phase1["trace_dir"] = scratch / "store"
    if store == "warm":
        detect_races(spec.build(), **phase1)
    phase2 = dict(
        trials=TRIALS, base_seed=100, max_steps=spec.max_steps, jobs=jobs,
        chunk_size=chunk_size,
    )
    with collecting() as telemetry:
        report = detect_races(spec.build(), **phase1)
        if resume:
            # A run killed halfway: only its first half of chunks reached
            # the journal, then a torn line.  The resumed run executes the
            # rest.
            phase2["checkpoint"] = scratch / "journal.jsonl"
            tasks = len(report.pairs) * TRIALS // chunk_size
            killed = FaultPlan(
                FaultSpec(kind="crash", index=i, attempts=99)
                for i in range(tasks // 2, tasks)
            )
            fuzz_races(spec.build(), report.pairs, faults=killed, retries=0, **phase2)
            with open(phase2["checkpoint"], "a") as journal:
                journal.write('{"key": "torn')
        verdicts = fuzz_races(spec.build(), report.pairs, **phase2)
    snapshot = telemetry.snapshot()
    return {
        "phase1": (
            {str(p): (e.count, e.both_write) for p, e in report.evidence.items()},
            report.truncated_locations,
        ),
        "verdicts": {
            str(pair): (
                v.trials, v.times_created, dict(v.exceptions),
                dict(v.unattributed_exceptions), v.deadlocks, v.truncated,
                v.created_pairs,
            )
            for pair, v in verdicts.items()
        },
        "timeline": deterministic_section(snapshot),
        "metrics": _metrics(snapshot),
        "supervisor": {
            n: v for n, v in snapshot.counters.items() if n.startswith("supervisor.")
        },
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The inline run of (workload, trace mode), computed once."""
    cache = {}

    def get_reference(workload, store):
        if (workload, store) not in cache:
            scratch = tmp_path_factory.mktemp(f"{workload}-{store}")
            cache[workload, store] = _campaign(workload, scratch, store=store)
        return cache[workload, store]

    return get_reference


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("store", [None, "cold", "warm"], ids=str)
@pytest.mark.parametrize("variant", VARIANTS)
def test_same_seeds_same_campaign(workload, store, variant, reference, tmp_path):
    expected = dict(reference(workload, store))
    result = _campaign(workload, tmp_path, store=store, **VARIANTS[variant])
    if variant != "pool":
        # Chunking and resume change the task set the supervisor counts.
        del expected["supervisor"], result["supervisor"]
    if "chunk_size" in VARIANTS[variant]:
        for r in (expected, result):
            r["timeline"] = [
                e for e in r["timeline"]["events"] if e[0] not in CHUNKING_KINDS
            ]
    assert result == expected
    live = reference(workload, None)
    for part in ("phase1", "verdicts", "timeline"):
        assert reference(workload, store)[part] == live[part]
