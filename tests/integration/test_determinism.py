"""The same seeds give the same campaign, however the campaign runs.

A campaign here is Phase 1 (``detect_races``) then Phase 2
(``fuzz_races``) on one workload, with telemetry on.  Its result is the
Phase-1 report (full ``==``, evidence included), the Phase-2 verdict
signatures, the deterministic projection of the timeline, and the
``interp.*`` / ``fuzz.*`` / ``trace.*`` counters,
``trace.store_bytes`` included: location uids are numbered per execution,
so one seed records the same bytes in any process.

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

#: montecarlo is a stall row: its trials end in idle releases.
WORKLOADS = ["figure1", "philosophers", "montecarlo"]
TRIALS = 8
#: timeline kinds that describe the chunking itself; chunk-size variants
#: compare the rest of the timeline and the per-pair outcomes it sums.
CHUNKING_KINDS = ("schedule.bind", "schedule.round", "chunk")
VARIANTS = {
    "pool": dict(jobs=2),
    "pool-chunk1": dict(jobs=2, chunk_size=1),
    "chunk8": dict(chunk_size=8),
    "resume": dict(resume=True),
}


def _metrics(snapshot):
    return {
        name: value
        for name, value in snapshot.counters.items()
        if name.split(".", 1)[0] in ("interp", "fuzz", "trace")
    }


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
        "phase1": report,
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
            r["timeline"] = {
                "events": [
                    e for e in r["timeline"]["events"]
                    if e[0] not in CHUNKING_KINDS
                ],
                "pairs": r["timeline"]["pairs"],
            }
    assert result == expected
    live = reference(workload, None)
    for part in ("phase1", "verdicts", "timeline"):
        assert reference(workload, store)[part] == live[part]
