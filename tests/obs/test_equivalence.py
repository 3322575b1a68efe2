"""Inline == pooled for metrics, exactly as for campaign results.

Every run goes through the campaign supervisor, inline at ``jobs=1`` and
on a process pool otherwise.  Workload counters (``interp.*``,
``fuzz.*``, ``trace.*``) and ``supervisor.*`` counters must be identical
between the two on the same seeds: each attempt collects into its own
registry and the supervisor folds accepted snapshots deterministically.
Wall-clock values (spans, each event's ``dur_s``) are machine-dependent
and excluded.  Chunk sizes, trace stores and resume are
varied by ``tests/integration/test_determinism.py``.
"""

import pytest

from repro.core import detect_races, fuzz_races
from repro.core.racefuzzer import RaceFuzzer
from repro.obs import collecting
from repro.obs.timeline import pair_label
from repro.workloads import get

WORKLOADS = ["figure1", "philosophers"]

def _workload_counters(snapshot):
    return {
        name: value
        for name, value in snapshot.counters.items()
        if name.split(".", 1)[0] in ("interp", "fuzz", "trace")
    }


def _supervisor_counters(snapshot):
    return {
        name: value
        for name, value in snapshot.counters.items()
        if name.startswith("supervisor.")
    }


def _campaign_snapshot(name, *, jobs, trials=6):
    spec = get(name)
    with collecting() as registry:
        phase1 = detect_races(
            spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
        )
        fuzz_races(
            spec.build(),
            phase1.pairs,
            trials=trials,
            max_steps=spec.max_steps,
            jobs=jobs,
            chunk_size=2,
        )
    return registry.snapshot()


@pytest.mark.parametrize("workload", WORKLOADS)
class TestSerialParallelEquivalence:
    def test_workload_counters_equal(self, workload):
        serial = _campaign_snapshot(workload, jobs=1)
        parallel = _campaign_snapshot(workload, jobs=2)
        assert _workload_counters(serial) == _workload_counters(parallel)
        assert _supervisor_counters(serial)
        assert _supervisor_counters(serial) == _supervisor_counters(parallel)

    def test_gauges_equal(self, workload):
        # The postponed-set high water is no longer a gauge: it stays on
        # each trial's ``FuzzResult``.  Every trial is seeded, so replaying
        # the trial events of each campaign recovers it; the replays must
        # reproduce the events' counters and agree across ``jobs``.
        snapshot = _campaign_snapshot(workload, jobs=1)
        serial = _replayed_high_water(workload, snapshot)
        parallel = _replayed_high_water(workload, _campaign_snapshot(workload, jobs=2))
        assert len(serial) == snapshot.counters.get("fuzz.trials", 0)
        assert serial == parallel

    def test_schedule_histograms_equal(self, workload):
        # The per-trial wall time once observed into a histogram rides on
        # one ``trial`` event per trial as ``dur_s``; the event identities
        # are schedule-determined and match across ``jobs``.
        serial = _campaign_snapshot(workload, jobs=1)
        parallel = _campaign_snapshot(workload, jobs=2)
        trials = [e for e in serial.events if e.kind == "trial"]
        assert len(trials) == serial.counters.get("fuzz.trials", 0)
        assert all(e.dur_s > 0 for e in trials)
        assert [e.identity for e in trials] == [
            e.identity for e in parallel.events if e.kind == "trial"
        ]


def _replayed_high_water(name, snapshot):
    """``{(pair label, seed): postponed_high_water}`` from replaying every
    ``trial`` event of ``snapshot`` in this process."""
    spec = get(name)
    phase1 = detect_races(
        spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
    )
    pairs = {pair_label(pair): pair for pair in phase1.pairs}
    high_water = {}
    for event in snapshot.events:
        if event.kind != "trial":
            continue
        _, label, seed = event.key
        outcome = RaceFuzzer(pairs[label], max_steps=spec.max_steps).run(
            spec.build(), seed=seed
        )
        replayed = {"postpones": outcome.postpones, "coin_flips": outcome.coin_flips}
        assert replayed == {k: dict(event.attrs)[k] for k in replayed}
        high_water[label, seed] = outcome.postponed_high_water
    return high_water


def _deterministic_columns(row):
    return (
        row.name,
        row.potential,
        row.real,
        row.harmful,
        row.exceptions_simple,
        row.probability,
    )


class TestTable1Metrics:
    def test_rows_carry_snapshots_and_parent_merges(self):
        """Every row's tasks report straight into the caller's telemetry:
        its ``fuzz.trials`` is the rows' verdict trials, summed."""
        from repro.harness.table1 import build_table
        from repro.workloads.base import get as get_spec

        specs = [get_spec("figure1"), get_spec("vector")]
        with collecting() as registry:
            rows = build_table(
                specs, jobs=1, trials=4, baseline_runs=5, timing_runs=1
            )
        trials = sum(
            verdict.trials
            for row in rows
            for verdict in row.campaign.verdicts.values()
        )
        assert trials > 0
        assert registry.counter("fuzz.trials") == trials

    def test_serial_equals_parallel_table(self):
        from repro.harness.table1 import build_table
        from repro.workloads.base import get as get_spec

        specs = [get_spec("figure1"), get_spec("vector")]
        for schedule in ("fixed", "adaptive"):
            kwargs = {
                "trials": 4,
                "baseline_runs": 5,
                "timing_runs": 1,
                "schedule": schedule,
            }
            with collecting() as serial_registry:
                serial = build_table(list(specs), jobs=1, **kwargs)
            with collecting() as parallel_registry:
                parallel = build_table(list(specs), jobs=2, **kwargs)
            assert _workload_counters(
                serial_registry.snapshot()
            ) == _workload_counters(parallel_registry.snapshot())
            assert [_deterministic_columns(row) for row in serial] == [
                _deterministic_columns(row) for row in parallel
            ]
