"""Per-workload Table 1 shape: measured verdicts vs seeded ground truth.

These run the full two-phase pipeline per benchmark with a reduced trial
count, so the assertions are on *stable* quantities: the exact Phase 1
pair counts, the set of real races (exact for high-probability races,
lower bounds for the flaky collection drivers), and which exception types
appear.  The full-trial numbers live in EXPERIMENTS.md.
"""

import pytest

from repro.harness.table1 import measure_row
from repro.workloads import get, table1_workloads

TRIALS = 30


@pytest.fixture(scope="module")
def rows():
    cache = {}

    def measure(name):
        if name not in cache:
            cache[name] = measure_row(
                get(name), trials=TRIALS, baseline_runs=10, timing_runs=1
            )
        return cache[name]

    return measure


class TestComputeKernels:
    def test_moldyn(self, rows):
        row = rows("moldyn")
        assert row.potential == 5
        assert row.real == 4  # the seeded benign races, nothing more
        assert row.harmful == 0
        assert row.probability == 1.0

    def test_raytracer_exactly_the_checksum_races(self, rows):
        row = rows("raytracer")
        assert row.potential == 2
        assert row.real == 2
        assert row.harmful == 0
        assert row.probability == 1.0
        # Both pairs touch the checksum accumulator.
        for verdict in row.campaign.verdicts.values():
            assert verdict.is_real

    def test_montecarlo(self, rows):
        row = rows("montecarlo")
        assert row.potential == 2
        assert row.real == 1  # only the finished flag
        assert row.harmful == 0

    def test_sor_all_false_positives(self, rows):
        row = rows("sor")
        assert row.potential >= 4
        assert row.real == 0
        assert row.harmful == 0

    def test_jspider_all_false_positives(self, rows):
        row = rows("jspider")
        assert row.potential >= 1
        assert row.real == 0


class TestServerWorkloads:
    def test_cache4j_sleep_race_and_interrupt_crash(self, rows):
        row = rows("cache4j")
        assert row.potential == 2
        assert row.real == 2
        assert row.harmful >= 1
        assert row.campaign.exception_types.keys() == {"InterruptedException"}
        assert row.probability == 1.0

    def test_hedc_npe(self, rows):
        row = rows("hedc")
        assert row.potential == 3
        assert row.real == 2
        assert row.harmful >= 1
        assert row.campaign.exception_types.keys() == {"NullPointerError"}

    def test_weblech_frontier_bug(self, rows):
        row = rows("weblech")
        assert row.potential == 7
        assert 5 <= row.real <= 7
        assert row.harmful >= 1
        assert "NoSuchElementError" in row.campaign.exception_types

    def test_jigsaw_benign_telemetry(self, rows):
        row = rows("jigsaw")
        assert row.potential >= 12
        assert row.real >= 10
        assert row.harmful == 0
        assert not row.campaign.exception_types


class TestCollectionDrivers:
    def test_vector_benign(self, rows):
        row = rows("vector")
        assert row.potential == 5
        assert row.real >= 4
        assert row.harmful == 0  # the paper's 0-exception vector row
        assert not row.campaign.exception_types

    def test_linkedlist_cme(self, rows):
        row = rows("linkedlist")
        assert row.potential >= 10
        assert row.real >= 8
        assert row.harmful >= 5
        assert "ConcurrentModificationError" in row.campaign.exception_types

    def test_arraylist_cme(self, rows):
        row = rows("arraylist")
        assert row.potential >= 7
        assert row.real >= 5
        assert row.harmful >= 4
        assert "ConcurrentModificationError" in row.campaign.exception_types

    def test_treeset_cme(self, rows):
        row = rows("treeset")
        assert row.potential >= 4
        assert row.real >= 3
        assert row.harmful >= 1
        assert "ConcurrentModificationError" in row.campaign.exception_types

    def test_hashset_races_and_wrapper_deadlock(self, rows):
        row = rows("hashset")
        assert row.potential >= 3
        assert row.real >= 1
        # The cross-object removeAll lock inversion: RaceFuzzer reports real
        # deadlocks (Algorithm 1 lines 30-32) in a good fraction of runs.
        assert row.deadlocks_found > 0


@pytest.mark.parametrize("name", [spec.name for spec in table1_workloads()])
class TestInvariants:
    def test_harmful_at_most_real(self, rows, name):
        row = rows(name)
        assert row.harmful <= row.real

    def test_real_subset_of_potential(self, rows, name):
        row = rows(name)
        created = set()
        for verdict in row.campaign.verdicts.values():
            created |= verdict.created_pairs
        # Every created pair involves statements from some phase-1 pair's
        # statement set (self-races on one statement of a pair count).
        phase1_statements = set()
        for pair in row.campaign.phase1.pairs:
            phase1_statements.add(pair.first)
            phase1_statements.add(pair.second)
        for pair in created:
            assert pair.first in phase1_statements
            assert pair.second in phase1_statements
