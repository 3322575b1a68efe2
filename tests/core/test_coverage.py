"""Schedule-coverage metrics: signature soundness and strategy comparison.

The strategy comparison (EXPERIMENTS.md, "The RAPOS comparison") puts
every strategy on the same program: the passive ones spread over many
partial orders, RaceFuzzer visits fewer of them and reaches ERROR where
they never do."""

from repro.core import (
    RaceFuzzer,
    RandomScheduler,
    conflict_signature,
    detect_races,
    measure_coverage,
)
from repro.runtime import EventTrace, Execution, Lock, Program, SharedVar, join_all, ops, spawn_all
from repro.workloads import figure1, figure2


def _trace(program, seed, scheduler=None):
    trace = EventTrace()
    Execution(program, seed=seed, observers=[trace]).run(
        scheduler or RandomScheduler("every")
    )
    return trace.events


def counter_program(increments: int = 3):
    """Two unlocked incrementers: plenty of distinct partial orders."""

    def factory():
        x = SharedVar("x", 0)

        def worker(k):
            for _ in range(increments):
                value = yield x.read(label=f"r{k}")
                yield x.write(value + 1, label=f"w{k}")

        def main():
            handles = yield from spawn_all(
                [lambda: worker(1), lambda: worker(2)]
            )
            yield from join_all(handles)

        return main()

    return Program(factory)


def _directed_at(pair):
    """A ``measure_coverage`` hook: one RaceFuzzer trial per seed."""

    def run_once(program, seed, observers):
        return RaceFuzzer(pair, observers=observers).run(program, seed=seed)

    return run_once


class TestConflictSignature:
    def test_identical_runs_identical_signatures(self):
        first = conflict_signature(_trace(figure1.build(), seed=3))
        second = conflict_signature(_trace(figure1.build(), seed=3))
        assert first == second

    def test_signature_ignores_independent_commutes(self):
        """Two threads writing DIFFERENT locations: every interleaving is
        one partial order, so all seeds share one signature."""

        def factory():
            a, b = SharedVar("a", 0), SharedVar("b", 0)

            def writer_a():
                for value in range(3):
                    yield a.write(value)

            def writer_b():
                for value in range(3):
                    yield b.write(value)

            def main():
                handles = yield from spawn_all([writer_a, writer_b])
                yield from join_all(handles)

            return main()

        signatures = {
            conflict_signature(_trace(Program(factory), seed=s)) for s in range(20)
        }
        assert len(signatures) == 1

    def test_signature_distinguishes_conflicting_orders(self):
        """Two threads writing the SAME location: write order is the
        partial order, so multiple signatures must appear across seeds."""

        def factory():
            x = SharedVar("x", 0)

            def writer(k):
                for _ in range(2):
                    yield x.write(k, label=f"w{k}")

            def main():
                handles = yield from spawn_all(
                    [lambda: writer(1), lambda: writer(2)]
                )
                yield from join_all(handles)

            return main()

        signatures = {
            conflict_signature(_trace(Program(factory), seed=s)) for s in range(20)
        }
        assert len(signatures) > 1

    def test_reads_between_same_writes_commute(self):
        """Reader order between two writes must NOT split signatures."""

        def factory():
            x = SharedVar("x", 0)

            def reader(k):
                yield x.read(label=f"r{k}")

            def main():
                yield x.write(1)
                handles = yield from spawn_all(
                    [lambda: reader(1), lambda: reader(2)]
                )
                yield from join_all(handles)
                yield x.write(2)

            return main()

        signatures = {
            conflict_signature(_trace(Program(factory), seed=s)) for s in range(15)
        }
        assert len(signatures) == 1


class TestMeasureCoverage:
    def test_report_fields(self):
        report = measure_coverage(figure1.build(), seeds=range(10))
        assert report.runs == 10
        assert 1 <= report.distinct_signatures <= 10
        assert 0 <= report.diversity <= 1
        assert "distinct partial orders" in str(report)

    def test_passive_strategies_explore_many_partial_orders(self):
        runs = 60
        random_coverage = measure_coverage(
            counter_program(), strategy="random", seeds=range(runs)
        )
        rapos_coverage = measure_coverage(
            counter_program(), strategy="rapos", seeds=range(runs)
        )
        # Both passive strategies spread across the schedule space.
        assert random_coverage.distinct_signatures >= 5
        assert rapos_coverage.distinct_signatures >= 5
        assert sum(random_coverage.signature_counts.values()) == runs
        assert 0 < random_coverage.minority_share <= 1
        assert 0 < rapos_coverage.minority_share <= 1

    def test_unknown_strategy_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            measure_coverage(figure1.build(), strategy="psychic", seeds=range(2))


class TestDirectedCoverage:
    RUNS = 60

    def test_racefuzzer_visits_fewer_partial_orders_than_random_walk(self):
        """On the counter program (random walk 49 partial orders in 60
        runs), RaceFuzzer directed at any one Phase-1 pair visits 18-20."""
        walk = measure_coverage(
            counter_program(), strategy="random", seeds=range(self.RUNS)
        )
        pairs = detect_races(counter_program(), seeds=range(5)).pairs
        assert pairs
        for pair in pairs:
            directed = measure_coverage(
                counter_program(), run_once=_directed_at(pair),
                seeds=range(self.RUNS),
            )
            assert directed.distinct_signatures < walk.distinct_signatures, pair

    def test_only_racefuzzer_reaches_error_on_figure2(self):
        """On ``figure2(8)`` every strategy sees one or two partial orders,
        but only the directed one reaches ERROR."""
        for strategy in ("random", "rapos"):
            passive = measure_coverage(
                figure2.build(8), strategy=strategy, seeds=range(self.RUNS)
            )
            assert passive.crashing_runs == 0, strategy
        directed = measure_coverage(
            figure2.build(8), run_once=_directed_at(figure2.RACING_PAIR),
            seeds=range(self.RUNS),
        )
        assert directed.crashing_runs > 0
