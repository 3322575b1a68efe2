"""RaceFuzzer is Phase-1-agnostic (Section 1: any analysis that yields
"a set of statements whose simultaneous execution could lead to a
concurrency problem" can seed the scheduler)."""

import pytest

from repro.core import detect_races, race_directed_test
from repro.runtime.statement import Statement, StatementPair
from repro.workloads import figure1, get


class TestAlternativePhase1Detectors:
    @pytest.mark.parametrize("detector", ["hybrid", "happens-before"])
    def test_vc_based_detectors_feed_phase2(self, detector):
        """Whatever Phase 1 reports, Phase 2 confirms exactly the real race
        and rejects the rest — the verdicts differ only in how much chaff
        Phase 2 has to sift."""
        campaign = race_directed_test(
            figure1.build(),
            detector=detector,
            phase1_seeds=range(5),
            trials=30,
        )
        assert campaign.real_pairs == [figure1.REAL_PAIR], detector
        assert campaign.harmful_pairs == [figure1.REAL_PAIR], detector

    def test_eraser_misses_figure1_by_design(self):
        """Faithful Eraser behaviour worth documenting: thread2's z write
        usually comes first (it is thread2's first statement), leaving z in
        Exclusive; thread1's unlocked *read* then moves it to Shared —
        which Eraser does not report without a subsequent write.  The
        classic lockset blind spot, and one reason the paper's Phase 1 is
        the hybrid detector."""
        report = detect_races(figure1.build(), detector="lockset", seeds=range(8))
        assert figure1.REAL_PAIR not in report.evidence

    def test_eraser_feeds_phase2_on_write_write_programs(self):
        from repro.runtime import Program, SharedVar, join_all, spawn_all

        def factory():
            x = SharedVar("x", 0)

            def first_writer():
                yield x.write(1, label="wa")

            def second_writer():
                yield x.write(2, label="wb")

            def main():
                handles = yield from spawn_all([first_writer, second_writer])
                yield from join_all(handles)

            return main()

        campaign = race_directed_test(
            Program(factory), detector="lockset", phase1_seeds=range(6), trials=20
        )
        assert campaign.potential_pairs >= 1
        assert campaign.real_pairs  # confirmed by Phase 2

    @pytest.mark.parametrize("workload", ["figure1", "weblech"])
    def test_precise_hb_is_a_subset_of_hybrid(self, workload):
        """A common lock orders two accesses by its release→acquire edge,
        so every pair precise happens-before reports also passes the
        hybrid's lockset test; the hybrid predicts more by dropping those
        edges."""
        spec = get(workload)
        pairs = {
            name: set(
                detect_races(
                    spec.build(), detector=name, seeds=range(8),
                    max_steps=spec.max_steps,
                ).pairs
            )
            for name in ("happens-before", "hybrid")
        }
        assert pairs["happens-before"] <= pairs["hybrid"]


class TestHandWrittenPairs:
    def test_static_tool_style_pair_list(self):
        """Simulates seeding Phase 2 from a static analyzer: hand the fuzzer
        statement pairs built from labels, no dynamic Phase 1 at all."""
        pairs = [
            StatementPair(Statement(label="5"), Statement(label="7")),
            StatementPair(Statement(label="1"), Statement(label="10")),
            # A pair a sloppy static tool might invent: lock-protected y.
            StatementPair(Statement(label="3"), Statement(label="9")),
        ]
        campaign = race_directed_test(figure1.build(), pairs=pairs, trials=30)
        assert campaign.real_pairs == [figure1.REAL_PAIR]
        # The invented pair is dismissed like any other false alarm.
        fake = StatementPair(Statement(label="3"), Statement(label="9"))
        assert not campaign.verdicts[fake].is_real

    def test_single_statement_self_pair(self):
        """A RaceSet may be one statement racing with itself."""
        from repro.runtime import Program, SharedVar, join_all, spawn_all

        def factory():
            x = SharedVar("x", 0)

            def writer():
                yield x.write(1, label="W")

            def main():
                handles = yield from spawn_all([writer, writer, writer])
                yield from join_all(handles)

            return main()

        stmt = Statement(label="W")
        campaign = race_directed_test(
            Program(factory), pairs=[StatementPair(stmt, stmt)], trials=20
        )
        assert campaign.real_pairs == [StatementPair(stmt, stmt)]
