"""The one telemetry stream: its merge law, and what "off" costs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fuzz_races
from repro.core.parallel import FuzzTask
from repro.core.results import PairVerdict
from repro.core.supervisor import TaskEnvelope, run_envelope
from repro.obs import MeteredResult, collecting
from repro.obs.telemetry import Telemetry, TelemetrySnapshot
from repro.workloads import figure1

#: a ring small enough that merges of a few snapshots overflow it.
BUDGET = 3

#: dyadic seconds: float sums of these are exact in any order, so span
#: totals compare with ``==`` instead of up to rounding.
_seconds = st.integers(0, 16).map(lambda k: k / 8)

_op = st.one_of(
    st.tuples(st.just("inc"), st.sampled_from("ab"), st.integers(0, 5)),
    st.tuples(st.just("span"), st.sampled_from("st"), _seconds),
    st.tuples(
        st.just("emit"),
        st.tuples(
            st.sampled_from(["trial", "chunk", "health"]),
            st.integers(0, 4),
            st.integers(0, 1),
        ),
        st.tuples(_seconds, st.sampled_from(["p1", "p2"])),
    ),
)


@st.composite
def snapshots(draw):
    telemetry = Telemetry(budget=BUDGET)
    for op, name, value in draw(st.lists(_op, max_size=12)):
        if op == "inc":
            telemetry.inc(name, value)
        elif op == "span":
            telemetry.observe_span(name, value)
        else:
            (kind, key, n), (wall, track) = name, value
            telemetry.emit(kind, ("w", key), {"n": n}, wall_s=wall, track=track)
    return telemetry.snapshot()


def _identities(snapshot):
    return [event.identity for event in snapshot.events]


def _aggregates(snapshot):
    return (
        snapshot.counters,
        snapshot.spans,
        snapshot.budget,
    )


class TestMergeLaw:
    @settings(max_examples=200, deadline=None)
    @given(snapshots(), snapshots(), snapshots())
    def test_merge_is_associative_and_commutative(self, a, b, c):
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        # Associative in everything but ``dropped``, display fields
        # included (the first snapshot in fold order wins either way).
        assert _aggregates(left) == _aggregates(right)
        assert left.events == right.events
        seen = {e.identity for s in (a, b, c) for e in s.events}
        if len(seen) <= BUDGET:
            # ``dropped`` counts cuts per fold; it is fold-order-free
            # whenever no fold cuts.
            assert left.dropped == right.dropped
        # Commutative up to display fields: the retained identities,
        # aggregates and the cut count never depend on the order.
        for x, y in ((a, b), (b, c), (a, c)):
            xy, yx = x.merged(y), y.merged(x)
            assert _aggregates(xy) == _aggregates(yx)
            assert _identities(xy) == _identities(yx)
            assert xy.dropped == yx.dropped
            assert len(xy.events) <= BUDGET

    @settings(max_examples=100, deadline=None)
    @given(snapshots(), snapshots())
    def test_live_fold_applies_the_same_law(self, a, b):
        # The supervisor folds worker snapshots into a live Telemetry;
        # that must land exactly where the snapshot law does.
        telemetry = Telemetry(budget=BUDGET)
        telemetry.merge_snapshot(a)
        telemetry.merge_snapshot(b)
        assert telemetry.snapshot() == TelemetrySnapshot(budget=BUDGET).merged(
            a
        ).merged(b)


class TestTelemetryOff:
    def test_run_envelope_returns_the_bare_result(self):
        task = FuzzTask(
            workload="figure1", pair=figure1.REAL_PAIR, count=2,
            max_steps=20_000,
        )
        envelope = TaskEnvelope(fn="fuzz", task=task, index=0)
        result = run_envelope(envelope, in_worker=False)
        assert isinstance(result, PairVerdict)
        assert result.trials == 2

    def test_run_envelope_meters_when_asked(self):
        task = FuzzTask(
            workload="figure1", pair=figure1.REAL_PAIR, count=2,
            max_steps=20_000,
        )
        envelope = TaskEnvelope(fn="fuzz", task=task, index=0, telemetry=True)
        result = run_envelope(envelope, in_worker=False)
        assert isinstance(result, MeteredResult)
        assert result.snapshot.counters["fuzz.trials"] == 2

    def test_campaign_constructs_no_telemetry(self, monkeypatch):
        built = []
        for cls in (Telemetry, TelemetrySnapshot):
            init = cls.__init__

            def counting(self, *args, _init=init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        verdicts = fuzz_races(
            figure1.build(),
            [figure1.REAL_PAIR, figure1.FALSE_PAIR],
            trials=4,
            chunk_size=2,
            max_steps=20_000,
        )
        assert verdicts[figure1.REAL_PAIR].is_real
        assert built == []
        # The counter itself works: one scope builds its Telemetry.
        with collecting():
            pass
        assert built == ["Telemetry"]
