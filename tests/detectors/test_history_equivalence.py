"""The history kernel's key replacement is lossless for statement pairs.

`HistoryRaceDetector` replaces an old access record when a new one with
the same (tid, stmt, is_write, lockset) key arrives, and caps the
observed-order histories.  The module docstring of `detectors/base.py`
argues that replacement cannot lose a *statement pair*.  This suite
checks that claim empirically for every configuration of the kernel: a naive
reference detector, written independently of the kernel, must report
exactly the same pair set (and, for the predictive configurations, the
same ``schedulable`` grades) on randomly generated programs.  A kernel
over several configurations walks each event once for all of them, so
the suite also runs it over subsets of the names: each name's report must
still equal its reference.

The reference appends every access, never replaces or evicts one,
compares whole vector-clock snapshots instead of epochs, and recomputes
each location's guard set from every lockset seen there.  It reuses only
`VectorClock`, `EdgeClassifier` and `RaceReport`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RandomScheduler
from repro.detectors import HistoryRaceDetector, make_detector
from repro.detectors.edges import SPAWN, EdgeClassifier
from repro.detectors.report import RaceReport
from repro.detectors.vectorclock import VectorClock
from repro.runtime import Execution
from repro.runtime.events import (
    AcquireEvent,
    MemEvent,
    RcvEvent,
    ReleaseEvent,
    SndEvent,
    ThreadStartEvent,
)
from repro.runtime.observer import ExecutionObserver

from tests.runtime.test_replay_determinism import _SCRIPTS, _make_program

#: name -> (lock rule, predictive), as the detectors are documented.
CONFIGURATIONS = {
    "hybrid": ("blanket", False),
    "happens-before": ("order", False),
    "shb": ("blanket", True),
    "wcp": ("consistent", True),
}

#: kernels over several configurations: all four, the set the adaptive
#: campaign runs, the other pairs, and each configuration alone.
SUBSETS = (
    ("hybrid", "happens-before", "shb", "wcp"),
    ("hybrid", "shb"),
    ("hybrid", "wcp"),
    ("happens-before", "shb"),
    ("happens-before", "wcp"),
    ("hybrid", "happens-before"),
    ("shb", "wcp"),
    ("hybrid",),
    ("happens-before",),
    ("shb",),
    ("wcp",),
)


class NaiveHistoryDetector(ExecutionObserver):
    """Reference: every access kept, whole-clock comparisons."""

    def __init__(self, name):
        self.locks, self.predictive = CONFIGURATIONS[name]
        self.report = RaceReport(program="?", detector=name)

    def on_start(self, execution):
        self.edges = EdgeClassifier()
        self.weak, self.strong = {}, {}
        self.sent, self.released, self.written = {}, {}, {}
        self.accesses = {}  # location -> [(event, weak, strong)]

    def clock(self, clocks, tid):
        return clocks.setdefault(tid, VectorClock.for_thread(tid))

    def on_event(self, event):
        kind = self.edges.note(event)
        if isinstance(event, ThreadStartEvent):
            self.clock(self.weak, event.child)
            self.clock(self.strong, event.child)
        elif isinstance(event, SndEvent):
            self.sent[event.msg_id] = (
                self.clock(self.weak, event.tid).copy(),
                self.clock(self.strong, event.tid).copy(),
            )
            self.clock(self.weak, event.tid).tick(event.tid)
            self.clock(self.strong, event.tid).tick(event.tid)
        elif isinstance(event, RcvEvent) and event.msg_id in self.sent:
            weak, strong = self.sent[event.msg_id]
            self.clock(self.strong, event.tid).join(strong)
            if not self.predictive or kind == SPAWN:
                self.clock(self.weak, event.tid).join(weak)
        elif isinstance(event, ReleaseEvent):
            self.released[event.lock] = (
                self.clock(self.weak, event.tid).copy(),
                self.clock(self.strong, event.tid).copy(),
            )
            if self.locks == "order":
                self.clock(self.weak, event.tid).tick(event.tid)
            self.clock(self.strong, event.tid).tick(event.tid)
        elif isinstance(event, AcquireEvent) and event.lock in self.released:
            weak, strong = self.released[event.lock]
            if self.locks == "order":
                self.clock(self.weak, event.tid).join(weak)
            self.clock(self.strong, event.tid).join(strong)
        elif isinstance(event, MemEvent):
            self.on_mem(event)

    def exonerated(self, earlier, event, guards):
        common = earlier.locks_held & event.locks_held
        if self.locks == "blanket":
            return bool(common)
        if self.locks == "consistent":
            return bool(common & guards)
        return False

    def on_mem(self, event):
        weak = self.clock(self.weak, event.tid)
        strong = self.clock(self.strong, event.tid)
        seen = self.accesses.setdefault(event.location, [])
        guards = frozenset(event.locks_held)
        for earlier, _, _ in seen:
            guards &= earlier.locks_held
        for earlier, earlier_weak, earlier_strong in seen:
            if earlier.tid == event.tid:
                continue
            if not (earlier.is_write or event.is_write):
                continue
            if self.exonerated(earlier, event, guards):
                continue
            if earlier_weak.leq(weak):
                continue
            self.report.record(
                earlier.stmt,
                event.stmt,
                location=event.location,
                tids=(earlier.tid, event.tid),
                both_write=earlier.is_write and event.is_write,
                schedulable=(
                    not earlier_strong.leq(strong) if self.predictive else None
                ),
            )
        seen.append((event, weak.copy(), strong.copy()))
        if event.is_write:
            self.written[event.location] = strong.copy()
            strong.tick(event.tid)
        elif event.location in self.written:
            strong.join(self.written[event.location])


def _grades(report):
    return {pair: info.schedulable for pair, info in report.evidence.items()}


def _assert_same(report, naive, name):
    assert set(report.evidence) == set(naive.report.evidence), name
    assert _grades(report) == _grades(naive.report), name


class TestHistoryEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
    def test_kernel_configuration_matches_the_table(self, name):
        detector = make_detector(name)
        assert (detector.locks, detector.predictive) == CONFIGURATIONS[name]

    @pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
    @given(
        scripts=st.lists(_SCRIPTS, min_size=1, max_size=3),
        seed=st.integers(0, 5_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_replacement_reports_exactly_the_naive_pairs(self, name, scripts, seed):
        program = _make_program(scripts)
        kernel = make_detector(name)
        naive = NaiveHistoryDetector(name)
        Execution(
            program, seed=seed, observers=[kernel, naive], max_steps=50_000
        ).run(RandomScheduler(preemption="every"))
        _assert_same(kernel.report, naive, name)

    @pytest.mark.parametrize("names", SUBSETS, ids="+".join)
    @given(
        scripts=st.lists(_SCRIPTS, min_size=1, max_size=3),
        seed=st.integers(0, 5_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_each_subset_reports_every_name_like_its_reference(
        self, names, scripts, seed
    ):
        kernel = HistoryRaceDetector(names)
        naives = [NaiveHistoryDetector(name) for name in names]
        Execution(
            _make_program(scripts),
            seed=seed,
            observers=[kernel, *naives],
            max_steps=50_000,
        ).run(RandomScheduler(preemption="every"))
        assert list(kernel.reports) == list(names)
        for name, naive in zip(names, naives):
            _assert_same(kernel.reports[name], naive, f"{name} in {names}")

    def test_equivalence_on_a_workload(self):
        from repro.workloads import get

        for workload in ("weblech", "linkedlist"):
            kernels = [make_detector(name) for name in CONFIGURATIONS]
            naives = [NaiveHistoryDetector(name) for name in CONFIGURATIONS]
            Execution(
                get(workload).build(),
                seed=1,
                observers=kernels + naives,
                max_steps=200_000,
            ).run(RandomScheduler(preemption="every"))
            for name, kernel, naive in zip(CONFIGURATIONS, kernels, naives):
                _assert_same(kernel.report, naive, f"{name}/{workload}")
