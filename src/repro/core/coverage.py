"""Schedule-coverage metrics: how much of the interleaving space did a
testing strategy actually explore?

The Related-Work argument for RAPOS over a naive random walk is not bug
counts but *coverage of partial orders*: a uniform walk over
interleavings oversamples schedules that have many equivalent
linearizations.  This module makes that measurable:

* :func:`conflict_signature` — a canonical fingerprint of an execution's
  partial order: for every memory location, the sequence of conflicting
  accesses (thread, statement, kind) in execution order, ignoring the
  interleaving of *independent* operations.  Two executions with equal
  signatures are equivalent up to commuting independent ops — the
  classic Mazurkiewicz-trace view.
* :func:`measure_coverage` — run a strategy over N seeds and count the
  distinct signatures it produced.

``tests/core/test_coverage.py`` compares strategies one program at a
time: on a two-thread counter the passive ones (uniform walk, RAPOS) see
44-49 partial orders in 60 runs and RaceFuzzer 18-20 per directed pair;
on ``figure2(8)`` each sees one or two, and only RaceFuzzer reaches ERROR.
High diversity is not what finds rare bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.runtime.events import MemEvent
from repro.runtime.interpreter import Execution
from repro.runtime.observer import EventTrace
from repro.runtime.program import Program

from .schedulers import baseline_scheduler


def conflict_signature(events) -> tuple:
    """Canonical partial-order fingerprint of one execution's trace.

    Per location, record the sequence of accesses that *conflict* with
    their predecessor context — concretely: every write, plus every read
    together with the index of the last preceding write (reads between the
    same writes commute, so they are recorded as an unordered set).
    Uids allocated at run time (jdk nodes, say) are numbered in schedule
    order, so one location can carry another uid under another schedule;
    locations are keyed by display name instead.
    """
    per_location: dict = {}
    for event in events:
        if not isinstance(event, MemEvent):
            continue
        # Key locations by display name: run-time uids follow the
        # schedule, and so does first-access order.  Same-named
        # distinct locations merge, which coarsens but never invents
        # distinctions — acceptable for a coverage metric.
        key = event.location.describe()
        writes, pending_reads = per_location.setdefault(key, ([], set()))
        actor = (event.tid, event.stmt.site)
        if event.is_write:
            # Seal the reads since the previous write (order-free).
            writes.append((frozenset(pending_reads), actor))
            pending_reads.clear()
        else:
            pending_reads.add(actor)
    signature = []
    for key in sorted(per_location):
        writes, trailing_reads = per_location[key]
        signature.append((key, tuple(writes), frozenset(trailing_reads)))
    return tuple(signature)


@dataclass
class CoverageReport:
    """Distinct partial orders observed over a batch of runs."""

    strategy: str
    runs: int
    distinct_signatures: int
    crashing_runs: int
    #: how often each signature was produced (frequencies sum to ``runs``)
    signature_counts: dict = None

    @property
    def diversity(self) -> float:
        """Distinct partial orders per run (1.0 = every run new)."""
        if self.runs == 0:
            return 0.0
        return self.distinct_signatures / self.runs

    @property
    def minority_share(self) -> float:
        """Frequency of the rarest observed partial order.

        The metric that shows RAPOS's point: a uniform interleaving walk
        oversamples partial orders with many linearizations, starving the
        rare ones; partial-order sampling evens the shares out.
        """
        if not self.signature_counts:
            return 0.0
        return min(self.signature_counts.values()) / self.runs

    def __str__(self) -> str:
        return (
            f"{self.strategy}: {self.distinct_signatures} distinct partial "
            f"orders in {self.runs} runs (diversity {self.diversity:.2f}, "
            f"{self.crashing_runs} crashing)"
        )


def measure_coverage(
    program: Program,
    *,
    strategy: str = "random",
    seeds: Sequence[int] = range(50),
    max_steps: int = 200_000,
    run_once: Callable | None = None,
) -> CoverageReport:
    """Count distinct conflict signatures over seeded runs of one strategy.

    ``strategy`` names a passive scheduler (:func:`baseline_scheduler`).
    With a ``run_once(program, seed, observers) -> result`` callable, the
    runs are its own and ``strategy`` is only the report's label, which
    must name it: a scheduler name there raises :class:`ValueError`, so a
    directed run never reads as a passive one.
    """
    from collections import Counter

    if run_once is None:
        baseline_scheduler(strategy)  # reject unknown names before any run

        def run_once(program, seed, observers):
            return Execution(
                program, seed=seed, observers=observers, max_steps=max_steps
            ).run(baseline_scheduler(strategy))

    else:
        try:
            baseline_scheduler(strategy)
        except ValueError:
            pass
        else:
            raise ValueError(
                f"run_once runs its own strategy; label it, not {strategy!r}"
            )

    signatures: Counter = Counter()
    crashes = 0
    for seed in seeds:
        trace = EventTrace()
        result = run_once(program, seed, [trace])
        signatures[conflict_signature(trace.events)] += 1
        crashes += bool(result.crashes)
    return CoverageReport(
        strategy=strategy,
        runs=len(list(seeds)),
        distinct_signatures=len(signatures),
        crashing_runs=crashes,
        signature_counts=dict(signatures),
    )
