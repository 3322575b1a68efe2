"""RaceFuzzer — Algorithms 1 and 2 of the paper.

Given a *racing pair of statements* ``(s1, s2)`` from Phase 1, the fuzzer
executes the program under a random scheduler that postpones any thread
about to execute a statement in ``{s1, s2}`` until a second thread arrives
at a statement in the pair whose next access touches the *same dynamic
memory location*, with at least one of the two accesses being a write.  At
that point a **real race** has been created (reported with no possibility
of a false positive, since the two accesses are temporally adjacent), and
the race is resolved by a fair coin so that both orders of the racing
statements are explored across seeds.

Typical use::

    fuzzer = RaceFuzzer(pair)           # pair from HybridRaceDetector
    outcome = fuzzer.run(program, seed=42)
    outcome.created        # True -> the pair is a real race
    outcome.crashes        # exceptions caused by resolving the race
    outcome.deadlock       # real deadlock discovered (Algorithm 1, line 31)

Replaying ``run(program, seed=42)`` reproduces the identical execution —
the engine owns all non-determinism and draws it from the seed.

Line 6's probe runs before every non-sync step of a burst.  It is built
once per trial (``target_probe``) and answers in one call from the
pending op's kind and raw ``(code, line)`` site via
:meth:`~repro.core.postponing.TargetSites.probe`: a memory-access test,
a line prefilter, then an exact ``(file, line)`` test, so no statement is
interned at a site that is not in the pair.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.timeline import pair_label
from repro.runtime.interpreter import Execution
from repro.runtime.statement import Statement, StatementPair

from .postponing import (
    FuzzResult,
    PostponingDriver,
    TargetHit,
    TargetProbe,
    TargetSites,
)


class RaceFuzzer(PostponingDriver):
    """Race-directed active random scheduler (the paper's Algorithm 1)."""

    def __init__(
        self,
        race_set: StatementPair | Iterable[Statement],
        *,
        preemption: str = "sync",
        patience: int = 400,
        max_steps: int = 1_000_000,
        observers=(),
    ) -> None:
        super().__init__(
            preemption=preemption,
            patience=patience,
            max_steps=max_steps,
            observers=observers,
        )
        if isinstance(race_set, StatementPair):
            statements: set[Statement] = {race_set.first, race_set.second}
            self._timeline_target = pair_label(race_set)
        else:
            statements = set(race_set)
            self._timeline_target = "|".join(
                sorted(str(s.site) for s in statements)
            )
        if not statements:
            raise ValueError("RaceFuzzer needs a non-empty racing statement set")
        self._sites = TargetSites(statements)
        self.race_set = self._sites.statements

    def timeline_target(self) -> str:
        """Timeline identity of this fuzzer's trials: the pair label
        (``site|site``), stable across processes and runs."""
        return self._timeline_target

    # --- Algorithm 1, line 6 -------------------------------------------- #

    def target_probe(self, execution: Execution) -> TargetProbe:
        """Line 6 of Algorithm 1: is the thread's next statement in the
        racing pair (and a memory access)?

        Called before every non-sync step of the sync-preemption burst,
        so it answers from the raw yield site (:class:`TargetSites`) and
        builds no statement.
        """
        return self._sites.probe(mem_only=True)

    # --- Algorithm 2 ------------------------------------------------------ #

    def conflicting(
        self, execution: Execution, tid: int, postponed: list[int]
    ) -> list[int]:
        """``Racing(s, t, postponed)``: postponed threads whose next
        statement accesses the same dynamic location as ``tid``'s next
        statement, with at least one write."""
        op = execution.next_op(tid)
        rivals = []
        for other in postponed:
            other_op = execution.next_op(other)
            if other_op is None or not other_op.is_mem:
                continue
            if other_op.location != op.location:
                continue
            if not (op.is_write or other_op.is_write):
                continue
            rivals.append(other)
        return rivals


def fuzz_pair(
    program,
    pair: StatementPair,
    seeds: Iterable[int],
    **kwargs,
) -> list[FuzzResult]:
    """Run RaceFuzzer once per seed for one racing pair.

    This is the paper's experimental unit: "we ran RaceFuzzer 100 times for
    each racing pair of statements" (Section 5.2).  With no ``observers``
    in ``kwargs`` (the Phase-2 default) no trial allocates an event.
    """
    fuzzer = RaceFuzzer(pair, **kwargs)
    return [fuzzer.run(program, seed=seed) for seed in seeds]


__all__ = ["RaceFuzzer", "fuzz_pair", "FuzzResult", "TargetHit"]
