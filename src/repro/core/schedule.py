"""Campaign trial allocation policies: who gets fuzzed next, and how much.

Phase 2 of the paper spends a *fixed* budget — "we ran RaceFuzzer 100
times for each racing pair of statements" (Section 5.2) — which is what
makes large campaigns intractable: most candidate pairs are hopeless
while the racing ones confirm within a handful of trials (Table 1's
per-pair probabilities are mostly 0.0 or near 1.0).  This module carves
the allocation decision out of the drivers into a policy object so the
protocol is chosen once, at the top, instead of being hard-wired through
every layer:

* :class:`FixedSchedule` — the paper's protocol, byte-identical to the
  pre-policy drivers for every workload, serial and parallel.  Table 1
  reproduction pins this.
* :class:`AdaptiveSchedule` — an online allocator in the bandit style:
  each pair carries a beta-Bernoulli posterior over its race-creation
  probability, rounds of chunks are allocated by Thompson sampling
  (deterministic given ``seed``), pairs whose posterior upper bound falls
  below a threshold are early-stopped, and a *global* trial/wall-clock
  budget replaces per-pair counts.

The executor contract (the campaign engine in :mod:`repro.core.parallel`
honours it at every ``jobs`` value):

1. ``bind(pairs, base_seed=..., chunk_size=...)`` once per campaign;
2. repeatedly take :meth:`~CampaignSchedule.next_batch` and run every
   :class:`TrialChunk` in it (order inside a batch is the submission
   order — deterministic);
3. feed each chunk's *delta* verdict back through
   :meth:`~CampaignSchedule.record` (a quarantined chunk produces none:
   its trials stay spent and the policy learns nothing from them);
4. stop when ``next_batch`` returns an empty list.

Posterior updates are pure count accumulations — commutative and
associative — so feedback may arrive in completion order (it does, via
the supervisor's ``on_settle`` hook) while allocation decisions read the
posterior only at batch boundaries.  That is what makes ``jobs=N``
adaptive campaigns identical to serial ones for the same seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from random import Random
from typing import Sequence

from repro.obs import maybe_telemetry
from repro.obs.timeline import pair_label
from repro.runtime.statement import StatementPair


@dataclass(frozen=True)
class TrialChunk:
    """One schedulable unit: ``count`` consecutive seeded trials of a pair.

    Pairs are addressed by index into the bound pair list so a chunk is a
    tiny value object that crosses layers (and process boundaries, inside
    a :class:`~repro.core.parallel.FuzzTask`) without dragging statement
    objects along.
    """

    pair_index: int
    seed_start: int
    count: int


def chunk_spans(start: int, count: int, chunk_size: int) -> list[tuple[int, int]]:
    """Split ``count`` consecutive seeds from ``start`` into chunk spans.

    Every chunked campaign cuts its seed ranges here: the fixed schedule
    and the baseline chunk whole ranges, and the adaptive schedule cuts
    an incremental allocation at an arbitrary seed cursor into
    worker-sized pieces.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (s, min(chunk_size, start + count - s))
        for s in range(start, start + count, chunk_size)
    ]


#: the Beta pseudo-counts (alpha, beta) every adaptive pair starts from.
PRIOR = (1.0, 1.0)

#: standard deviations above the posterior mean that early stopping reads.
STOP_Z = 2.0


def beta_upper_bound(alpha: float, beta: float, z: float = 2.0) -> float:
    """An upper credible bound on the success probability.

    Normal approximation (mean + z standard deviations) of the
    Beta(alpha, beta) posterior, clamped to [0, 1].  For the
    zero-successes case that drives early stopping this tracks the exact
    quantile closely enough, and it is a pure function — no SciPy.
    """
    n = alpha + beta
    mean = alpha / n
    var = (alpha * beta) / (n * n * (n + 1.0))
    return min(1.0, mean + z * math.sqrt(var))


class CampaignSchedule:
    """Base policy: the fixed protocol's bookkeeping, overridable planning.

    Subclasses implement :meth:`plan_round`; the base class owns the
    executor-facing surface (binding, budget/round accounting, metrics,
    the allocation log used by determinism tests).
    """

    #: the ``--schedule`` spelling of this policy.
    name = "base"

    def __init__(self) -> None:
        self._bound = False

    # -- executor surface ---------------------------------------------- #

    def bind(
        self,
        pairs: Sequence[StatementPair],
        *,
        workload: str = "",
        base_seed: int = 0,
        chunk_size: int = 25,
        grades: Sequence[bool | None] | None = None,
    ) -> None:
        """Attach the campaign's pair list; must precede ``next_batch``.

        ``workload`` names the program the pairs belong to; it leads the
        key of every timeline event the schedule emits, so the events of
        campaigns over different workloads never collide.  ``grades``
        optionally aligns a Phase-1 ``schedulable`` grade with
        each pair (``True`` = graded schedulable, ``False`` = speculative,
        ``None`` = ungraded).  The base policy only records them;
        :class:`AdaptiveSchedule` boosts graded-schedulable priors.

        Binding starts a campaign from scratch: every round counter, log
        and cursor resets, so one instance can serve campaigns in turn.
        """
        self.pairs: list[StatementPair] = list(pairs)
        self.workload = workload
        self.base_seed = base_seed
        self.chunk_size = chunk_size
        #: per-pair Phase-1 ``schedulable`` grade.
        self.grades: list[bool | None] = (
            [None] * len(self.pairs) if grades is None else list(grades)
        )
        if len(self.grades) != len(self.pairs):
            raise ValueError(
                f"grades length {len(self.grades)} != "
                f"pairs length {len(self.pairs)}"
            )
        self.rounds = 0
        self.trials_allocated = 0
        #: every allocation issued this campaign, as (pair_index,
        #: seed_start, count) — the determinism witness asserted by
        #: tests/core/test_schedule.py.
        self.allocation_log: list[tuple[int, int, int]] = []
        #: per-pair next unused seed (parallel fixed chunking and adaptive
        #: incremental allocation both consume seeds from these cursors).
        self._cursors = [base_seed] * len(self.pairs)
        self._bound = True

    def next_batch(self) -> list[TrialChunk]:
        """The next round of chunks to execute ([] = campaign done)."""
        assert self._bound, "bind() must be called before next_batch()"
        telemetry = maybe_telemetry()
        if telemetry is not None and self.rounds == 0:
            self._emit_bind_events(telemetry)
        batch = self.plan_round()
        if not batch:
            return []
        self.rounds += 1
        for chunk in batch:
            self.trials_allocated += chunk.count
            self.allocation_log.append(
                (chunk.pair_index, chunk.seed_start, chunk.count)
            )
        if telemetry is not None:
            telemetry.inc("schedule.rounds")
            telemetry.inc("schedule.trials_allocated", sum(c.count for c in batch))
            attrs = {
                "chunks": len(batch),
                "trials": sum(c.count for c in batch),
                "allocated": [
                    [c.pair_index, c.seed_start, c.count] for c in batch
                ],
            }
            attrs.update(self._round_event_attrs())
            telemetry.emit(
                "schedule.round", (self.workload, self.rounds - 1), attrs
            )
        return batch

    def record(self, chunk: TrialChunk, verdict) -> None:
        """Feed one executed chunk's delta verdict back into the policy.

        ``verdict`` is the :class:`~repro.core.results.PairVerdict` for
        *this chunk alone* (not the pair's running aggregate).  Updates
        must stay commutative: parallel executors deliver them in
        completion order.
        """

    def planned_trials(self) -> int:
        """Trials the policy still expects to issue beyond those already
        allocated (best estimate).

        Drives the ``--progress`` ETA: remaining *scheduled* work, not a
        static planned total, so early exit shrinks the estimate.
        """
        return 0

    def planned_chunks(self) -> int:
        """`planned_trials` in chunk units (the executors' work unit)."""
        return -(-self.planned_trials() // self.chunk_size)

    # -- policy hook ---------------------------------------------------- #

    def plan_round(self) -> list[TrialChunk]:
        raise NotImplementedError

    # -- helpers for subclasses ----------------------------------------- #

    def _emit_bind_events(self, telemetry) -> None:
        """Timeline: one ``schedule.bind`` summary plus a ``pair.bind``
        per pair, emitted lazily before the first planned round (so
        subclass state — posteriors, finalized budgets — exists)."""
        telemetry.emit("schedule.bind", (self.workload,), self._bind_event_attrs())
        for index in range(len(self.pairs)):
            telemetry.emit(
                "pair.bind", self._pair_key(index), self._pair_bind_attrs(index)
            )

    def _pair_key(self, index: int) -> tuple[str, str]:
        """The timeline key of pair ``index``: ``(workload, label)``."""
        return (self.workload, pair_label(self.pairs[index]))

    def _bind_event_attrs(self) -> dict:
        return {
            "policy": self.name,
            "pairs": len(self.pairs),
            "chunk_size": self.chunk_size,
            "base_seed": self.base_seed,
        }

    def _pair_bind_attrs(self, index: int) -> dict:
        # The index decodes the ``allocated`` and ``draws`` lists of this
        # campaign's ``schedule.round`` events.
        attrs = {"index": index}
        grade = self.grades[index]
        if grade is not None:
            attrs["grade"] = "schedulable" if grade else "speculative"
        return attrs

    def _round_event_attrs(self) -> dict:
        """Extra deterministic attrs for ``schedule.round`` events."""
        return {}

    def take_seeds(self, pair_index: int, count: int) -> list[TrialChunk]:
        """Consume ``count`` seeds from a pair's cursor as sized chunks."""
        start = self._cursors[pair_index]
        self._cursors[pair_index] = start + count
        return [
            TrialChunk(pair_index=pair_index, seed_start=s, count=c)
            for s, c in chunk_spans(start, count, self.chunk_size)
        ]


class FixedSchedule(CampaignSchedule):
    """The paper's protocol: every pair gets exactly ``trials`` trials.

    One batch containing every chunk, pair-major with ascending seed
    ranges — exactly the task list (parallel) and trial order (serial)
    the pre-policy drivers produced, so campaign output is ``==``-
    identical to theirs.  Table 1 reproduction pins this schedule.
    """

    name = "fixed"

    def __init__(self, trials: int = 100) -> None:
        super().__init__()
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        self.trials = trials

    def plan_round(self) -> list[TrialChunk]:
        if self.rounds > 0:
            return []
        batch: list[TrialChunk] = []
        for index in range(len(self.pairs)):
            batch.extend(self.take_seeds(index, self.trials))
        return batch

    def planned_trials(self) -> int:
        if self.rounds > 0:
            return 0
        return self.trials * len(self.pairs)


@dataclass
class _PairPosterior:
    """Beta-Bernoulli belief about one pair's race-creation probability."""

    alpha: float
    beta: float
    trials: int = 0
    created: int = 0
    stopped: bool = False

    @property
    def confirmed(self) -> bool:
        return self.created > 0

    def upper(self) -> float:
        return beta_upper_bound(self.alpha, self.beta, STOP_Z)


class AdaptiveSchedule(CampaignSchedule):
    """Bandit allocation: spend the budget where expected yield is.

    Each round draws one Thompson sample per live pair from its
    Beta(alpha, beta) posterior — using ``Random(f"{seed}:{round}")``, so
    the draw sequence is a pure function of the constructor seed and the
    (deterministic) round number — and allocates one ``chunk_size`` chunk
    to each of the :attr:`ROUND_WIDTH` highest-sampled pairs.  A pair
    leaves the live set when it is *confirmed* (one created race proves it
    real; further trials add nothing to the confirmed-race set) or
    *early-stopped* (:attr:`MIN_TRIALS` trials without a single creation
    and a posterior upper bound below :attr:`STOP_THRESHOLD`).  The
    campaign ends when the live set empties, the global ``trial_budget``
    is spent, or ``time_budget_s`` of wall-clock has elapsed (the one
    deliberately nondeterministic stop — equivalence tests leave it off).
    The four capitalized tuning values are class constants; a test that
    needs other values sets them on a subclass.
    """

    name = "adaptive"

    #: chunks granted per round, to the highest-sampled live pairs.
    ROUND_WIDTH = 8
    #: trials a pair must have had before early stopping may retire it.
    MIN_TRIALS = 25
    #: posterior upper bound below which a creation-less pair retires.
    STOP_THRESHOLD = 0.1
    #: extra prior pseudo-successes of a graded-schedulable pair.
    GRADE_BOOST = 1.0

    def __init__(
        self,
        *,
        trial_budget: int | None = None,
        time_budget_s: float | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if trial_budget is not None and trial_budget < 1:
            raise ValueError(f"trial_budget must be >= 1, got {trial_budget}")
        if time_budget_s is not None and time_budget_s <= 0:
            raise ValueError(
                f"time_budget_s must be positive, got {time_budget_s}"
            )
        self.trial_budget = trial_budget
        self.time_budget_s = time_budget_s
        self.seed = seed
        #: the default budget per pair (set by :func:`make_schedule` from
        #: ``trials`` when no ``trial_budget`` is given): each ``bind``
        #: sizes :attr:`trial_budget` to it times the campaign's pairs.
        self.trials_per_pair: int | None = None

    # -- executor surface ----------------------------------------------- #

    def bind(
        self, pairs, *, workload="", base_seed=0, chunk_size=25, grades=None
    ) -> None:
        super().bind(
            pairs,
            workload=workload,
            base_seed=base_seed,
            chunk_size=chunk_size,
            grades=grades,
        )
        if self.trials_per_pair is not None:
            self.trial_budget = self.trials_per_pair * len(self.pairs)
        self.early_stopped = 0
        self.confirmed = 0
        self.budget_exhausted = False
        self.time_exhausted = False
        # A Phase-1 "schedulable" grade is strong evidence the pair can
        # actually be brought adjacent, so it starts with extra prior
        # pseudo-successes and wins early Thompson rounds.  Deterministic
        # and off unless grades were supplied (all-None adds nothing).
        self._posteriors = [
            _PairPosterior(
                alpha=PRIOR[0] + (self.GRADE_BOOST if grade else 0.0),
                beta=PRIOR[1],
            )
            for grade in self.grades
        ]
        self._started: float | None = None
        self._last_draws: list[list] = []

    def record(self, chunk: TrialChunk, verdict) -> None:
        post = self._posteriors[chunk.pair_index]
        was_confirmed = post.confirmed
        post.trials += verdict.trials
        post.created += verdict.times_created
        post.alpha += verdict.times_created
        post.beta += verdict.trials - verdict.times_created
        if post.confirmed and not was_confirmed:
            self.confirmed += 1
            telemetry = maybe_telemetry()
            if telemetry is not None:
                telemetry.inc("schedule.pairs_confirmed")
                telemetry.emit(
                    "schedule.stop",
                    self._pair_key(chunk.pair_index),
                    {"reason": "confirmed"},
                )

    def planned_trials(self) -> int:
        live = self._live_indices()
        if not live or self.time_exhausted or self.budget_exhausted:
            return 0
        # Estimate one more round over the live set (bounded by the
        # budget) — a deliberately conservative floor that shrinks as
        # pairs resolve, which is all the ETA needs.
        planned = min(len(live), self.ROUND_WIDTH) * self.chunk_size
        if self.trial_budget is not None:
            planned = min(
                planned, max(0, self.trial_budget - self.trials_allocated)
            )
        return planned

    # -- the policy ------------------------------------------------------ #

    def _out_of_time(self) -> bool:
        if self.time_budget_s is None:
            return False
        if self._started is None:
            self._started = time.monotonic()
            return False
        if time.monotonic() - self._started >= self.time_budget_s:
            if not self.time_exhausted:
                self.time_exhausted = True
                telemetry = maybe_telemetry()
                if telemetry is not None:
                    telemetry.inc("schedule.time_budget_exhausted")
            return True
        return False

    def _retire_hopeless(self) -> None:
        for index, post in enumerate(self._posteriors):
            if post.stopped or post.confirmed:
                continue
            if post.trials < self.MIN_TRIALS:
                continue
            if post.created == 0 and post.upper() < self.STOP_THRESHOLD:
                post.stopped = True
                self.early_stopped += 1
                telemetry = maybe_telemetry()
                if telemetry is not None:
                    telemetry.inc("schedule.pairs_early_stopped")
                    # Retirement reads only the full posterior at a round
                    # boundary, so the decision is settle-order-free.
                    telemetry.emit(
                        "schedule.stop",
                        self._pair_key(index),
                        {"reason": "early_stopped"},
                    )

    def _live_indices(self) -> list[int]:
        return [
            index
            for index, post in enumerate(self._posteriors)
            if not post.stopped and not post.confirmed
        ]

    def plan_round(self) -> list[TrialChunk]:
        if self._out_of_time():
            return []
        budget_left = (
            None
            if self.trial_budget is None
            else self.trial_budget - self.trials_allocated
        )
        if budget_left is not None and budget_left <= 0:
            self.budget_exhausted = True
            return []
        self._retire_hopeless()
        live = self._live_indices()
        if not live:
            return []
        # One Thompson draw per live pair, in pair order, from an RNG
        # keyed on (seed, round): reproducible regardless of how many
        # pairs were live in earlier rounds.
        rng = Random(f"{self.seed}:{self.rounds}")
        sampled = [(rng.betavariate(
            self._posteriors[i].alpha, self._posteriors[i].beta
        ), i) for i in live]
        # The draws are pure functions of (seed, round, posterior), so
        # they are safe inside deterministic timeline events.
        self._last_draws = [
            [i, round(sample, 6)] for sample, i in sampled
        ]
        # Highest sampled win the round; ties break on pair order.
        sampled.sort(key=lambda pair: (-pair[0], pair[1]))
        winners = [i for _, i in sampled[: self.ROUND_WIDTH]]
        winners.sort()  # issue chunks in pair order within the round
        grants = [self.chunk_size] * len(winners)
        if budget_left is not None and sum(grants) > budget_left:
            # Too little budget left for a full chunk each: split it
            # evenly (the first winners in pair order take the odd
            # trials), so no winner of the round is starved.
            share, extra = divmod(budget_left, len(winners))
            grants = [
                min(grant, share + (rank < extra))
                for rank, grant in enumerate(grants)
            ]
        batch: list[TrialChunk] = []
        for index, grant in zip(winners, grants):
            if grant <= 0:
                continue
            batch.extend(self.take_seeds(index, grant))
            if budget_left is not None:
                budget_left -= grant
        if budget_left is not None and budget_left <= 0:
            self.budget_exhausted = True
        return batch

    def _bind_event_attrs(self) -> dict:
        attrs = super()._bind_event_attrs()
        attrs.update(
            {
                "round_width": self.ROUND_WIDTH,
                "grade_boost": self.GRADE_BOOST,
            }
        )
        if self.trial_budget is not None:
            attrs["trial_budget"] = self.trial_budget
        return attrs

    def _pair_bind_attrs(self, index: int) -> dict:
        attrs = super()._pair_bind_attrs(index)
        post = self._posteriors[index]
        attrs["alpha"] = post.alpha
        attrs["beta"] = post.beta
        return attrs

    def _round_event_attrs(self) -> dict:
        return {"draws": self._last_draws}


#: the ``--schedule`` registry.
SCHEDULES = ("fixed", "adaptive")


def make_schedule(
    spec: str | CampaignSchedule | None,
    *,
    trials: int = 100,
    trial_budget: int | None = None,
    time_budget_s: float | None = None,
    seed: int = 0,
) -> CampaignSchedule:
    """Resolve a ``--schedule`` spelling (or pass a policy through).

    ``None`` and ``"fixed"`` give the paper's protocol.  ``"adaptive"``
    defaults its global trial budget to ``trials`` per pair — the same
    total spend as fixed, allocated by expected yield — unless an
    explicit ``trial_budget`` overrides it; the pair count isn't known
    here, so :attr:`AdaptiveSchedule.trials_per_pair` carries the default
    to ``bind``.  A budget given with any other schedule is a
    ``ValueError``: only the adaptive policy spends one.
    """
    if spec != "adaptive" and (trial_budget is not None or time_budget_s is not None):
        raise ValueError(
            "a trial or time budget only applies to the 'adaptive' schedule, "
            f"not {'fixed' if spec is None else spec!r}"
        )
    if isinstance(spec, CampaignSchedule):
        return spec
    if spec is None or spec == "fixed":
        return FixedSchedule(trials=trials)
    if spec == "adaptive":
        schedule = AdaptiveSchedule(
            trial_budget=trial_budget,
            time_budget_s=time_budget_s,
            seed=seed,
        )
        if trial_budget is None:
            schedule.trials_per_pair = trials
        return schedule
    raise ValueError(
        f"unknown schedule {spec!r}; expected one of {', '.join(SCHEDULES)}"
    )


__all__ = [
    "TrialChunk",
    "CampaignSchedule",
    "FixedSchedule",
    "AdaptiveSchedule",
    "SCHEDULES",
    "make_schedule",
    "chunk_spans",
    "beta_upper_bound",
]
