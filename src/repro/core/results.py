"""Aggregated verdicts of a race-directed testing campaign.

The paper's experimental protocol (Section 5.2) runs RaceFuzzer ~100 times
per potentially racing pair and then reports, per benchmark: how many pairs
are *real* (created at least once), which are *harmful* (an exception was
thrown in a run where the race was created), and the per-pair probability
of hitting the race.  These classes hold exactly that data and render the
per-program slice of Table 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.detectors.report import RaceReport
from repro.runtime.statement import StatementPair

from .postponing import FuzzResult


@dataclass(frozen=True)
class TaskFailure:
    """A quarantined campaign task: it failed every allowed attempt.

    The supervisor records one of these — instead of aborting the campaign
    — when a task exhausts its retry budget.  ``kind`` is the *final*
    failure mode (``crash`` / ``deadline`` / ``malformed`` / ``pool`` /
    ``stall`` / ``memory`` / ``disk``); ``history`` keeps one
    ``"kind: message"`` entry per failed
    attempt so a flaky-then-poisoned task is distinguishable from a
    consistently poisoned one.
    """

    phase: str
    index: int
    key: str
    kind: str
    attempts: int
    message: str
    history: tuple[str, ...] = ()

    def describe(self) -> str:
        return (
            f"{self.phase}[{self.index}] quarantined after "
            f"{self.attempts} attempt(s): {self.kind} — {self.message}"
        )

    def to_jsonable(self) -> dict:
        return {
            "phase": self.phase,
            "index": self.index,
            "key": self.key,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
            "history": list(self.history),
        }


@dataclass
class PairVerdict:
    """Everything RaceFuzzer learned about one potentially racing pair."""

    pair: StatementPair
    trials: int = 0
    times_created: int = 0
    #: exception type -> number of trials (with the race created) that threw it
    exceptions: Counter = field(default_factory=Counter)
    #: exception types seen in trials where the race was NOT created —
    #: these cannot be attributed to the pair.
    unattributed_exceptions: Counter = field(default_factory=Counter)
    deadlocks: int = 0
    #: trials whose execution hit the abstract ``max_steps`` budget (a
    #: possible livelock); counted, never aborted on.
    truncated: int = 0
    #: distinct statement pairs actually created while fuzzing this pair
    #: (normally {pair} or a subset; may include same-statement races).
    created_pairs: set[StatementPair] = field(default_factory=set)
    #: summed wall-clock of all trials (for the Table 1 runtime column).
    total_wall: float = 0.0
    #: quarantined seed chunks for this pair: tasks whose every retry
    #: failed, so ``trials`` is short of the requested count.
    errors: list[TaskFailure] = field(default_factory=list)

    @property
    def is_real(self) -> bool:
        """Was a real race created at least once? (Table 1, column 7 unit)"""
        return self.times_created > 0

    @property
    def is_harmful(self) -> bool:
        """Did resolving the race ever raise an exception? (column 9 unit)"""
        return bool(self.exceptions)

    @property
    def probability(self) -> float:
        """Fraction of trials that created the race (column 11)."""
        if self.trials == 0:
            return 0.0
        return self.times_created / self.trials

    def absorb(self, outcome: FuzzResult) -> None:
        """Fold one fuzzing run into the verdict.

        A crash is *attributed* to the pair only when the race was created
        in that run AND the crashing thread took part in some race hit that
        preceded the crash — otherwise an unrelated failure elsewhere in
        the program would mark every fuzzed pair harmful.
        """
        self.trials += 1
        if outcome.created:
            self.times_created += 1
            self.created_pairs |= outcome.pairs_created
        for crash in outcome.crashes:
            caused = any(
                crash.tid in hit.tids and crash.step >= hit.step
                for hit in outcome.hits
            )
            if caused:
                self.exceptions[crash.error_type] += 1
            else:
                self.unattributed_exceptions[crash.error_type] += 1
        if outcome.deadlock:
            self.deadlocks += 1
        if outcome.result.truncated:
            self.truncated += 1
        self.total_wall += outcome.result.wall_time

    def merge(self, other: "PairVerdict") -> None:
        """Fold in a verdict for the same pair computed elsewhere.

        This is the paper's "embarrassingly parallel" property made
        concrete: trials are independent seeded runs, so disjoint seed
        ranges can be fuzzed on different workers and their verdicts
        merged associatively (asserted in the integration suite).
        """
        if other.pair != self.pair:
            raise ValueError(f"cannot merge verdicts for {other.pair} into {self.pair}")
        self.trials += other.trials
        self.times_created += other.times_created
        self.exceptions.update(other.exceptions)
        self.unattributed_exceptions.update(other.unattributed_exceptions)
        self.deadlocks += other.deadlocks
        self.truncated += other.truncated
        self.created_pairs |= other.created_pairs
        self.total_wall += other.total_wall
        self.errors.extend(other.errors)

    @property
    def quarantined(self) -> bool:
        """Did any of this pair's seed chunks exhaust its retries?"""
        return bool(self.errors)

    def describe(self) -> str:
        verdict = "REAL" if self.is_real else "not created"
        bits = [f"{self.pair}: {verdict}", f"p={self.probability:.2f}"]
        if self.exceptions:
            bits.append(
                "exceptions=" + ",".join(f"{k}x{v}" for k, v in sorted(self.exceptions.items()))
            )
        if self.deadlocks:
            bits.append(f"deadlocks={self.deadlocks}")
        if self.truncated:
            bits.append(f"truncated={self.truncated}")
        if self.errors:
            bits.append(f"QUARANTINED chunks={len(self.errors)}")
        return "  ".join(bits)

    def to_jsonable(self) -> dict:
        """The checkpoint-journal form: everything deterministic plus wall.

        ``errors`` is deliberately excluded — only *successful* chunk
        verdicts are journaled, and quarantine records belong to the run
        that observed the failures, not the resumed one.
        """
        return {
            "pair": self.pair.to_token(),
            "trials": self.trials,
            "times_created": self.times_created,
            "exceptions": dict(self.exceptions),
            "unattributed_exceptions": dict(self.unattributed_exceptions),
            "deadlocks": self.deadlocks,
            "truncated": self.truncated,
            "created_pairs": [p.to_token() for p in sorted(self.created_pairs, key=str)],
            "total_wall": self.total_wall,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "PairVerdict":
        return cls(
            pair=StatementPair.from_token(data["pair"]),
            trials=data["trials"],
            times_created=data["times_created"],
            exceptions=Counter(data.get("exceptions", {})),
            unattributed_exceptions=Counter(data.get("unattributed_exceptions", {})),
            deadlocks=data.get("deadlocks", 0),
            truncated=data.get("truncated", 0),
            created_pairs={
                StatementPair.from_token(p) for p in data.get("created_pairs", [])
            },
            total_wall=data.get("total_wall", 0.0),
        )


@dataclass
class CampaignReport:
    """The outcome of a full two-phase run over one program."""

    program: str
    phase1: RaceReport
    verdicts: dict[StatementPair, PairVerdict] = field(default_factory=dict)
    #: every quarantined task of the campaign, both phases — a Phase-1
    #: seed whose detection run kept failing, or a Phase-2 (pair, chunk)
    #: whose trials could not be completed.  A non-empty list means the
    #: campaign *finished* but its coverage is incomplete.
    failures: list[TaskFailure] = field(default_factory=list)

    @property
    def quarantined(self) -> bool:
        """Did any task of this campaign end quarantined?"""
        return bool(self.failures) or any(
            v.quarantined for v in self.verdicts.values()
        )

    @property
    def potential_pairs(self) -> int:
        """Table 1, column 6 ("Hybrid # of races")."""
        return len(self.phase1)

    @property
    def real_pairs(self) -> list[StatementPair]:
        """Table 1, column 7 ("RF (real)") — distinct real racing pairs.

        Counted over the pairs actually *created*, so a Phase-1 pair whose
        fuzzing surfaced a related real pair contributes what was proven.
        """
        created: set[StatementPair] = set()
        for verdict in self.verdicts.values():
            created |= verdict.created_pairs
        return sorted(created, key=str)

    @property
    def harmful_pairs(self) -> list[StatementPair]:
        """Table 1, column 9 — pairs whose race led to an exception."""
        return sorted(
            (v.pair for v in self.verdicts.values() if v.is_harmful), key=str
        )

    @property
    def exception_types(self) -> Counter:
        total: Counter = Counter()
        for verdict in self.verdicts.values():
            total.update(verdict.exceptions)
        return total

    def mean_probability(self) -> float:
        """Table 1, column 11 — average over pairs confirmed real."""
        probs = [v.probability for v in self.verdicts.values() if v.is_real]
        if not probs:
            return 0.0
        return sum(probs) / len(probs)

    def verdict_for(self, pair: StatementPair) -> PairVerdict:
        return self.verdicts[pair]

    def __str__(self) -> str:
        lines = [
            f"RaceFuzzer campaign on {self.program}: "
            f"{self.potential_pairs} potential, {len(self.real_pairs)} real, "
            f"{len(self.harmful_pairs)} harmful"
            + (f", {len(self.failures)} quarantined task(s)" if self.failures else "")
        ]
        lines.extend(f"  {v.describe()}" for v in self.verdicts.values())
        lines.extend(f"  {failure.describe()}" for failure in self.failures)
        return "\n".join(lines)
