"""Race reports: the output of Phase 1 and the input of Phase 2.

A :class:`RaceReport` is a set of distinct potentially racing
:class:`~repro.runtime.statement.StatementPair` values, with per-pair
evidence (an example location, the access kinds, how often it was seen).
Table 1's column 6 is ``len(report.pairs)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.runtime.location import Location
from repro.runtime.statement import Statement, StatementPair


#: ``evidence.get`` default telling an unseen pair from a supplied one.
_UNSEEN = object()


def _merge_schedulable(mine: bool | None, other: bool | None) -> bool | None:
    """Combine confidence grades: any schedulable witness grades the pair
    schedulable; otherwise any graded witness keeps it speculative; the
    observed-order detectors never grade (both ``None``)."""
    if mine is True or other is True:
        return True
    if mine is False or other is False:
        return False
    return None


@dataclass
class PairEvidence:
    """Why a pair was reported: one witness plus occurrence counts.

    ``schedulable`` is the predictive detectors' confidence grade:
    ``True`` means some witness of the pair is concurrent even under the
    strong-dependently-precedes order (predictable with high
    confidence), ``False`` means every witness was SDP-ordered (the pair
    is speculative), ``None`` means the detector does not grade (all
    observed-order detectors).
    """

    pair: StatementPair
    location: Location  # an example location both statements touched
    tids: tuple[int, int]  # example thread pair
    both_write: bool = False
    count: int = 1
    schedulable: bool | None = None

    def describe(self) -> str:
        kind = "write/write" if self.both_write else "read/write"
        grade = ""
        if self.schedulable is not None:
            grade = ", schedulable" if self.schedulable else ", speculative"
        return (
            f"{self.pair} on {self.location.describe()} "
            f"[{kind}, seen {self.count}x, threads {self.tids}{grade}]"
        )


@dataclass
class RaceReport:
    """All distinct potentially racing statement pairs found by a detector.

    ``evidence`` values may be ``None`` for pairs that were *supplied*
    rather than detected (a static tool, a hand-written list): the pair is
    known, but no dynamic witness exists.  Use :meth:`from_pairs` to build
    such a report.
    """

    program: str
    detector: str
    evidence: dict[StatementPair, PairEvidence | None] = field(default_factory=dict)
    #: locations whose access history overflowed the per-location cap; pairs
    #: involving only evicted accesses may have been missed.
    truncated_locations: int = 0

    @classmethod
    def from_pairs(
        cls,
        pairs: "Iterable[StatementPair]",
        *,
        program: str = "",
        detector: str = "supplied",
    ) -> "RaceReport":
        """Build a report from an explicit pair list (no dynamic evidence).

        This is how Phase 2 consumes racing pairs that did not come from a
        dynamic detector — the paper notes any source of "a set of
        statements whose simultaneous execution could lead to a concurrency
        problem" will do.
        """
        report = cls(program=program, detector=detector)
        report.evidence = {pair: None for pair in pairs}
        return report

    @property
    def pairs(self) -> list[StatementPair]:
        """Distinct racing pairs, deterministically ordered."""
        return sorted(self.evidence, key=lambda p: (str(p.first), str(p.second)))

    def record(
        self,
        s1: Statement,
        s2: Statement,
        location: Location,
        tids: tuple[int, int],
        both_write: bool,
        schedulable: bool | None = None,
    ) -> bool:
        """Add one observation; returns True if the pair is new."""
        return self.witness(
            StatementPair(s1, s2), location, tids, both_write, schedulable
        )

    def witness(
        self,
        pair: StatementPair,
        location: Location,
        tids: tuple[int, int],
        both_write: bool,
        schedulable: bool | None = None,
    ) -> bool:
        """:meth:`record` for a built pair, which a detector racing one
        access under several configurations builds once."""
        existing = self.evidence.get(pair, _UNSEEN)
        if existing is not _UNSEEN and existing is not None:
            # A detector witnesses a pair many times: merge the flags in
            # line (what _merge_schedulable computes, without the call).
            existing.count += 1
            if both_write:
                existing.both_write = True
            if schedulable is not None and existing.schedulable is not True:
                existing.schedulable = schedulable
            return False
        # New pair, or a supplied pair gaining its first dynamic witness.
        self.evidence[pair] = PairEvidence(
            pair=pair,
            location=location,
            tids=tids,
            both_write=both_write,
            schedulable=schedulable,
        )
        return existing is _UNSEEN

    def merge(self, other: "RaceReport") -> None:
        """Union another report into this one (multi-run Phase 1)."""
        for pair, info in other.evidence.items():
            mine = self.evidence.get(pair)
            if mine is None:
                self.evidence[pair] = info
            elif info is not None:
                mine.count += info.count
                mine.both_write = mine.both_write or info.both_write
                mine.schedulable = _merge_schedulable(
                    mine.schedulable, info.schedulable
                )
        self.truncated_locations += other.truncated_locations

    def __len__(self) -> int:
        return len(self.evidence)

    def __iter__(self):
        return iter(self.pairs)

    def __str__(self) -> str:
        lines = [
            f"{self.detector} report for {self.program}: "
            f"{len(self)} potential racing pair(s)"
        ]
        lines.extend(
            f"  {info.describe()}"
            for info in self.evidence.values()
            if info is not None  # supplied pair lists carry no evidence
        )
        return "\n".join(lines)


def union_reports(
    reports: "Mapping[str, RaceReport] | Iterable[RaceReport]",
    *,
    program: str | None = None,
    detector: str | None = None,
) -> RaceReport:
    """Union several detectors' reports into one Phase-2 feed.

    This is how a multi-detector Phase 1 (``detect --detector hybrid
    --detector shb ...``) becomes a single candidate-pair set: pair
    evidence merges exactly as multi-seed reports do, and the combined
    detector name records the provenance (``"hybrid+shb"``).
    """
    if isinstance(reports, Mapping):
        ordered = list(reports.values())
    else:
        ordered = list(reports)
    if not ordered:
        raise ValueError("union_reports needs at least one report")
    if detector is None:
        detector = "+".join(r.detector for r in ordered)
    if program is None:
        program = ordered[0].program
    union = RaceReport(program=program, detector=detector)
    for report in ordered:
        union.merge(report)
    return union


def schedulable_grades(
    report: RaceReport,
    pairs: "Iterable[StatementPair] | None" = None,
) -> list[bool | None]:
    """Per-pair ``schedulable`` grades aligned with ``pairs``.

    The plumbing between Phase 1's confidence grading and Phase 2's
    adaptive priors: ``True`` for pairs some predictive detector graded
    schedulable, ``False`` for graded-speculative pairs, ``None`` for
    ungraded pairs (observed-order detectors, supplied pair lists, pairs
    unknown to this report).  ``pairs`` defaults to ``report.pairs``.
    """
    if pairs is None:
        pairs = report.pairs
    grades: list[bool | None] = []
    for pair in pairs:
        info = report.evidence.get(pair)
        grades.append(None if info is None else info.schedulable)
    return grades


def _program_name(execution) -> str:
    """Name of the program under observation: ``execution.program.name``,
    or a :class:`~repro.trace.replay.ReplaySource`'s ``name``."""
    program = getattr(execution, "program", None)
    return program.name if program is not None else execution.name
