"""Statement identity — the ``s`` in the paper's ``NextStmt(s, t)``.

The paper instruments Java bytecode, so a "statement" is a bytecode site
(class, method, line).  Our analog is the source site of the ``yield`` that
produced an operation: ``(file, line, function)``.  Programs may also attach
an explicit ``label`` (the worked examples in Figures 1 and 2 use labels like
``"thread1:5"`` so reports read like the paper).

Identity rules
--------------
* If a statement has a label, the label alone defines identity.  Two ops
  labelled ``"t1:5"`` are the same statement even if emitted from different
  source lines (this lets helpers emit on behalf of a labelled site).
* Otherwise identity is the source site ``(file, line)``.

Statements are value objects: hashable, comparable, and stable across
executions — which is what lets Phase 2 consume the racing pairs that
Phase 1 computed in a *different* execution.

Hot-path notes
--------------
Statements are the single most-allocated value object in an execution (one
per step in the naive design), so the engine goes through the interning
helpers below instead of the constructor: :func:`statement_at` caches one
``Statement`` per ``(code object, line)`` site and :func:`label_statement`
one per label string.  Interned instances also cache their hash, so the
race-set membership test RaceFuzzer performs at every sync point costs one
dict probe with a precomputed hash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: the ``repro`` package directory, with a trailing separator, spelled as
#: the ``co_filename`` of its modules is (see :meth:`Statement.to_token`).
_PACKAGE_DIR = os.path.dirname(os.path.dirname(__file__)) + os.sep


@dataclass(frozen=True, slots=True)
class Statement:
    """A program statement site.

    Attributes:
        file: source file of the ``yield`` (empty for labelled statements).
        line: source line of the ``yield`` (0 for labelled statements).
        func: qualified name of the enclosing function, for display only.
        label: optional explicit statement name overriding source identity.
    """

    file: str = ""
    line: int = 0
    func: str = field(default="", compare=False)
    label: str | None = None
    #: lazily computed hash (identity is immutable, so caching is sound).
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.label is not None:
            # Labelled statements compare by label only.
            object.__setattr__(self, "file", "")
            object.__setattr__(self, "line", 0)

    def __hash__(self) -> int:
        # Mirrors the generated dataclass hash (compare-fields tuple) but
        # computes it once; race-set lookups hash the same statement on
        # every sync point of every Phase 2 trial.
        h = self._hash
        if h is None:
            h = hash((self.file, self.line, self.label))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def site(self) -> str:
        """Human-readable site name used in race reports."""
        if self.label is not None:
            return self.label
        short = self.file.rsplit("/", 1)[-1]
        if self.func:
            return f"{short}:{self.line}({self.func})"
        return f"{short}:{self.line}"

    def to_token(self) -> dict:
        """Stable JSON-safe encoding; round-trips via :meth:`from_token`.

        The one on-disk spelling of a statement (trace rows, checkpoint
        journal records and keys).  A file inside the ``repro`` package is
        written relative to it under ``p``, so a token read in another
        checkout names that checkout's file; any other file is written
        verbatim under ``f``.  Keys with default values are omitted,
        keeping serialized traces compact (MEM events dominate a trace
        and each carries a statement).
        """
        token: dict = {}
        if self.file.startswith(_PACKAGE_DIR):
            token["p"] = self.file[len(_PACKAGE_DIR):]
        elif self.file:
            token["f"] = self.file
        if self.line:
            token["l"] = self.line
        if self.func:
            token["fn"] = self.func
        if self.label is not None:
            token["lb"] = self.label
        return token

    @classmethod
    def from_token(cls, token: dict) -> "Statement":
        package_file = token.get("p")
        return cls(
            file=token.get("f", "") if package_file is None
            else _PACKAGE_DIR + package_file,
            line=token.get("l", 0),
            func=token.get("fn", ""),
            label=token.get("lb"),
        )

    def __str__(self) -> str:
        return self.site

    def __repr__(self) -> str:
        return f"Statement({self.site!r})"


@dataclass(frozen=True, slots=True)
class StatementPair:
    """An unordered pair of statements — a (potentially) racing pair.

    The pair is normalized so that ``StatementPair(a, b) == StatementPair(b, a)``;
    this is the unit the paper counts in Table 1 ("distinct pairs of
    statements for which there is a race").
    """

    first: Statement
    second: Statement

    def __post_init__(self) -> None:
        a, b = self.first, self.second
        if _sort_key(b) < _sort_key(a):
            object.__setattr__(self, "first", b)
            object.__setattr__(self, "second", a)

    def __contains__(self, stmt: Statement) -> bool:
        return stmt == self.first or stmt == self.second

    def other(self, stmt: Statement) -> Statement:
        """Return the member of the pair that is not ``stmt``."""
        if stmt == self.first:
            return self.second
        if stmt == self.second:
            return self.first
        raise ValueError(f"{stmt} is not a member of {self}")

    def to_token(self) -> list[dict]:
        """The pair as its two statements' tokens, in pair order."""
        return [self.first.to_token(), self.second.to_token()]

    @classmethod
    def from_token(cls, token: list) -> "StatementPair":
        return cls(Statement.from_token(token[0]), Statement.from_token(token[1]))

    def __str__(self) -> str:
        return f"({self.first.site}, {self.second.site})"

    def __repr__(self) -> str:
        return f"StatementPair{self}"


def _sort_key(stmt: Statement) -> tuple[str, str, int]:
    return (stmt.label or "", stmt.file, stmt.line)


# --------------------------------------------------------------------- #
# interning — one Statement per site, shared by every execution in the
# process.  Both caches are bounded by the program text (distinct yield
# sites / distinct labels), not by execution length.
# --------------------------------------------------------------------- #

_SITE_CACHE: dict[tuple, Statement] = {}
_LABEL_CACHE: dict[str, Statement] = {}

#: sentinel site for an op attributed to an already-finished generator
#: (should not happen mid-yield; kept for crash attribution robustness).
FINISHED_STATEMENT = Statement(file="<finished>", line=0)


def statement_at(code, line: int) -> Statement:
    """The interned :class:`Statement` for a ``(code object, line)`` site.

    This replaces per-step ``Statement`` construction: the engine captures
    the raw ``(f_code, f_lineno)`` pair at yield time (two attribute reads)
    and materializes the statement here only when something actually needs
    it — an event, a race-set probe, a crash report.
    """
    key = (code, line)
    stmt = _SITE_CACHE.get(key)
    if stmt is None:
        func = getattr(code, "co_qualname", code.co_name)
        stmt = Statement(file=code.co_filename, line=line, func=func)
        _SITE_CACHE[key] = stmt
    return stmt


def label_statement(label: str) -> Statement:
    """The interned :class:`Statement` for an explicit op label."""
    stmt = _LABEL_CACHE.get(label)
    if stmt is None:
        stmt = Statement(label=label)
        _LABEL_CACHE[label] = stmt
    return stmt
