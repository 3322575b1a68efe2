"""Versioned wire schema for serialized execution traces.

One trace file is a JSONL stream: a header object, one positional row
per runtime event in execution order, and a footer object summarizing the
:class:`~repro.runtime.interpreter.ExecutionResult`.

An event row is a JSON array ``[kind, step, tid, ...]`` with a small
integer ``kind``; a memory access is ``[0, step, tid, stmt, loc,
is_write, lockset]``.  Statements, locations, locks and locksets travel
through define-on-first-use tables: the first row that uses one writes
it in full as ``[id, token]`` (a lockset's token is the list of its lock
refs), and every later row names it by the bare int ``id``.  The tables
live on a stateful :class:`EventEncoder` / :class:`EventDecoder` pair,
one per trace file, so a trace adds no lines beyond its events and the
decoder hands out one shared object per table entry.  Tokens are the
stable encodings the runtime value objects define, so decoded events
compare equal to the originals -- display fields (``Statement.func``,
``Location.name``, ``LockId.name``) included: an equal object that comes
back with other display fields redefines its slot.

Versioning discipline: ``SCHEMA_VERSION`` bumps on any change to the
encoding of existing event kinds or tokens.  The version is part of both
the header (checked on read) and the :class:`~repro.trace.store.TraceKey`
cache key (so a schema bump invalidates every cached trace rather than
misdecoding it).  Adding a *new* event kind is also a bump: old readers
must fail loudly instead of silently dropping events an analysis needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.events import (
    Access,
    AcquireEvent,
    DeadlockEvent,
    ErrorEvent,
    ErrorInfo,
    Event,
    MemEvent,
    RcvEvent,
    ReleaseEvent,
    SndEvent,
    ThreadEndEvent,
    ThreadStartEvent,
)
from repro.runtime.interpreter import ExecutionResult
from repro.runtime.location import Location, LockId, location_from_token
from repro.runtime.statement import Statement

#: bump on ANY change to event/token encodings (see module docstring).
#: v2: the footer carries a CRC32 of every preceding line plus the event
#: count, and readers enforce both (integrity became part of the format).
#: v3: positional event rows with define-on-first-use tables for
#: statements, locations, locks and locksets; the footer must carry the CRC.
#: v4: a statement token names a file inside the ``repro`` package by
#: its package-relative path (``p``), so a store serves any checkout.
SCHEMA_VERSION = 4


class TraceSchemaError(ValueError):
    """A trace file does not conform to the schema this reader speaks."""


class TraceCorruptError(TraceSchemaError):
    """A trace file is damaged: malformed, truncated, or checksum-failing.

    Distinct from a plain :class:`TraceSchemaError` (an honest version
    mismatch): corruption means the *bytes* are wrong — a torn write, a
    flipped bit, a truncated download.  The :class:`~repro.trace.store.
    TraceStore` treats it as recoverable (quarantine the entry,
    re-record); everything else should treat it as "this file is not
    evidence".

    Attributes:
        path: the trace file.
        offset: 1-based line number where corruption was detected (0 when
            the whole file is implicated, e.g. a checksum mismatch only
            noticed at the footer).
        reason: what check failed.
    """

    def __init__(self, path, offset: int, reason: str) -> None:
        self.path = str(path)
        self.offset = offset
        self.reason = reason
        where = f"line {offset}" if offset else "whole file"
        super().__init__(f"{self.path}: corrupt trace ({where}): {reason}")


# --------------------------------------------------------------------- #
# header / footer
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TraceHeader:
    """First line of a trace: provenance of the recorded execution."""

    program: str
    seed: int
    scheduler: str
    max_steps: int
    schema: int = SCHEMA_VERSION

    def to_jsonable(self) -> dict:
        return {
            "kind": "header",
            "schema": self.schema,
            "program": self.program,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "max_steps": self.max_steps,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "TraceHeader":
        if data.get("kind") != "header":
            raise TraceSchemaError("trace does not start with a header line")
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise TraceSchemaError(
                f"trace schema v{schema} is not the supported v{SCHEMA_VERSION}"
            )
        return cls(
            program=data["program"],
            seed=data["seed"],
            scheduler=data.get("scheduler", ""),
            max_steps=data.get("max_steps", 0),
            schema=schema,
        )


@dataclass(frozen=True)
class TraceFooter:
    """Last line of a trace: the execution's outcome summary.

    ``events`` and ``crc32`` double as the file's integrity record: the
    CRC covers every line *before* the footer (header included), so a
    reader that streamed the whole file can verify both the count and the
    checksum the moment it parses this line.
    """

    steps: int = 0
    events: int = 0
    crashes: tuple[dict, ...] = ()
    deadlock: bool = False
    deadlocked_tids: tuple[int, ...] = ()
    truncated: bool = False
    #: CRC32 of every preceding line's bytes (header + events, newlines
    #: included); ``None`` only in hand-built footers.
    crc32: int | None = None

    @classmethod
    def from_result(
        cls, result: ExecutionResult, events: int, *, crc32: int | None = None
    ) -> "TraceFooter":
        return cls(
            steps=result.steps,
            events=events,
            crashes=tuple(
                {
                    "tid": crash.tid,
                    "name": crash.name,
                    "e": _encode_error(crash.error),
                    "st": crash.stmt.to_token() if crash.stmt else None,
                    "step": crash.step,
                }
                for crash in result.crashes
            ),
            deadlock=result.deadlock,
            deadlocked_tids=tuple(result.deadlocked_tids),
            truncated=result.truncated,
            crc32=crc32,
        )

    def to_jsonable(self) -> dict:
        return {
            "kind": "footer",
            "steps": self.steps,
            "events": self.events,
            "crashes": list(self.crashes),
            "deadlock": self.deadlock,
            "deadlocked_tids": list(self.deadlocked_tids),
            "truncated": self.truncated,
            "crc32": self.crc32,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "TraceFooter":
        return cls(
            steps=data.get("steps", 0),
            events=data.get("events", 0),
            crashes=tuple(data.get("crashes", ())),
            deadlock=data.get("deadlock", False),
            deadlocked_tids=tuple(data.get("deadlocked_tids", ())),
            truncated=data.get("truncated", False),
            crc32=data.get("crc32"),
        )


# --------------------------------------------------------------------- #
# event codec
# --------------------------------------------------------------------- #


def _encode_error(info: ErrorInfo | None) -> dict | None:
    if info is None:
        return None
    token: dict = {"t": info.type}
    if info.message:
        token["m"] = info.message
    if info.module:
        token["mod"] = info.module
    return token


def _decode_error(token: dict | None) -> ErrorInfo | None:
    if token is None:
        return None
    try:
        return ErrorInfo(
            type=token["t"], message=token.get("m", ""), module=token.get("mod", "")
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise TraceSchemaError(f"malformed error token {token!r}: {exc!r}") from None


#: positional row kinds; a row is ``[kind, step, tid, *payload]``.
MEM, SND, RCV, ACQ, REL, TS, TE, ERR, DL = range(9)

_WRITE = Access.WRITE
_READ = Access.READ

#: builds an event from its fields in order (see :mod:`repro.runtime.events`).
_new = tuple.__new__


def _ref(table: dict, value, display: str):
    """``value``'s id in ``table``, or its ``[id, token]`` definition.

    A value is defined on first use, and redefined under the same id when
    its ``display`` field differs from the object last defined there
    (``==`` ignores display fields, so the table lookup cannot tell).
    """
    entry = table.get(value)
    if entry is None:
        vid = len(table)
    else:
        vid, known = entry
        if known is value or getattr(known, display) == getattr(value, display):
            return vid
    table[value] = (vid, value)
    return [vid, value.to_token()]


class EventEncoder:
    """Events -> positional rows, defining table entries on first use.

    One encoder serves one trace file: its tables are the writer-side
    mirror of what an :class:`EventDecoder` of the same rows will hold.
    Each table maps a value to ``(id, the object last defined there)``.
    """

    def __init__(self) -> None:
        self._stmts: dict[Statement, tuple[int, Statement]] = {}
        self._locs: dict[Location, tuple[int, Location]] = {}
        self._locks: dict[LockId, tuple[int, LockId]] = {}
        #: lockset -> (id, {lock uid: lock name} as defined)
        self._locksets: dict[frozenset, tuple[int, dict[int, str]]] = {}

    def _stmt(self, stmt: Statement | None):
        return None if stmt is None else _ref(self._stmts, stmt, "func")

    def _lock(self, lock: LockId):
        return _ref(self._locks, lock, "name")

    def _lockset(self, locks: frozenset):
        entry = self._locksets.get(locks)
        if entry is None:
            sid = len(self._locksets)
        else:
            sid, names = entry
            for lock in locks:
                if names[lock.uid] != lock.name:
                    break
            else:
                return sid
        self._locksets[locks] = (sid, {lock.uid: lock.name for lock in locks})
        ordered = sorted(locks, key=lambda lock: lock.uid)
        return [sid, [self._lock(lock) for lock in ordered]]

    def encode(self, event: Event) -> list:
        """One event -> one JSON-safe row (the trace line payload)."""
        if isinstance(event, MemEvent):
            return [
                MEM,
                event.step,
                event.tid,
                _ref(self._stmts, event.stmt, "func"),
                _ref(self._locs, event.location, "name"),
                1 if event.access is _WRITE else 0,
                self._lockset(event.locks_held),
            ]
        if isinstance(event, SndEvent):
            return [SND, event.step, event.tid, event.msg_id]
        if isinstance(event, RcvEvent):
            return [RCV, event.step, event.tid, event.msg_id]
        if isinstance(event, AcquireEvent):
            lock, stmt = self._lock(event.lock), self._stmt(event.stmt)
            return [ACQ, event.step, event.tid, lock, stmt]
        if isinstance(event, ReleaseEvent):
            lock, stmt = self._lock(event.lock), self._stmt(event.stmt)
            return [REL, event.step, event.tid, lock, stmt]
        if isinstance(event, ThreadStartEvent):
            return [TS, event.step, event.tid, event.child, event.name]
        if isinstance(event, ThreadEndEvent):
            return [TE, event.step, event.tid, _encode_error(event.error)]
        if isinstance(event, ErrorEvent):
            return [
                ERR,
                event.step,
                event.tid,
                self._stmt(event.stmt),
                _encode_error(event.error),
            ]
        if isinstance(event, DeadlockEvent):
            return [DL, event.step, event.tid, list(event.blocked)]
        raise TraceSchemaError(
            f"cannot encode unknown event type {type(event).__name__}"
        )


def _define(table: dict, definition, build):
    """Store ``build(token)`` under a ``[id, token]`` definition's id.

    Ids are dense: a definition either redefines a known id or adds the
    next one, so anything else is damage, not a schema variant.
    """
    try:
        slot, token = definition
        if slot.__class__ is not int or not 0 <= slot <= len(table):
            raise ValueError(f"id {slot!r} out of sequence")
        value = build(token)
    except TraceSchemaError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TraceSchemaError(
            f"malformed table definition {definition!r}: {exc!r}"
        ) from None
    table[slot] = value
    return value


class EventDecoder:
    """Positional rows -> events, holding the tables the rows define.

    The mirror of :class:`EventEncoder`: one decoder per trace file, fed
    its rows in order.  Each table entry is built once, so every event
    that names it shares one ``Statement``/``Location``/``LockId`` or
    lockset ``frozenset`` whose hash is cached after first use.  A row
    naming an id no earlier row defined raises :class:`TraceSchemaError`.
    """

    def __init__(self) -> None:
        self._stmts: dict[int, Statement] = {}
        self._locs: dict[int, Location] = {}
        self._locks: dict[int, LockId] = {}
        self._locksets: dict[int, frozenset] = {}

    def _stmt(self, ref) -> Statement | None:
        if ref.__class__ is int:
            return self._stmts[ref]
        if ref is None:
            return None
        return _define(self._stmts, ref, Statement.from_token)

    def _lock(self, ref) -> LockId:
        if ref.__class__ is int:
            return self._locks[ref]
        return _define(self._locks, ref, LockId.from_token)

    def _lockset(self, refs) -> frozenset:
        return frozenset([self._lock(ref) for ref in refs])

    def decode(self, row: list) -> Event:
        """One trace line payload -> the event it encoded (value-equal)."""
        try:
            kind = row[0]
            if kind == MEM:
                _, step, tid, stmt, loc, write, locks = row
                if stmt.__class__ is int:
                    stmt = self._stmts[stmt]
                else:
                    stmt = _define(self._stmts, stmt, Statement.from_token)
                if loc.__class__ is int:
                    loc = self._locs[loc]
                else:
                    loc = _define(self._locs, loc, location_from_token)
                if locks.__class__ is int:
                    locks = self._locksets[locks]
                else:
                    locks = _define(self._locksets, locks, self._lockset)
                access = _WRITE if write else _READ
                return _new(MemEvent, (step, tid, stmt, loc, access, locks))
            step, tid = row[1], row[2]
            if kind == SND:
                return _new(SndEvent, (step, tid, row[3]))
            if kind == RCV:
                return _new(RcvEvent, (step, tid, row[3]))
            if kind == ACQ:
                lock, stmt = self._lock(row[3]), self._stmt(row[4])
                return _new(AcquireEvent, (step, tid, lock, stmt))
            if kind == REL:
                lock, stmt = self._lock(row[3]), self._stmt(row[4])
                return _new(ReleaseEvent, (step, tid, lock, stmt))
            if kind == TS:
                return _new(ThreadStartEvent, (step, tid, row[3], row[4]))
            if kind == TE:
                return _new(ThreadEndEvent, (step, tid, _decode_error(row[3])))
            if kind == ERR:
                stmt, error = self._stmt(row[3]), _decode_error(row[4])
                return _new(ErrorEvent, (step, tid, stmt, error))
            if kind == DL:
                return _new(DeadlockEvent, (step, tid, tuple(row[3])))
        except KeyError as exc:
            # _define and _decode_error raise their own errors, so a bare
            # KeyError here is a lookup of an id no earlier row defined.
            raise TraceSchemaError(f"undefined table id {exc}") from None
        raise TraceSchemaError(f"unknown event kind {kind!r} in trace")


__all__ = [
    "SCHEMA_VERSION",
    "TraceSchemaError",
    "TraceCorruptError",
    "TraceHeader",
    "TraceFooter",
    "EventEncoder",
    "EventDecoder",
]
