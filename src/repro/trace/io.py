"""Streaming trace I/O: write events as they happen, read them back lazily.

* :class:`TraceWriter` — append header, events, footer to a JSONL file
  (gzip-compressed when the path ends in ``.gz``);
* :class:`TraceRecorder` — an :class:`~repro.runtime.observer.ExecutionObserver`
  that streams every event of a live execution into a writer, making
  record-while-running a one-liner;
* :class:`TraceReader` — iterate events back out (header eagerly parsed,
  footer available once the stream is exhausted);
* :func:`record_execution` / :func:`load_trace` — the whole-file
  conveniences built on the above.

Writers never leave half-written files where a reader could mistake them
for complete traces: callers that publish into a shared directory (the
:class:`~repro.trace.store.TraceStore`) write to a temp name and
``os.replace`` into place.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from typing import IO, Iterable, Iterator

from repro.runtime.events import Event
from repro.runtime.interpreter import Execution, ExecutionResult
from repro.runtime.observer import ExecutionObserver
from repro.runtime.program import Program

from .schema import (
    TraceCorruptError,
    TraceFooter,
    TraceHeader,
    TraceSchemaError,
    decode_event,
    encode_event,
)


def _is_gzip(path: str) -> bool:
    return str(path).endswith(".gz")


def _open_write(path: str) -> IO[str]:
    if _is_gzip(path):
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _open_read(path: str) -> IO[str]:
    if _is_gzip(path):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


class TraceWriter:
    """Stream one execution's events into a trace file.

    Every line written before the footer feeds a running CRC32; the
    footer records that checksum plus the event count, which is what lets
    a reader detect truncation and bit rot without a second pass.
    """

    def __init__(self, path, header: TraceHeader) -> None:
        self.path = str(path)
        self.header = header
        self.events_written = 0
        self._crc = 0
        self._fh: IO[str] | None = _open_write(self.path)
        self._write_line(header.to_jsonable())

    def _write_line(self, obj: dict, *, checksum: bool = True) -> None:
        assert self._fh is not None, "writer already closed"
        line = json.dumps(obj, separators=(",", ":")) + "\n"
        if checksum:
            self._crc = zlib.crc32(line.encode("utf-8"), self._crc)
        self._fh.write(line)

    def write_event(self, event: Event) -> None:
        self._write_line(encode_event(event))
        self.events_written += 1

    def write_footer(self, result: ExecutionResult) -> None:
        self._write_line(
            TraceFooter.from_result(
                result, self.events_written, crc32=self._crc
            ).to_jsonable(),
            checksum=False,
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceRecorder(ExecutionObserver):
    """Observer that records a live execution straight to a trace file.

    The header needs the execution's provenance, so the writer is opened
    in :meth:`on_start` (when the execution is known) and finalized with
    the result footer in :meth:`on_finish`.  Recording is passive: it
    draws nothing from the execution's RNG, so a recorded run is the
    identical schedule the same seed produces unobserved.
    """

    wants_mem_events = True

    def __init__(self, path, *, scheduler: str = "") -> None:
        self.path = str(path)
        self.scheduler = scheduler
        self.writer: TraceWriter | None = None

    def on_start(self, execution) -> None:
        self.writer = TraceWriter(
            self.path,
            TraceHeader(
                program=execution.program.name,
                seed=execution.seed,
                scheduler=self.scheduler,
                max_steps=execution.max_steps,
            ),
        )

    def on_event(self, event: Event) -> None:
        assert self.writer is not None, "recorder received events before start"
        self.writer.write_event(event)

    def on_finish(self, execution) -> None:
        assert self.writer is not None
        self.writer.write_footer(execution.result)
        self.writer.close()


class TraceReader:
    """Read a trace file back: header eagerly, events streamed.

    Iterating yields :class:`~repro.runtime.events.Event` values in
    execution order; :attr:`footer` is populated once the iterator is
    exhausted (or immediately via :meth:`read_events`).

    Integrity is enforced inline: a running CRC32 mirrors the writer's,
    and the footer's recorded checksum and event count are checked the
    moment it is parsed.  Any malformed line, undecodable event, missing
    footer, or checksum mismatch raises
    :class:`~repro.trace.schema.TraceCorruptError` — never a raw
    ``json.JSONDecodeError`` or ``KeyError``.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self.footer: TraceFooter | None = None
        self.events_read = 0
        self._crc = 0
        self._lineno = 0
        self._fh: IO[str] | None = None
        try:
            self._fh = _open_read(self.path)
            first = self._fh.readline()
        except (EOFError, OSError) as exc:
            if isinstance(exc, FileNotFoundError):
                raise
            self.close()
            raise TraceCorruptError(self.path, 1, f"unreadable: {exc}")
        self._lineno = 1
        if not first.strip():
            self.close()
            raise TraceCorruptError(self.path, 0, "empty trace file")
        try:
            payload = json.loads(first)
        except ValueError as exc:
            self.close()
            raise TraceCorruptError(self.path, 1, f"malformed header: {exc}")
        try:
            self.header = TraceHeader.from_jsonable(payload)
        except (KeyError, TypeError) as exc:
            self.close()
            raise TraceCorruptError(
                self.path, 1, f"undecodable header: {exc!r}"
            )
        self._crc = zlib.crc32(first.encode("utf-8"))

    def _read_line(self) -> str:
        assert self._fh is not None, "reader already closed"
        try:
            return self._fh.readline()
        except (EOFError, OSError) as exc:
            # a truncated gzip stream surfaces here, not as short data
            raise TraceCorruptError(
                self.path, self._lineno + 1, f"unreadable: {exc}"
            )

    def _finish_footer(self, obj: dict) -> None:
        try:
            footer = TraceFooter.from_jsonable(obj)
        except (KeyError, TypeError) as exc:
            raise TraceCorruptError(
                self.path, self._lineno, f"undecodable footer: {exc!r}"
            )
        if footer.events != self.events_read:
            raise TraceCorruptError(
                self.path,
                self._lineno,
                f"event count mismatch: footer says {footer.events}, "
                f"read {self.events_read}",
            )
        if footer.crc32 is not None and footer.crc32 != self._crc:
            raise TraceCorruptError(
                self.path,
                0,
                f"checksum mismatch: footer says {footer.crc32:#010x}, "
                f"computed {self._crc:#010x}",
            )
        self.footer = footer

    def __iter__(self) -> Iterator[Event]:
        assert self._fh is not None, "reader already closed"
        try:
            yield from self._iter_events()
        except TraceCorruptError:
            self.close()
            raise
        self.close()

    def _iter_events(self) -> Iterator[Event]:
        while True:
            line = self._read_line()
            if not line:
                raise TraceCorruptError(
                    self.path, self._lineno, "truncated: footer missing"
                )
            self._lineno += 1
            stripped = line.strip()
            if not stripped:
                raise TraceCorruptError(
                    self.path, self._lineno, "blank line inside trace"
                )
            try:
                obj = json.loads(stripped)
            except ValueError as exc:
                raise TraceCorruptError(
                    self.path, self._lineno, f"malformed line: {exc}"
                )
            if isinstance(obj, dict) and obj.get("kind") == "footer":
                self._finish_footer(obj)
                break
            self._crc = zlib.crc32(line.encode("utf-8"), self._crc)
            try:
                event = decode_event(obj)
            except TraceSchemaError as exc:
                raise TraceCorruptError(self.path, self._lineno, str(exc))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise TraceCorruptError(
                    self.path, self._lineno, f"undecodable event: {exc!r}"
                )
            self.events_read += 1
            yield event

    def read_events(self) -> list[Event]:
        """Exhaust the stream into a list (footer becomes available)."""
        return list(self)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def record_execution(
    program: Program,
    scheduler,
    *,
    path,
    seed: int = 0,
    max_steps: int = 1_000_000,
    scheduler_spec: str = "",
    observers: Iterable[ExecutionObserver] = (),
) -> ExecutionResult:
    """Run ``program`` once, recording every event to ``path``.

    Extra ``observers`` (e.g. live detectors) ride along on the same
    execution, which is how the equivalence tests compare online and
    offline analysis of the *same* schedule with a single run.
    """
    from repro.obs import maybe_telemetry

    telemetry = maybe_telemetry()
    if telemetry is not None:
        telemetry.inc("trace.records")
    recorder = TraceRecorder(path, scheduler=scheduler_spec)
    execution = Execution(
        program,
        seed=seed,
        observers=[recorder, *observers],
        max_steps=max_steps,
    )
    return execution.run(scheduler)


def load_trace(path) -> tuple[TraceHeader, list[Event], TraceFooter | None]:
    """Whole-file convenience: (header, events, footer)."""
    reader = TraceReader(path)
    events = reader.read_events()
    return reader.header, events, reader.footer


def verify_trace(path) -> TraceFooter:
    """Read ``path`` end to end, enforcing integrity.

    Returns the verified footer; raises
    :class:`~repro.trace.schema.TraceCorruptError` on any damage.  This
    is the full-strength check behind ``repro store verify`` — the
    streaming reader performs the same checks for free during analysis.
    """
    with TraceReader(path) as reader:
        for _ in reader:
            pass
        assert reader.footer is not None  # missing footer raises above
        return reader.footer


def remove_partial(path) -> None:
    """Best-effort cleanup of a trace that failed mid-write."""
    try:
        os.unlink(path)
    except OSError:
        pass


__all__ = [
    "TraceWriter",
    "TraceRecorder",
    "TraceReader",
    "record_execution",
    "load_trace",
    "verify_trace",
]
