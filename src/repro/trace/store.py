"""Content-addressed cache of recorded execution traces.

Executions are the expensive half of Phase 1 — a detector pass over an
event stream is cheap by comparison.  The :class:`TraceStore` makes the
execution a cacheable artifact: traces are keyed by everything that
varies in the event stream —

    (workload, seed, max_steps, schema version)

— and *nothing* that doesn't (detector choice, history caps: those are
analysis parameters, which is the whole point of record-once /
analyze-many).  Every entry is a Phase-1 execution recorded under
:data:`PHASE1_SCHEDULER`, so the scheduler is provenance in the trace
header, not part of the key.  A warm store answers ``detect_races``
campaigns with zero program executions; a schema bump or any
execution-parameter change misses cleanly and re-records.

Concurrency: workers recording into a shared store write to a unique temp
name and ``os.replace`` into the final path, so concurrent recorders of
the same key race benignly (identical deterministic content; last rename
wins) and readers never observe a partial file.

Durability: the store never trusts its own disk.  A cached entry that
fails integrity checks on read (see
:class:`~repro.trace.schema.TraceCorruptError`) is quarantined to a
sidecar directory and transparently re-recorded — via
:meth:`TraceStore.with_recovery`, a corrupt entry costs one execution,
never the campaign.  The store has one behaviour in every process: it
always publishes what it records and never deletes an entry except to
quarantine it, so it behaves the same at every ``jobs``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.obs import maybe_telemetry
from repro.runtime.program import Program

from .io import record_execution, remove_partial
from .schema import SCHEMA_VERSION, TraceCorruptError

#: subdirectory (under the store root) where corrupt entries are moved.
QUARANTINE_DIR = "quarantine"

#: the scheduler every stored trace was recorded under, written into
#: each trace header as provenance.
PHASE1_SCHEDULER = "random:every"


@dataclass(frozen=True)
class TraceKey:
    """Everything that determines a recorded event stream, and only that."""

    workload: str
    seed: int
    max_steps: int = 1_000_000
    schema: int = SCHEMA_VERSION

    def canonical(self) -> str:
        return json.dumps(
            {
                "workload": self.workload,
                "seed": self.seed,
                "max_steps": self.max_steps,
                "schema": self.schema,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]


@dataclass
class StoreStats:
    """Cache behaviour of one store instance (asserted in tests/benches)."""

    hits: int = 0
    misses: int = 0
    #: program executions this store performed to fill misses — the number
    #: a warm cache drives to zero.
    executions: int = 0
    #: corrupt entries quarantined on read.
    corrupt: int = 0
    #: corrupt entries transparently re-recorded by :meth:`with_recovery`.
    recovered: int = 0


class TraceStore:
    """Filesystem cache mapping :class:`TraceKey` -> trace file.

    Parameters:
        fsync: fsync each trace (and the store directory) before
            publishing — survives power loss at the cost of write latency.
    """

    def __init__(self, root, *, fsync: bool = False) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.stats = StoreStats()

    # -- addressing ---------------------------------------------------- #

    def path_for(self, key: TraceKey) -> Path:
        return self.root / f"{key.workload}-s{key.seed}-{key.digest()}.jsonl"

    def get(self, key: TraceKey) -> Path | None:
        """The cached trace for ``key``, if the store has it."""
        path = self.path_for(key)
        return path if path.exists() else None

    # -- record-or-load ------------------------------------------------- #

    def ensure(self, key: TraceKey, program: Program) -> Path:
        """Return a trace for ``key``, executing the program only on miss."""
        telemetry = maybe_telemetry()
        cached = self.get(key)
        if cached is not None:
            self.stats.hits += 1
            if telemetry is not None:
                telemetry.inc("trace.store_hits")
                self._emit_store_event(telemetry, key, "hit")
            return cached
        self.stats.misses += 1
        if telemetry is not None:
            telemetry.inc("trace.store_misses")
            self._emit_store_event(telemetry, key, "miss")
        # Imported here: repro.core imports this package at module load.
        from repro.core.schedulers import RandomScheduler

        final = self.path_for(key)
        tmp = final.parent / f"{final.stem}.{os.getpid()}.tmp.jsonl"
        try:
            self.stats.executions += 1
            record_execution(
                program,
                RandomScheduler(preemption="every"),
                path=tmp,
                seed=key.seed,
                max_steps=key.max_steps,
                scheduler_spec=PHASE1_SCHEDULER,
            )
        except BaseException:
            remove_partial(tmp)
            raise
        if telemetry is not None:
            telemetry.inc("trace.store_executions")
            telemetry.inc("trace.store_bytes", tmp.stat().st_size)
        if self.fsync:
            self._fsync_file(tmp)
        os.replace(tmp, final)
        if self.fsync:
            self._fsync_dir()
        return final

    @staticmethod
    def _emit_store_event(telemetry, key: TraceKey, outcome: str) -> None:
        """"store" is a non-deterministic timeline kind: hit or miss depends
        on what the store held before the run, so the event rides in the
        run report's timeline section but never in its deterministic
        projection."""
        telemetry.emit(
            "store",
            (key.workload, key.seed, outcome),
            {"max_steps": key.max_steps},
            wall_s=time.time(),
        )

    def _fsync_file(self, path: Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _fsync_dir(self) -> None:
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- corruption recovery -------------------------------------------- #

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def quarantine(self, path, reason: str) -> Path | None:
        """Move a damaged entry out of the cache, preserving the evidence.

        The file lands in ``<root>/quarantine/`` (suffixed ``.N`` on name
        collision) next to a ``.reason`` sidecar recording why.  Returns
        the quarantined path, or ``None`` if the file vanished first.
        """
        src = Path(path)
        self.stats.corrupt += 1
        telemetry = maybe_telemetry()
        if telemetry is not None:
            telemetry.inc("trace.store_corrupt")
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self.quarantine_dir / src.name
        n = 0
        while dest.exists():
            n += 1
            dest = self.quarantine_dir / f"{src.name}.{n}"
        try:
            os.replace(src, dest)
        except FileNotFoundError:
            return None
        dest.with_name(dest.name + ".reason").write_text(reason + "\n")
        return dest

    def with_recovery(
        self,
        key: TraceKey,
        program: Program,
        consume: Callable[[Path], object],
    ):
        """Run ``consume(path)`` on the trace for ``key``, healing corruption.

        On :class:`~repro.trace.schema.TraceCorruptError` the damaged
        entry is quarantined, the trace re-recorded (and re-published
        atomically), and ``consume`` retried once — so a corrupt cache
        entry costs one execution, never the campaign.  A second failure
        propagates: that is fresh-recording corruption, i.e. a real bug
        or a dying disk, not bit rot.  An entry that vanished before it
        was read (another process quarantined it) is re-recorded once the
        same way, without quarantine.
        """
        path = self.ensure(key, program)
        corrupt = False
        try:
            return consume(path)
        except FileNotFoundError:
            pass
        except TraceCorruptError as exc:
            self.quarantine(exc.path, exc.reason)
            corrupt = True
        result = consume(self.ensure(key, program))
        if corrupt:
            self.stats.recovered += 1
            telemetry = maybe_telemetry()
            if telemetry is not None:
                telemetry.inc("trace.store_recovered")
        return result


def detect_key(
    workload: str, seed: int, *, max_steps: int = 1_000_000
) -> TraceKey:
    """The cache key of one Phase-1 detection execution."""
    return TraceKey(workload=workload, seed=seed, max_steps=max_steps)


__all__ = [
    "PHASE1_SCHEDULER",
    "QUARANTINE_DIR",
    "TraceKey",
    "TraceStore",
    "StoreStats",
    "detect_key",
]
