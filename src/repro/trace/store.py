"""Content-addressed cache of recorded execution traces.

Executions are the expensive half of Phase 1 — a detector pass over an
event stream is cheap by comparison.  The :class:`TraceStore` makes the
execution a cacheable artifact: traces are keyed by everything that
determines the event stream —

    (workload, seed, scheduler spec, max_steps, schema version)

— and *nothing* that doesn't (detector choice, history caps: those are
analysis parameters, which is the whole point of record-once /
analyze-many).  A warm store answers ``detect_races`` campaigns with zero
program executions; a schema bump or any execution-parameter change
misses cleanly and re-records.

Concurrency: workers recording into a shared store write to a unique temp
name and ``os.replace`` into the final path, so concurrent recorders of
the same key race benignly (identical deterministic content; last rename
wins) and readers never observe a partial file.

Durability: the store never trusts its own disk.  A cached entry that
fails integrity checks on read (see
:class:`~repro.trace.schema.TraceCorruptError`) is quarantined to a
sidecar directory and transparently re-recorded — via
:meth:`TraceStore.with_recovery`, a corrupt entry costs one execution,
never the campaign.  A disk budget (``max_bytes`` / ``max_entries``)
bounds the cache with LRU-by-mtime eviction, and a
:class:`~repro.obs.health.HealthController` can switch the store to
*ephemeral* recording (analyze-and-discard, cache stops growing) once
disk pressure repeats.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.obs import HealthController, maybe_telemetry
from repro.runtime.program import Program

from .io import TraceReader, record_execution, remove_partial, verify_trace
from .schema import SCHEMA_VERSION, TraceCorruptError

#: subdirectory (under the store root) where corrupt entries are moved.
QUARANTINE_DIR = "quarantine"

#: scheduler spec used by every Phase-1 detection run.
PHASE1_SCHEDULER = "random:every"


def scheduler_from_spec(spec: str):
    """Build the scheduler a spec string names.

    Specs are the serializable identity of a scheduling policy:
    ``random:every``, ``random:sync``, or ``default``.  (Imported lazily:
    schedulers live in :mod:`repro.core`, which itself imports this
    package at module load.)
    """
    from repro.core.schedulers import DefaultScheduler, RandomScheduler

    if spec == "default":
        return DefaultScheduler()
    if spec.startswith("random:"):
        return RandomScheduler(preemption=spec.split(":", 1)[1])
    raise ValueError(f"unknown scheduler spec {spec!r}")


@dataclass(frozen=True)
class TraceKey:
    """Everything that determines a recorded event stream, and only that."""

    workload: str
    seed: int
    scheduler: str = PHASE1_SCHEDULER
    max_steps: int = 1_000_000
    schema: int = SCHEMA_VERSION

    def canonical(self) -> str:
        return json.dumps(
            {
                "workload": self.workload,
                "seed": self.seed,
                "scheduler": self.scheduler,
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
    #: entries deleted by the disk budget (LRU) or an explicit ``gc``.
    evictions: int = 0
    evicted_bytes: int = 0
    #: recordings that were analyzed and discarded (recording disabled).
    ephemeral: int = 0


class TraceStore:
    """Filesystem cache mapping :class:`TraceKey` -> trace file.

    Parameters:
        compress: record ``.jsonl.gz`` instead of plain ``.jsonl``.
        max_bytes: disk budget — total bytes of cached traces after which
            the oldest entries (by mtime) are evicted.  ``None`` = no cap.
        max_entries: same budget expressed as an entry count.
        fsync: fsync each trace (and the store directory) before
            publishing — survives power loss at the cost of write latency.
        health: campaign :class:`~repro.obs.health.HealthController` to
            notify of corruption/budget signals and to consult for the
            ephemeral-recording policy.  ``None`` = standalone store,
            always persists.
    """

    def __init__(
        self,
        root,
        *,
        compress: bool = False,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        fsync: bool = False,
        health: HealthController | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compress = compress
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.fsync = fsync
        self.health = health
        self.stats = StoreStats()

    # -- addressing ---------------------------------------------------- #

    def path_for(self, key: TraceKey) -> Path:
        suffix = ".jsonl.gz" if self.compress else ".jsonl"
        return self.root / f"{key.workload}-s{key.seed}-{key.digest()}{suffix}"

    def get(self, key: TraceKey) -> Path | None:
        """The cached trace for ``key``, in either compression flavor."""
        for suffix in (".jsonl", ".jsonl.gz"):
            path = self.root / f"{key.workload}-s{key.seed}-{key.digest()}{suffix}"
            if path.exists():
                return path
        return None

    # -- record-or-load ------------------------------------------------- #

    def ensure(
        self,
        key: TraceKey,
        program: Program,
        *,
        observers: Iterable = (),
    ) -> Path:
        """Return a trace for ``key``, executing the program only on miss.

        ``observers`` (live detectors, usually) are attached to the
        recording execution on a miss and see nothing on a hit — callers
        doing record-once/analyze-many should replay the returned trace
        rather than rely on them.
        """
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
        final = self.path_for(key)
        # Keep the gz suffix decision on the temp name so the writer picks
        # the right codec, then publish atomically.
        tmp = final.parent / f"{final.stem}.{os.getpid()}.tmp.jsonl"
        if self.compress:
            tmp = tmp.with_name(tmp.name + ".gz")
        try:
            self.stats.executions += 1
            record_execution(
                program,
                scheduler_from_spec(key.scheduler),
                path=tmp,
                seed=key.seed,
                max_steps=key.max_steps,
                scheduler_spec=key.scheduler,
                observers=observers,
            )
        except BaseException:
            remove_partial(tmp)
            raise
        if telemetry is not None:
            telemetry.inc("trace.store_executions")
            telemetry.inc("trace.store_bytes", tmp.stat().st_size)
        if not self._recording_enabled():
            # Under disk pressure the cache stops growing: hand the caller
            # an unpublished file to analyze and discard.
            ephemeral = final.with_name(
                final.name.replace(".jsonl", f".{os.getpid()}.ephemeral.jsonl", 1)
            )
            os.replace(tmp, ephemeral)
            self.stats.ephemeral += 1
            if telemetry is not None:
                telemetry.inc("trace.store_ephemeral")
            return ephemeral
        if self.fsync:
            self._fsync_file(tmp)
        os.replace(tmp, final)
        if self.fsync:
            self._fsync_dir()
        self._enforce_budget(keep=final)
        return final

    def _recording_enabled(self) -> bool:
        return self.health is None or self.health.trace_recording_enabled

    @staticmethod
    def _emit_store_event(telemetry, key: TraceKey, outcome: str) -> None:
        """"store" is a non-deterministic timeline kind: under a quota,
        concurrent tasks may evict each other's entries, so the event rides
        in the run report's timeline section but never in its
        deterministic projection."""
        telemetry.emit(
            "store",
            (key.workload, key.seed, outcome),
            {"scheduler": key.scheduler, "max_steps": key.max_steps},
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

    def discard(self, path) -> None:
        """Drop an ephemeral (unpublished) trace once analyzed."""
        if ".ephemeral." in Path(path).name:
            remove_partial(path)

    def open(self, key: TraceKey) -> TraceReader | None:
        path = self.get(key)
        return None if path is None else TraceReader(path)

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
        if self.health is not None:
            self.health.record_corrupt_trace()
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
        *,
        observers: Iterable = (),
    ):
        """Run ``consume(path)`` on the trace for ``key``, healing corruption.

        On :class:`~repro.trace.schema.TraceCorruptError` the damaged
        entry is quarantined, the trace re-recorded (and re-published
        atomically), and ``consume`` retried once — so a corrupt cache
        entry costs one execution, never the campaign.  A second failure
        propagates: that is fresh-recording corruption, i.e. a real bug
        or a dying disk, not bit rot.  An entry that vanished before it
        was read (another process's quota evicted it) is re-recorded
        once the same way, without quarantine.
        """
        path = self.ensure(key, program, observers=observers)
        corrupt = False
        try:
            return consume(path)
        except FileNotFoundError:
            pass
        except TraceCorruptError as exc:
            self.quarantine(exc.path, exc.reason)
            corrupt = True
        finally:
            self.discard(path)
        fresh = self.ensure(key, program)
        try:
            result = consume(fresh)
        finally:
            self.discard(fresh)
        if corrupt:
            self.stats.recovered += 1
            telemetry = maybe_telemetry()
            if telemetry is not None:
                telemetry.inc("trace.store_recovered")
        return result

    # -- maintenance ---------------------------------------------------- #

    def entries(self) -> list[Path]:
        """All trace files currently in the store, sorted by name."""
        return sorted(
            p
            for p in self.root.iterdir()
            if p.name.endswith((".jsonl", ".jsonl.gz"))
            and ".tmp" not in p.name
            and ".ephemeral" not in p.name
        )

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def _enforce_budget(self, *, keep: Path | None = None) -> tuple[int, int]:
        """Evict oldest-first until the store fits its budget.

        ``keep`` (the just-published entry a caller is about to read) is
        never evicted, even if it alone exceeds the budget.  Returns
        ``(entries_removed, bytes_removed)``.
        """
        if self.max_bytes is None and self.max_entries is None:
            return (0, 0)
        aged = []
        for path in self.entries():
            try:
                st = path.stat()
            except OSError:
                continue
            aged.append((st.st_mtime, path, st.st_size))
        aged.sort()
        count = len(aged)
        total = sum(size for _, _, size in aged)
        removed = removed_bytes = 0
        for _, path, size in aged:
            over = (self.max_entries is not None and count > self.max_entries) or (
                self.max_bytes is not None and total > self.max_bytes
            )
            if not over:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            count -= 1
            total -= size
            removed += 1
            removed_bytes += size
        if removed:
            self.stats.evictions += removed
            self.stats.evicted_bytes += removed_bytes
            telemetry = maybe_telemetry()
            if telemetry is not None:
                telemetry.inc("trace.store_evictions", removed)
                telemetry.inc("trace.store_evicted_bytes", removed_bytes)
            if self.health is not None:
                self.health.record_disk_budget_hit()
        return (removed, removed_bytes)

    def gc(self) -> tuple[int, int]:
        """Enforce the disk budget now; returns (entries, bytes) removed."""
        return self._enforce_budget()

    def verify(
        self, *, quarantine: bool = False
    ) -> list[tuple[Path, TraceCorruptError]]:
        """Integrity-check every entry; returns the damaged ones.

        With ``quarantine=True``, damaged entries are also moved to the
        quarantine sidecar (the ``repro store verify --quarantine`` path).
        """
        bad: list[tuple[Path, TraceCorruptError]] = []
        for path in self.entries():
            try:
                verify_trace(path)
            except TraceCorruptError as exc:
                bad.append((path, exc))
                if quarantine:
                    self.quarantine(path, exc.reason)
        return bad

    def clear(self) -> int:
        """Delete every cached trace; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def detect_key(
    workload: str, seed: int, *, max_steps: int = 1_000_000
) -> TraceKey:
    """The cache key of one Phase-1 detection execution."""
    return TraceKey(
        workload=workload,
        seed=seed,
        scheduler=PHASE1_SCHEDULER,
        max_steps=max_steps,
    )


__all__ = [
    "PHASE1_SCHEDULER",
    "QUARANTINE_DIR",
    "scheduler_from_spec",
    "TraceKey",
    "TraceStore",
    "StoreStats",
    "detect_key",
]
