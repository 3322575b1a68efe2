"""Deterministic fault injection for the campaign supervisor.

A resilient campaign runner is only trustworthy if every failure path has
a reproducible test.  Real worker crashes, livelocks and pool deaths are
timing accidents; this module replaces them with a *plan*: a value object
that names, per (phase, task index), exactly which fault to inject and on
how many attempts it keeps firing.  The supervisor resolves the plan in
the parent and ships the chosen :class:`FaultSpec` inside the task
envelope, so workers never see the plan itself — only the one fault that
is theirs to raise.

Fault kinds (``FAULT_KINDS``):

* ``crash``     — raise :class:`InjectedCrash` before the task body runs
  (stands in for any unhandled worker exception).
* ``hang``      — sleep ``delay`` seconds before the task body runs
  (stands in for a livelocked / wedged worker; only detectable when the
  supervisor has a wall-clock deadline).
* ``malformed`` — run the task body normally but return
  :data:`MALFORMED_SENTINEL` instead of the result (stands in for a
  corrupted IPC payload; caught by the supervisor's result validation).
* ``pool_kill`` — ``os._exit`` the worker process, which breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor` (stands in for the
  OOM-killer / a segfault).  When the supervisor is executing inline
  (serial path or serial fallback) the fault degrades to a raised
  :class:`InjectedCrash` — exiting would take the campaign down, which is
  exactly what the supervisor exists to prevent.
* ``memory_hog`` — allocate ``mb`` megabytes before the task body runs,
  raising the process's ``ru_maxrss`` high-water (stands in for a leaky
  task; caught by the supervisor's per-task memory budget as a
  ``memory``-kind failure).
* ``disk_full`` — raise :class:`InjectedDiskFull` (an :class:`OSError`
  with ``errno.ENOSPC``) before the task body runs (stands in for a full
  trace-store disk; classified as a ``disk``-kind failure).
* ``corrupt_trace`` — before the body of a detect task with a
  ``trace_dir`` runs, damage the stored trace it is about to read
  (truncate the footer).  The task's store read then exercises the
  quarantine + re-record recovery end to end.  A task with no stored
  trace yet runs undamaged.

A fault's ``phase`` is the name of the supervisor entrypoint whose batch
it targets, one of :data:`PHASES`.

Determinism contract: a :class:`FaultSpec` fires on attempts
``0 .. attempts-1`` of its task and never again, so ``attempts=1`` models
a transient failure (the retry succeeds) and a large ``attempts`` models
a poisoned task (retries exhaust and the task is quarantined).
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

CRASH = "crash"
HANG = "hang"
MALFORMED = "malformed"
POOL_KILL = "pool_kill"
MEMORY_HOG = "memory_hog"
DISK_FULL = "disk_full"
CORRUPT_TRACE = "corrupt_trace"

#: the supervisor's task entrypoints (``run_<phase>_task`` in
#: :mod:`repro.core.parallel`), which are also the fault-plan phases.
PHASES = ("detect", "fuzz", "baseline")

FAULT_KINDS = (
    CRASH,
    HANG,
    MALFORMED,
    POOL_KILL,
    MEMORY_HOG,
    DISK_FULL,
    CORRUPT_TRACE,
)

#: What a ``malformed`` fault returns in place of the real result.  Any
#: value the supervisor's ``validate`` hook rejects would do; a string is
#: convenient because no worker entrypoint legitimately returns one.
MALFORMED_SENTINEL = "__repro_malformed_result__"


class InjectedCrash(RuntimeError):
    """The deterministic stand-in for an arbitrary worker failure."""


class InjectedDiskFull(OSError):
    """The deterministic stand-in for ENOSPC out of the trace store."""

    def __init__(self, where: str) -> None:
        super().__init__(errno.ENOSPC, f"injected disk full at {where}")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *which* task, *what* failure, *how persistent*.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        index: submission index of the targeted task within its phase.
        phase: which dispatch batch the index refers to, one of
            :data:`PHASES`.
        attempts: the fault fires on the first ``attempts`` attempts of
            the task and is then spent.  ``1`` = transient, large =
            poisoned (quarantine).
        delay: sleep duration, in seconds, for ``hang`` faults.
        mb: allocation size, in megabytes, for ``memory_hog`` faults.
    """

    kind: str
    index: int
    phase: str = "fuzz"
    attempts: int = 1
    delay: float = 30.0
    mb: float = 64.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.phase not in PHASES:
            raise ValueError(
                f"unknown fault phase {self.phase!r}; expected one of {PHASES}"
            )
        if self.index < 0:
            raise ValueError(f"fault index must be >= 0, got {self.index}")
        if self.attempts < 1:
            raise ValueError(f"fault attempts must be >= 1, got {self.attempts}")
        if self.delay < 0:
            raise ValueError(f"fault delay must be >= 0, got {self.delay}")
        if self.mb <= 0:
            raise ValueError(f"fault mb must be > 0, got {self.mb}")

    def fires(self, attempt: int) -> bool:
        """Does the fault fire on this (0-based) attempt of its task?"""
        return attempt < self.attempts


class FaultPlan:
    """An immutable map from (phase, task index) to the fault to inject.

    At most one fault per task: a task that crashes *and* hangs is not a
    reproducible scenario.  Plans are value objects — equality and
    iteration are over the sorted spec list — so tests can assert on them
    directly.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        by_key: dict[tuple[str, int], FaultSpec] = {}
        for spec in specs:
            key = (spec.phase, spec.index)
            if key in by_key:
                raise ValueError(
                    f"duplicate fault for {spec.phase}[{spec.index}]: "
                    f"{by_key[key].kind} vs {spec.kind}"
                )
            by_key[key] = spec
        self._by_key = by_key

    def at(self, phase: str, index: int) -> FaultSpec | None:
        """The fault planned for this task, or None."""
        return self._by_key.get((phase, index))

    @property
    def specs(self) -> list[FaultSpec]:
        return sorted(self._by_key.values(), key=lambda s: (s.phase, s.index))

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self._by_key == other._by_key

    def __repr__(self) -> str:
        return f"FaultPlan({self.specs!r})"


def apply_fault(spec: FaultSpec, *, in_worker: bool = True, task=None) -> None:
    """Execute the pre-task side of a fault, in the executing process.

    ``malformed`` is a no-op here — it corrupts the *result*, which the
    task envelope handles after the body runs.  ``corrupt_trace`` damages
    the trace ``task`` is about to read (its ``stored_trace()``), if any.
    ``pool_kill`` only exits the process when running in a disposable
    worker; inline it degrades to a crash so fault plans stay runnable on
    the serial path.
    """
    if spec.kind == CRASH:
        raise InjectedCrash(f"injected crash at {spec.phase}[{spec.index}]")
    if spec.kind == HANG:
        time.sleep(spec.delay)
        return
    if spec.kind == MEMORY_HOG:
        # Touch every page so ru_maxrss actually rises, then release: the
        # high-water mark is what the supervisor's budget check reads.
        hog = bytearray(int(spec.mb * 1024 * 1024))
        hog[::4096] = b"\x01" * len(hog[::4096])
        del hog
        return
    if spec.kind == DISK_FULL:
        raise InjectedDiskFull(f"{spec.phase}[{spec.index}]")
    if spec.kind == POOL_KILL:
        if in_worker:
            os._exit(13)
        raise InjectedCrash(
            f"injected pool kill at {spec.phase}[{spec.index}] "
            f"(inline execution: raised instead of exiting)"
        )
    if spec.kind == CORRUPT_TRACE:
        path = task.stored_trace() if hasattr(task, "stored_trace") else None
        if path is not None:
            corrupt_trace_file(path)
    # MALFORMED: nothing to do before the task body.


def corrupt_trace_file(path: str) -> bool:
    """The ``corrupt_trace`` damage: make a stored trace unreadable.

    Truncates the footer line off ``path`` (the classic torn-write shape),
    guaranteeing the next integrity-checked read raises
    ``TraceCorruptError``.  Returns False when ``path`` is not a readable
    trace file — the fault then degrades to a no-op rather than failing a
    task the plan meant to leave successful.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return False
    lines = data.splitlines(keepends=True)
    if len(lines) < 2:
        return False
    with open(path, "wb") as fh:
        fh.writelines(lines[:-1])
    return True


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the CLI fault-plan syntax into a :class:`FaultPlan`.

    Comma-separated specs of the form ``phase:index:kind[:attempts[:arg]]``,
    e.g. ``fuzz:0:crash,fuzz:7:hang:1:5.0,fuzz:11:pool_kill``.  The
    trailing ``arg`` is kind-specific: sleep seconds for ``hang``,
    megabytes for ``memory_hog``; other kinds take none.
    """
    specs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 3 or len(parts) > 5:
            raise ValueError(
                f"bad fault spec {chunk!r}: expected "
                f"phase:index:kind[:attempts[:arg]]"
            )
        phase, index, kind = parts[0], int(parts[1]), parts[2]
        attempts = int(parts[3]) if len(parts) > 3 else 1
        kwargs = {}
        if len(parts) > 4:
            if kind == MEMORY_HOG:
                kwargs["mb"] = float(parts[4])
            else:
                kwargs["delay"] = float(parts[4])
        specs.append(
            FaultSpec(
                kind=kind, index=index, phase=phase, attempts=attempts, **kwargs
            )
        )
    return FaultPlan(specs)


__all__ = [
    "CRASH",
    "HANG",
    "MALFORMED",
    "POOL_KILL",
    "MEMORY_HOG",
    "DISK_FULL",
    "CORRUPT_TRACE",
    "FAULT_KINDS",
    "PHASES",
    "MALFORMED_SENTINEL",
    "InjectedCrash",
    "InjectedDiskFull",
    "FaultSpec",
    "FaultPlan",
    "apply_fault",
    "corrupt_trace_file",
    "parse_fault_plan",
]
