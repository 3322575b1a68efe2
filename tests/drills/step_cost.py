"""Step cost: CPython bytecodes per executed op on each scheduling path,
and per delivered event on Phase 1's event path.

Every campaign bottoms out in one loop: pick an enabled thread, step it.
Wall time is too noisy on a shared host to gate that loop, but the number
of bytecodes the interpreter executes per executed op is exact and
repeatable for fixed seeds (and the same under any hash seed).  This script counts
them with ``sys.settrace`` opcode events for four paths on four Table-1
rows (linkedlist, jigsaw, moldyn, weblech):

* ``phase2``: RaceFuzzer trials of every Phase-1 pair (Phase 1 itself is
  not counted);
* ``default``: ``DefaultScheduler`` baseline runs;
* ``random_every``: ``RandomScheduler("every")`` runs, the scheduler of
  Phase 1 and of the Hybrid timing run (here without an observer, so the
  count is the engine's and not a detector's);
* ``phase1``: Phase 1's event path, counted per delivered event over two
  passes of each row's Phase-1 seeds: the live run with the four kernel
  detectors attached (engine, event construction and detectors), and the
  in-memory replay of the same events through fresh detectors (the
  detectors alone).

An executed op is one call of ``Execution._execute`` (a call that only
primes a new thread's body executes none); a delivered event is one call
of ``HistoryRaceDetector.on_event``.  Each path reports its ops (or
events), its bytecodes per op (or event) and the functions that spend
the most bytecodes per unit; ``phase1`` also reports each pass alone.
On CPython 3.11 the script exits 1 when a path is above its bound in
:data:`BOUNDS`; other versions report without the gate, since bytecode
counts differ between interpreter versions.

Bytecodes miss work done in C, such as matching keyword arguments against
a long parameter list.  So the output also times one ``ops.write`` call
(``write_ns``, the minimum over :data:`WRITE_REPEATS` timed loops), for
the record only: it is not gated.  Two more costs of that kind are
``frame.f_lineno``, which decodes the code's line table from its first
instruction at every read (the engine reads each yield's line from a
per-code table instead), and the cyclic garbage collector, which runs
whenever the container objects allocated and not yet freed pass a
threshold (700 by default).
So each path also reports, for the record only, its generation-0
collections per 1,000 ops (or events), counted through ``gc.callbacks``
in an untraced repeat of the path (``gen0_per_1k_ops``,
``gen0_per_1k_events``).

Run it from the repository root (about 40 s)::

    PYTHONPATH=src python tests/drills/step_cost.py

It prints one JSON line.
"""

import gc
import json
import os
import sys
import timeit
from collections import Counter

from repro import workloads
from repro.core import RaceFuzzer, detect_races
from repro.core.schedulers import DefaultScheduler, RandomScheduler
from repro.detectors import HistoryRaceDetector, make_detectors
from repro.runtime.interpreter import Execution
from repro.runtime.observer import EventTrace
from repro.trace.replay import replay_events
from repro.runtime.location import VarLoc, fresh_uid
from repro.runtime.ops import write

ROWS = ("linkedlist", "jigsaw", "moldyn", "weblech")

#: the detectors of the ``phase1`` path: every kernel configuration.
DETECTORS = ("hybrid", "happens-before", "shb", "wcp")

#: trial seeds per Phase-1 pair, and run seeds per passive scheduler.
PHASE2_SEEDS = range(4)
PASSIVE_SEEDS = range(3)

#: bytecodes per executed op (``phase1``: per delivered event) on CPython
#: 3.11, each the measured value plus 5%.  Per op: with positional op
#: construction, the C-keyed heap and the one resume site, 315.7, 260.5
#: and 287.5 (with the maintained enabled set alone 365.8, 306.8 and
#: 332.8; before it, 482.3, 566.1 and 588.3); random-every 283.3 once
#: ``RandomScheduler.choose`` drew in line.  Per event: 744.4 with tuple
#: events, per-thread locksets and the kernel's pair cache (927.9 before).
BOUNDS = {
    "phase2": 331.5,
    "default": 273.5,
    "random_every": 297.5,
    "phase1": 781.6,
}

#: functions listed per path.
TOP = 8

#: timed loops of ``WRITE_CALLS`` ``ops.write`` calls each.
WRITE_REPEATS = 5
WRITE_CALLS = 200_000


class Tally:
    """Opcode events per code object, and calls of the unit: executed ops
    (``_execute`` calls), or with ``unit="event"`` delivered events
    (``HistoryRaceDetector.on_event`` calls)."""

    def __init__(self, unit: str = "op") -> None:
        self.by_code: Counter = Counter()
        self.ops = 0
        self.unit = unit
        self._unit_code = (
            Execution._execute if unit == "op" else HistoryRaceDetector.on_event
        ).__code__

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.by_code[frame.f_code] += 1
        return self._local

    def _global(self, frame, event, arg):
        frame.f_trace_opcodes = True
        if frame.f_code is self._unit_code and (
            self.unit != "op" or not frame.f_locals["prime"]
        ):
            self.ops += 1
        return self._local

    def run(self, fn, *args):
        sys.settrace(self._global)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)

    def report(self) -> dict:
        if not self.ops:
            raise SystemExit(f"step_cost: no {self.unit} was traced")
        total = sum(self.by_code.values())
        top = [
            [f"{os.path.basename(code.co_filename)}:"
             f"{getattr(code, 'co_qualname', code.co_name)}",
             round(count / self.ops, 1)]
            for code, count in self.by_code.most_common(TOP)
        ]
        return {
            f"{self.unit}s": self.ops,
            f"bytecodes_per_{self.unit}": round(total / self.ops, 1),
            "top": top,
        }


class Collections:
    """Generation-0 collections of the cyclic collector during ``run``
    calls, which run untraced; stands in for a :class:`Tally`."""

    def __init__(self) -> None:
        self.gen0 = 0

    def _count(self, phase, info) -> None:
        if phase == "start" and info["generation"] == 0:
            self.gen0 += 1

    def run(self, fn, *args):
        gc.callbacks.append(self._count)
        try:
            return fn(*args)
        finally:
            gc.callbacks.remove(self._count)


def gen0_per_1k(measure, units: int) -> float:
    """Run ``measure`` once more, untraced, from a just-collected heap;
    its generation-0 collections per 1,000 units."""
    collections = Collections()
    gc.collect()
    measure(collections)
    return round(collections.gen0 * 1000 / units, 2)


def phase2(tally: Tally) -> None:
    for name in ROWS:
        spec = workloads.get(name)
        pairs = detect_races(
            spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
        ).pairs
        program = spec.build()
        for pair in sorted(pairs, key=str):
            fuzzer = RaceFuzzer(pair, max_steps=spec.max_steps)
            for seed in PHASE2_SEEDS:
                tally.run(fuzzer.run, program, seed)


def passive(tally: Tally, make_scheduler) -> None:
    for name in ROWS:
        spec = workloads.get(name)
        program = spec.build()
        for seed in PASSIVE_SEEDS:
            execution = Execution(program, seed=seed, max_steps=spec.max_steps)
            tally.run(execution.run, make_scheduler())


def phase1() -> dict:
    """The ``phase1`` row: both passes together, then each alone."""
    live, replay = Tally("event"), Tally("event")
    phase1_passes(live, replay)
    both = Tally("event")
    for tally in (live, replay):
        both.by_code.update(tally.by_code)
        both.ops += tally.ops
    row = both.report()
    row["passes"] = {
        "live": live.report()["bytecodes_per_event"],
        "replay": replay.report()["bytecodes_per_event"],
    }
    row["gen0_per_1k_events"] = gen0_per_1k(
        lambda collections: phase1_passes(collections, collections), both.ops
    )
    return row


def phase1_passes(live, replay) -> None:
    """The live four-detector runs (through ``live``) and the in-memory
    replays of their events (through ``replay``)."""
    for name in ROWS:
        spec = workloads.get(name)
        program = spec.build()
        for seed in spec.phase1_seeds:
            observers, _ = make_detectors(DETECTORS)
            execution = Execution(
                program, seed=seed, max_steps=spec.max_steps, observers=observers
            )
            live.run(execution.run, RandomScheduler("every"))
            trace = EventTrace()
            Execution(
                program, seed=seed, max_steps=spec.max_steps, observers=[trace]
            ).run(RandomScheduler("every"))
            observers, _ = make_detectors(DETECTORS)
            replay.run(replay_events, trace.events, observers)


def write_ns() -> float:
    """Nanoseconds per ``ops.write(location, value)`` call, best loop."""
    location = VarLoc(fresh_uid(), "x")
    best = min(
        timeit.repeat(
            "write(location, 1)",
            globals={"write": write, "location": location},
            number=WRITE_CALLS,
            repeat=WRITE_REPEATS,
        )
    )
    return round(best / WRITE_CALLS * 1e9, 1)


def main() -> int:
    paths = {}
    for path, measure in (
        ("phase2", phase2),
        ("default", lambda t: passive(t, DefaultScheduler)),
        ("random_every", lambda t: passive(t, lambda: RandomScheduler("every"))),
    ):
        tally = Tally()
        measure(tally)
        paths[path] = tally.report()
        paths[path]["gen0_per_1k_ops"] = gen0_per_1k(measure, tally.ops)
    paths["phase1"] = phase1()
    gated = sys.version_info[:2] == (3, 11)
    over = [
        path for path, row in paths.items()
        if row["bytecodes_per_event" if path == "phase1" else "bytecodes_per_op"]
        > BOUNDS[path]
    ]
    print(json.dumps({
        "python": sys.version.split()[0],
        "paths": paths,
        "bounds": BOUNDS,
        "gated": gated,
        "over_bound": over,
        "write_ns": write_ns(),
    }))
    return 1 if gated and over else 0


if __name__ == "__main__":
    sys.exit(main())
