"""The postponing main loop shared by all active random fuzzers.

This is Algorithm 1 of the paper with its target-specific predicates pulled
out into overridable hooks, because Section 1 observes that "the only thing
the random scheduler needs to know is a set of statements whose simultaneous
execution could lead to a concurrency problem" — races, atomicity
violations, or deadlocks.  :class:`~repro.core.racefuzzer.RaceFuzzer`
instantiates the hooks with the racing-pair semantics of Algorithm 2;
the deadlock and atomicity fuzzers instantiate them differently.

Loop structure (paper line numbers in comments):

* pick a random enabled thread outside ``postponed``       (line 5)
* if its next statement is a target statement:             (line 6)
  * find conflicting postponed threads ``R``               (line 7, Alg. 2)
  * if ``R`` nonempty: the target situation is *real* —
    report it and resolve randomly                         (lines 8-19)
  * else postpone the thread                               (line 21)
* otherwise just execute                                   (line 24)
* if every enabled thread is postponed, release one        (lines 26-28)
* at termination, report a real deadlock if threads remain (lines 30-32)

Two engineering details from Section 4 are included: the livelock watchdog
(a postponed thread is released after ``patience`` global steps, standing
in for the paper's monitor thread) and sync-only preemption (threads run
without interruption between synchronization operations and target
statements, keeping the instrumentation-free fast path fast).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import time

from repro.obs import WALL_BUCKETS, maybe_telemetry
from repro.runtime.errors import ExecutionLimitExceeded
from repro.runtime.interpreter import Execution, ExecutionResult
from repro.runtime.observer import ExecutionObserver
from repro.runtime.program import Program
from repro.runtime.statement import StatementPair

#: the ``preemption=`` modes a postponing driver accepts.
PREEMPTION_MODES = ("every", "sync")


@dataclass(frozen=True)
class TargetHit:
    """One moment at which the fuzzer created the targeted situation."""

    step: int
    pair: StatementPair
    tids: tuple[int, int]
    location_name: str
    #: True if the coin flip executed the newly arrived thread first.
    executed_arrival: bool


@dataclass
class FuzzResult:
    """Outcome of one active-fuzzing execution."""

    result: ExecutionResult
    hits: list[TargetHit] = field(default_factory=list)
    #: distinct statement pairs actually brought temporally adjacent.
    pairs_created: set[StatementPair] = field(default_factory=set)
    #: how many times the postponed set had to be force-drained (line 27).
    forced_releases: int = 0
    #: how many times the livelock watchdog released a thread.
    watchdog_releases: int = 0
    #: global steps the watchdog-released threads spent postponed, summed
    #: over releases (each release adds more than ``patience``).
    stall_steps: int = 0
    #: how many times a thread entered the postponed set (lines 14 and 21).
    postpones: int = 0
    #: how many line-11 coin flips resolved a created racing situation.
    coin_flips: int = 0
    #: largest size the postponed set reached during this trial.
    postponed_high_water: int = 0

    @property
    def created(self) -> bool:
        """Did any targeted situation actually occur?"""
        return bool(self.hits)

    @property
    def crashes(self):
        return self.result.crashes

    @property
    def deadlock(self) -> bool:
        return self.result.deadlock

    def __str__(self) -> str:
        status = f"{len(self.hits)} hit(s), pairs={sorted(map(str, self.pairs_created))}"
        return f"FuzzResult[{status}] {self.result}"


class PostponingDriver:
    """Template for Algorithm 1; subclasses define what a "target" is."""

    def __init__(
        self,
        *,
        preemption: str = "sync",
        patience: int = 400,
        max_steps: int = 1_000_000,
        observers: Iterable[ExecutionObserver] = (),
    ) -> None:
        if preemption not in PREEMPTION_MODES:
            raise ValueError(f"unknown preemption mode: {preemption!r}")
        self.preemption = preemption
        self.patience = patience
        self.max_steps = max_steps
        self.observers = tuple(observers)

    # --- hooks for subclasses ------------------------------------------- #

    def timeline_target(self) -> str:
        """Label identifying what this driver is fuzzing, for the campaign
        timeline's per-trial events.  The base has no statement-shaped
        target; :class:`~repro.core.racefuzzer.RaceFuzzer` returns its
        pair label so trials group under one pair track."""
        return ""

    def is_target(self, execution: Execution, tid: int) -> bool:
        """Is ``tid``'s next statement in the target set? (line 6)"""
        raise NotImplementedError

    def conflicting(
        self, execution: Execution, tid: int, postponed: list[int]
    ) -> list[int]:
        """Algorithm 2: postponed threads whose next op conflicts with
        ``tid``'s next op (for races: same location, at least one write)."""
        raise NotImplementedError

    def on_hit(self, execution: Execution, hit: TargetHit) -> None:
        """Called whenever the targeted situation is created."""

    def resolve_arrival_first(
        self, execution: Execution, tid: int, rivals: list[int]
    ) -> bool:
        """Line 11's coin flip: True executes the arriving thread first.

        RaceFuzzer keeps the fair coin; the atomicity fuzzer overrides this
        to force the non-serializable order.
        """
        return execution.rng.random() < 0.5

    # --- the main loop ---------------------------------------------------- #

    def run(self, program: Program, seed: int = 0) -> FuzzResult:
        """Execute ``program`` once under the active random scheduler."""
        telemetry = maybe_telemetry()
        trial_wall = time.time() if telemetry is not None else 0.0
        execution = Execution(
            program,
            seed=seed,
            observers=self.observers,
            max_steps=self.max_steps,
        )
        execution.start()
        fuzz = FuzzResult(result=execution.result)
        postponed: dict[int, int] = {}  # tid -> step at which it was postponed
        # Threads released from `postponed` (lines 26-28 or the watchdog)
        # get a one-shot exemption so they "execute the remaining
        # statements" (the paper's Case 1 narrative) instead of being
        # re-postponed at the same statement forever.
        exempt: set[int] = set()
        rng = execution.rng

        try:
            while True:
                enabled = execution.schedulable()
                if not enabled:
                    break
                self._run_watchdog(execution, postponed, exempt, fuzz)
                enabled_set = set(enabled)
                for tid in list(postponed):
                    if tid not in enabled_set:  # died or became blocked: drop it
                        del postponed[tid]
                choosable = [tid for tid in enabled if tid not in postponed]
                if not choosable:
                    # Lines 26-28: everyone is postponed; release one at random.
                    victim = sorted(postponed)[rng.randrange(len(postponed))]
                    del postponed[victim]
                    exempt.add(victim)
                    fuzz.forced_releases += 1
                    continue
                tid = choosable[rng.randrange(len(choosable))]
                if self.is_target(execution, tid) and tid not in exempt:
                    rivals = self.conflicting(execution, tid, sorted(postponed))
                    if rivals:
                        self._resolve(execution, tid, rivals, postponed, fuzz)
                    else:
                        postponed[tid] = execution.step_count  # line 21
                        fuzz.postpones += 1
                        if len(postponed) > fuzz.postponed_high_water:
                            fuzz.postponed_high_water = len(postponed)
                else:
                    exempt.discard(tid)
                    self._execute_run(execution, tid, postponed, exempt, fuzz)
        except ExecutionLimitExceeded:
            # The budget check in `schedulable()` catches most exhaustion,
            # but race resolution (lines 12/15-18) steps threads directly
            # and can hit the limit mid-burst.  A livelocked trial is a
            # *truncated* data point, never a campaign abort.
            execution.result.truncated = True
        except BaseException:
            execution.close()
            raise

        execution.finish()
        if telemetry is not None:
            telemetry.inc("fuzz.trials")
            if fuzz.created:
                telemetry.inc("fuzz.trials_created")
            telemetry.inc("fuzz.races_created", len(fuzz.hits))
            telemetry.inc("fuzz.postpones", fuzz.postpones)
            telemetry.inc("fuzz.coin_flips", fuzz.coin_flips)
            telemetry.inc("fuzz.forced_releases", fuzz.forced_releases)
            telemetry.inc("fuzz.watchdog_releases", fuzz.watchdog_releases)
            telemetry.inc("fuzz.stall_steps", fuzz.stall_steps)
            telemetry.gauge_max("fuzz.postponed_high_water", fuzz.postponed_high_water)
            telemetry.observe(
                "fuzz.trial_wall_s", execution.result.wall_time,
                bounds=WALL_BUCKETS,
            )
            # Identity is schedule-determined (target + seed + counters);
            # wall/duration ride along for Perfetto export only.
            telemetry.emit(
                "trial",
                (self.timeline_target() or program.name, seed),
                {
                    "created": len(fuzz.hits),
                    "postpones": fuzz.postpones,
                    "coin_flips": fuzz.coin_flips,
                    "forced": fuzz.forced_releases,
                    "watchdog": fuzz.watchdog_releases,
                },
                wall_s=trial_wall,
                dur_s=execution.result.wall_time,
            )
        return fuzz

    # --- internals -------------------------------------------------------- #

    def _resolve(
        self,
        execution: Execution,
        tid: int,
        rivals: list[int],
        postponed: dict[int, int],
        fuzz: FuzzResult,
    ) -> None:
        """Lines 8-19: report the created situation and resolve it randomly."""
        stmt = execution.next_stmt(tid)
        op = execution.next_op(tid)
        location_name = op.location.describe() if op.location is not None else "?"
        execute_arrival = self.resolve_arrival_first(execution, tid, rivals)
        fuzz.coin_flips += 1
        for rival in rivals:
            hit = TargetHit(
                step=execution.step_count,
                pair=StatementPair(stmt, execution.next_stmt(rival)),
                tids=(tid, rival),
                location_name=location_name,
                executed_arrival=execute_arrival,
            )
            fuzz.hits.append(hit)
            fuzz.pairs_created.add(hit.pair)
            self.on_hit(execution, hit)
        if execute_arrival:
            execution.step(tid)  # line 12; rivals stay postponed
        else:
            postponed[tid] = execution.step_count  # line 14
            fuzz.postpones += 1
            if len(postponed) > fuzz.postponed_high_water:
                fuzz.postponed_high_water = len(postponed)
            for rival in rivals:  # lines 15-18
                execution.step(rival)
                postponed.pop(rival, None)

    def _execute_run(
        self,
        execution: Execution,
        tid: int,
        postponed: dict[int, int],
        exempt: set[int],
        fuzz: FuzzResult,
    ) -> None:
        """Line 24, plus the sync-only preemption burst from Section 4."""
        execution.step(tid)
        if self.preemption != "sync":
            return
        # The burst loop runs once per step of every trial, observed or
        # not, so it fetches the thread state once per iteration instead
        # of going through is_enabled/next_op (a fetch each).
        threads = execution.threads
        max_steps = self.max_steps
        while execution.ops_executed < max_steps:
            ts = threads.get(tid)
            if ts is None or not execution._enabled(ts):
                return
            op = ts.pending
            if op is None or op.is_sync:
                return
            if self.is_target(execution, tid):
                return
            execution.step(tid)
            if postponed and (execution.step_count & 0x3F) == 0:
                # Long uninterrupted bursts must not starve the watchdog
                # (the paper's monitor thread runs concurrently; we poll).
                self._run_watchdog(execution, postponed, exempt, fuzz)

    def _run_watchdog(
        self,
        execution: Execution,
        postponed: dict[int, int],
        exempt: set[int],
        fuzz: FuzzResult,
    ) -> None:
        """Section 4's livelock breaker: free threads postponed too long."""
        now = execution.step_count
        for tid, since in list(postponed.items()):
            if now - since > self.patience:
                del postponed[tid]
                exempt.add(tid)
                fuzz.watchdog_releases += 1
                fuzz.stall_steps += now - since
