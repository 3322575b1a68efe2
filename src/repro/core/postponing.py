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
* if every enabled thread is postponed (or only polling),
  release one                                              (lines 26-28)
* at termination, report a real deadlock if threads remain (lines 30-32)

Two engineering details from Section 4 are included: the livelock breaker
(standing in for the paper's monitor thread) and sync-only preemption
(threads run without interruption between synchronization operations and
target statements, keeping the instrumentation-free fast path fast).

The step kernel does the least the algorithm needs.  The enabled list
comes from the engine, which maintains it (no thread is rescanned per
decision); the loop reads it directly and calls ``schedulable()`` only
when it is empty, a deadline fell due or the budget is spent.  Every draw
uses the bits of the engine's :func:`~repro.runtime.interpreter.pick`,
inlined for the choice of a thread.  With nothing postponed, a
scheduling decision is one draw from that list: no watchdog, prune or
``choosable`` rebuild; with threads postponed, the watchdog is called
only once the head of ``postponed`` may have waited past ``patience``.  The
burst, inlined in the main loop, reuses the chosen thread's state and
steps it through the interpreter's unchecked ``_execute``; before each
step it checks only the thread's status, the sync flag of its pending op
and the target probe, since a runnable thread whose pending op is not a
sync op is enabled by construction.  The probe is a function of the
thread state built once per trial by :meth:`PostponingDriver.target_probe`,
which answers from the raw yield site (:meth:`TargetSites.probe`) without
building a statement, and the loop calls it only when the site's line is
one of the target lines (``TargetSites.lines``), tested inline.

The livelock breaker has two rules.  Lines 26-28 are widened from "every
enabled thread is postponed" to "every enabled thread is postponed or
*polling*": a thread polls when its last two ``yield`` ops were at the
same statement, it read shared state between them, and no thread has
changed state since the earlier one (see :class:`PollWatch`).  Such a
thread is spinning on a flag only a postponed thread can set, the signal
CHESS's fair scheduler uses too, so one postponed thread is released at
once (``FuzzResult.idle_releases``).  A spinner the rule cannot see, for
example one that writes, is caught by the watchdog backstop: a thread
postponed for more than ``patience`` global steps is released
(``FuzzResult.watchdog_releases``).  Both rules read only the trial's own
state, so a trial replays from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import time

from repro.obs import maybe_telemetry
from repro.runtime.errors import ExecutionLimitExceeded
from repro.runtime.interpreter import Execution, ExecutionResult, pick
from repro.runtime.observer import ExecutionObserver
from repro.runtime.ops import OpKind
from repro.runtime.program import Program
from repro.runtime.statement import Statement, StatementPair
from repro.runtime.thread import ThreadState, ThreadStatus

#: the ``preemption=`` modes a postponing driver accepts.
PREEMPTION_MODES = ("every", "sync")

#: line 6's test, built once per trial: is the statement of this thread's
#: pending op a target?
TargetProbe = Callable[[ThreadState], bool]

_RUNNABLE = ThreadStatus.RUNNABLE
_READ = OpKind.READ.index
_YIELD = OpKind.YIELD.index
#: per ``kind_index``: does the op kind leave every other thread's view of
#: the program unchanged?  Any other executed op is a state change that
#: ends every polling streak.
_QUIET = tuple(
    kind in (OpKind.READ, OpKind.LOCK, OpKind.UNLOCK, OpKind.YIELD, OpKind.CHECK)
    for kind in OpKind
)


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
    #: how many times a thread was released because every other enabled
    #: thread was postponed or polling (the widened lines 26-28).
    idle_releases: int = 0
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


class TargetSites:
    """A fixed statement set that answers "is this thread's next statement
    a member?" from the thread's raw yield site.

    The engine records an unlabelled op's site as ``(code, line)`` and
    interns the :class:`Statement` only on demand.  An unlabelled
    statement equals a member exactly when its ``(file, line)`` does, so
    the probe is an int-set test on the line, and then a ``(file, line)``
    set test at the few sites that pass it.  No statement is built.
    Labelled ops carry their interned statement already.
    """

    __slots__ = ("statements", "lines", "_sites")

    def __init__(self, statements: Iterable[Statement]) -> None:
        self.statements = frozenset(statements)
        #: the lines of the members: a probe answers True only for a thread
        #: whose ``stmt_line`` is one of them.  A labelled statement's line
        #: is 0, as is the recorded line of a labelled op, so the line
        #: prefilter lets labelled ops through exactly when the set has a
        #: labelled member.
        self.lines = frozenset(s.line for s in self.statements)
        self._sites = frozenset(
            (s.file, s.line) for s in self.statements if s.label is None
        )

    def probe(self, *, mem_only: bool = False) -> TargetProbe:
        """A one-call test "is the statement of ``ts``'s pending op in the
        set?", also requiring a memory access when ``mem_only``."""
        statements, lines, sites = self.statements, self.lines, self._sites

        def holds(ts: ThreadState) -> bool:
            line = ts.stmt_line
            if line not in lines or (mem_only and not ts.pending.is_mem):
                return False
            code = ts.stmt_code
            if code is None:
                return ts.pending_stmt in statements
            return (code.co_filename, line) in sites

        return holds


class PollWatch:
    """Which threads of one trial are only polling.

    A thread polls when its last two ``yield`` ops were at the same
    statement, it read at least one shared location between them, and no
    thread has changed state since the earlier of the two.  A state change
    is any executed op outside ``_QUIET_KINDS``, or a race resolution.
    Changes are counted by ``epoch``; a thread's polling streak is the
    epoch of the earlier yield, and it still polls while that equals the
    current epoch.

    The driver feeds it only while its postponed set is non-empty, and
    bumps the epoch whenever a thread enters an empty postponed set, so
    nothing seen before an untracked gap can make a thread look idle
    after it.
    """

    __slots__ = ("epoch", "_last_yield", "_read", "_streak")

    def __init__(self) -> None:
        self.epoch = 0
        #: tid -> (statement, epoch) of the thread's last yield.
        self._last_yield: dict[int, tuple] = {}
        #: tids that read shared state since their last yield.
        self._read: set[int] = set()
        #: tid -> epoch at the earlier yield of the thread's polling streak.
        self._streak: dict[int, int] = {}

    def note(self, execution: Execution, ts: ThreadState) -> None:
        """Account for the op ``ts`` is about to execute."""
        kind = ts.pending.kind_index  # a thread about to step has one
        if kind == _READ:
            self._read.add(ts.tid)
        elif kind == _YIELD:
            tid = ts.tid
            stmt = execution.next_stmt(tid)
            last = self._last_yield.get(tid)
            if last is not None and last[0] == stmt and tid in self._read:
                self._streak[tid] = last[1]
            else:
                self._streak.pop(tid, None)
            self._last_yield[tid] = (stmt, self.epoch)
            self._read.discard(tid)
        elif not _QUIET[kind]:
            self.epoch += 1

    def polling(self, tid: int) -> bool:
        return self._streak.get(tid, -1) == self.epoch


class PostponingDriver:
    """Template for Algorithm 1; subclasses define what a "target" is."""

    #: the target statements, set by each subclass; its probe answers True
    #: only at one of their lines, so the main loop tests a thread's line
    #: against ``_sites.lines`` itself and calls the probe only on a match.
    _sites: TargetSites

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

    def target_probe(self, execution: Execution) -> TargetProbe:
        """Line 6's test for one trial: a function of a thread's state that
        says whether its next statement is in the target set.

        Built once per trial and called before every step of the
        sync-preemption burst that is not a sync op, so it should answer
        from the raw site (see :meth:`TargetSites.probe`) rather than build
        a statement per call.
        """
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
        watch = PollWatch()
        rng = execution.rng
        getrandbits = rng.getrandbits
        threads = execution.threads
        schedulable = execution.schedulable
        execute = execution._execute
        is_target = self.target_probe(execution)
        lines = self._sites.lines
        burst = self.preemption == "sync"
        patience = self.patience
        # A step after which the watchdog may find a thread to release:
        # never later than the head of ``postponed`` (the dict is ordered
        # by postponement step) plus ``patience``, and reset from the head
        # after each call, so calling only past it releases exactly what a
        # call at every decision would.
        watch_at = patience

        try:
            while True:
                # schedulable()'s fast path, inlined: the maintained list,
                # unless a deadline fell due, it is empty or the budget is
                # spent.
                enabled = execution._enabled_list
                if (
                    not enabled
                    or execution.step_count >= execution._wake_next
                    or execution.step_count >= execution.step_limit
                ):
                    enabled = schedulable()
                    if not enabled:
                        break
                if postponed:
                    if execution.step_count > watch_at:
                        self._run_watchdog(execution, postponed, exempt, fuzz)
                        watch_at = patience + (
                            next(iter(postponed.values()))
                            if postponed
                            else execution.step_count
                        )
                    choosable = [tid for tid in enabled if tid not in postponed]
                    # Unless every postponed thread is still enabled, drop
                    # those that died or became blocked.
                    if len(enabled) - len(choosable) != len(postponed):
                        for tid in postponed.keys() - enabled:
                            del postponed[tid]
                    if postponed and self._idle(execution, choosable, watch):
                        # Lines 26-28, widened: no one else can make
                        # progress until a postponed thread moves; release
                        # one at random.
                        victim = pick(rng, sorted(postponed))
                        del postponed[victim]
                        exempt.add(victim)
                        if choosable:
                            fuzz.idle_releases += 1
                        else:
                            fuzz.forced_releases += 1
                        continue
                else:
                    choosable = enabled
                # pick(rng, choosable) inlined, drawing the same bits;
                # choosable is never empty here.
                n = len(choosable)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                tid = choosable[r]
                ts = threads[tid]
                if ts.stmt_line in lines and is_target(ts) and tid not in exempt:
                    rivals = self.conflicting(execution, tid, sorted(postponed))
                    if rivals:
                        self._resolve(execution, tid, rivals, postponed, watch, fuzz)
                    else:
                        self._postpone(execution, tid, postponed, watch, fuzz)  # line 21
                    continue
                # Line 24, then Section 4's sync-only preemption burst.  The
                # thread was just chosen from schedulable(), so it is enabled
                # and the step budget has room: it steps through the
                # unchecked _execute.  So does the burst, because a runnable
                # thread whose pending op is not a sync op is enabled by
                # construction (only LOCK, REACQUIRE and JOIN block, and all
                # three are sync ops): the status is its only enabledness
                # check.
                if exempt:
                    exempt.discard(tid)
                if postponed:
                    watch.note(execution, ts)
                execute(ts)
                if not burst:
                    continue
                while (
                    ts.status is _RUNNABLE
                    and execution.step_count < execution.step_limit
                ):
                    if ts.pending.is_sync or (
                        ts.stmt_line in lines and is_target(ts)
                    ):
                        break
                    if postponed:
                        watch.note(execution, ts)
                        execute(ts)
                        if (execution.step_count & 0x3F) == 0:
                            # Long uninterrupted bursts must not starve the
                            # watchdog (the paper's monitor thread runs
                            # concurrently; we poll).
                            self._run_watchdog(execution, postponed, exempt, fuzz)
                    else:
                        execute(ts)
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
            telemetry.inc("fuzz.idle_releases", fuzz.idle_releases)
            telemetry.inc("fuzz.stall_steps", fuzz.stall_steps)
            # Identity is schedule-determined (target + seed + counters);
            # wall/duration ride along for Perfetto export only.
            telemetry.emit(
                "trial",
                (program.name, self.timeline_target(), seed),
                {
                    "created": len(fuzz.hits),
                    "postpones": fuzz.postpones,
                    "coin_flips": fuzz.coin_flips,
                    "forced": fuzz.forced_releases,
                    "watchdog": fuzz.watchdog_releases,
                    "idle": fuzz.idle_releases,
                },
                wall_s=trial_wall,
                dur_s=execution.result.wall_time,
            )
        return fuzz

    # --- internals -------------------------------------------------------- #

    @staticmethod
    def _idle(execution: Execution, choosable: list[int], watch: PollWatch) -> bool:
        """Must a postponed thread be released?  Yes when every enabled
        thread outside ``postponed`` is polling and no live thread will
        change state on its own (a sleeper or timed waiter)."""
        streak, epoch = watch._streak, watch.epoch
        for tid in choosable:
            if streak.get(tid, -1) != epoch:  # watch.polling(tid), inlined
                return False
        return not choosable or not execution.deadlines()

    @staticmethod
    def _postpone(
        execution: Execution,
        tid: int,
        postponed: dict[int, int],
        watch: PollWatch,
        fuzz: FuzzResult,
    ) -> None:
        """Lines 14 and 21: add ``tid`` to the postponed set."""
        if not postponed:
            watch.epoch += 1  # polling is tracked again from here on
        postponed[tid] = execution.step_count
        fuzz.postpones += 1
        if len(postponed) > fuzz.postponed_high_water:
            fuzz.postponed_high_water = len(postponed)

    def _resolve(
        self,
        execution: Execution,
        tid: int,
        rivals: list[int],
        postponed: dict[int, int],
        watch: PollWatch,
        fuzz: FuzzResult,
    ) -> None:
        """Lines 8-19: report the created situation and resolve it randomly."""
        stmt = execution.next_stmt(tid)
        op = execution.next_op(tid)
        location_name = op.location.describe() if op.location is not None else "?"
        execute_arrival = self.resolve_arrival_first(execution, tid, rivals)
        fuzz.coin_flips += 1
        watch.epoch += 1
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
            self._postpone(execution, tid, postponed, watch, fuzz)  # line 14
            for rival in rivals:  # lines 15-18
                execution.step(rival)
                postponed.pop(rival, None)

    def _run_watchdog(
        self,
        execution: Execution,
        postponed: dict[int, int],
        exempt: set[int],
        fuzz: FuzzResult,
    ) -> None:
        """Section 4's livelock backstop: free threads postponed too long.

        ``postponed`` is ordered by postponement step (entries are only
        ever added at the current step, which never decreases), so the scan
        stops at the first thread that has not yet waited ``patience``.
        """
        now = execution.step_count
        patience = self.patience
        while postponed:
            tid, since = next(iter(postponed.items()))
            if now - since <= patience:
                return
            del postponed[tid]
            exempt.add(tid)
            fuzz.watchdog_releases += 1
            fuzz.stall_steps += now - since
