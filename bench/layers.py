"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps the public entry point of each layer (see
:data:`LAYERS`) while a traced round runs, keeps the spans in memory and
derives each layer's self time: a span's duration minus the part its
child spans cover.  Every traced round is itself a ``bench`` span, so the
self times of all layers sum to the rounds' wall time and the ``bench``
row is the leftover: benchmark code between engine calls.

No timer runs per interpreter step.  The finest spans are one Phase-2
trial and one program execution, so a layer's time spent *inside* an
execution (detector and trace-recorder callbacks) is the interpreter's.

Probes that need whole artifacts (pickling the supervisor's envelopes,
decoding the recorded traces) run after a traced round, untimed by it.
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from pathlib import Path

import repro.trace
from repro.core import driver, parallel, postponing, schedule, supervisor
from repro.runtime.interpreter import Execution
from repro.trace import TraceReader, TraceStore, replay_events

from workloads import DETECTORS

#: breakdown rows: span layer -> metric prefix of its ``self_s``.
LAYERS = {
    "runtime.interpreter": "interp",
    "core.postponing": "postponing",
    "core.driver": "driver",
    "core.parallel": "parallel",
    "core.schedule": "schedule",
    "core.supervisor": "supervisor",
    "trace.store": "trace",
    "detectors": "detectors",
    "bench": "bench",
}

#: per-layer metrics that are plain counts (or summed seconds) per round.
COUNTED = (
    "postponing.trials",
    "postponing.steps",
    "postponing.postpones",
    "postponing.forced_releases",
    "postponing.watchdog_releases",
    "postponing.coin_flips",
    "interp.executions",
    "trace.decode_s",
    "trace.events",
    "trace.store_mb",
    "trace.live_pass_s",
    "trace.cold_pass_s",
    "trace.warm_pass_s",
    *(f"detectors.{name}.self_s" for name in DETECTORS),
    "detectors.pairs",
    "schedule.rounds",
    "schedule.chunks",
    "supervisor.tasks",
    "supervisor.journal_bytes",
    "supervisor.pickle_s",
    "supervisor.pickle_bytes",
    "obs.timeline_events",
)


class Span:
    __slots__ = ("layer", "name", "phase", "start", "end", "parent", "child_s", "outer")

    def __init__(self, layer, name, phase, parent, outer):
        self.layer = layer
        self.name = name
        self.phase = phase
        self.parent = parent
        self.outer = outer
        self.child_s = 0.0
        self.start = time.perf_counter()
        self.end = self.start


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (0 when there are no values)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class Tracer:
    """Spans and counts at layer boundaries, for the traced rounds."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.phase_s = {"phase1": 0.0, "phase2": 0.0, "baseline": 0.0}
        self.counts: dict[str, float] = {}
        self.trial_s: list[float] = []
        #: (wall, reference_s) of every round of the run, by kind: "plain"
        #: (untraced), "quiet" (untraced, telemetry off), "traced".
        self.walls: dict[str, list[tuple[float, float]]] = {
            "plain": [], "quiet": [], "traced": []
        }
        self.rounds = 0
        self._stack: list[Span] = []
        self._undo: list = []
        self._envelopes: list = []

    # -- spans ---------------------------------------------------------- #

    def open(self, layer: str, name: str, phase: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        outer = phase is not None and not any(s.phase == phase for s in self._stack)
        span = Span(layer, name, phase, parent, outer)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> float:
        span.end = time.perf_counter()
        self._stack.pop()
        duration = span.end - span.start
        self.self_s[span.layer] += duration - span.child_s
        if span.parent is not None:
            span.parent.child_s += duration
        if span.outer:
            self.phase_s[span.phase] += duration
        self.spans.append(span)
        return duration

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- wrapping the layers' entry points ------------------------------ #

    def _wrap(self, owner, attr, layer, phase=None, after=None) -> None:
        original = owner.__dict__[attr]
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(layer, name, phase)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer.close(span)
            if after is not None:
                after(args, result, duration)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        wrap = self._wrap
        wrap(Execution, "run", "runtime.interpreter", after=self._after_execution)
        wrap(postponing.PostponingDriver, "run", "core.postponing", after=self._after_trial)
        wrap(driver, "detect_races", "core.driver", "phase1")
        wrap(driver, "fuzz_races", "core.driver", "phase2")
        wrap(driver, "baseline_exceptions", "core.driver", "baseline")
        wrap(driver, "race_directed_test", "core.driver")
        wrap(parallel.ParallelCampaign, "detect", "core.parallel", "phase1")
        wrap(parallel.ParallelCampaign, "fuzz", "core.parallel", "phase2")
        wrap(supervisor, "run_envelope", "core.parallel", after=self._after_envelope)
        wrap(
            supervisor.CampaignSupervisor, "supervise", "core.supervisor",
            after=lambda args, result, _: self.add("supervisor.tasks", len(args[2])),
        )
        wrap(schedule.CampaignSchedule, "next_batch", "core.schedule", after=self._after_batch)
        for cls in vars(schedule).values():
            if isinstance(cls, type) and issubclass(cls, schedule.CampaignSchedule):
                for method in ("bind", "record"):
                    if method in cls.__dict__:
                        wrap(cls, method, "core.schedule")
        wrap(TraceStore, "ensure", "trace.store")
        wrap(repro.trace, "analyze_trace", "detectors")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _after_execution(self, args, result, duration) -> None:
        execution = args[0]
        self.add("interp.executions", 1)
        self.add("interp.steps", execution.ops_executed)
        if execution.observer.observers:
            self.add("interp.observed_steps", execution.ops_executed)
            self.add("interp.observed_s", duration)

    def _after_trial(self, args, fuzz, duration) -> None:
        patience = args[0].patience
        self.trial_s.append(duration)
        self.add("postponing.trials", 1)
        self.add("postponing.steps", fuzz.result.steps)
        self.add("postponing.postpones", fuzz.postpones)
        self.add("postponing.forced_releases", fuzz.forced_releases)
        self.add("postponing.watchdog_releases", fuzz.watchdog_releases)
        self.add("postponing.coin_flips", fuzz.coin_flips)
        self.add("postponing.created", 1 if fuzz.created else 0)
        self.add("postponing.watchdog_trials", 1 if fuzz.watchdog_releases else 0)
        self.add("postponing.stall_steps_ub", fuzz.watchdog_releases * patience)

    def _after_batch(self, args, batch, duration) -> None:
        if batch:
            self.add("schedule.rounds", 1)
            self.add("schedule.chunks", len(batch))

    def _after_envelope(self, args, result, duration) -> None:
        self._envelopes.append((args[0], result))

    # -- rounds and probes ---------------------------------------------- #

    def run_round(self, body):
        """Run ``body()`` as one traced round; returns (result, wall)."""
        self.install()
        try:
            span = self.open("bench", "round")
            try:
                result = body()
            finally:
                wall = self.close(span)
        finally:
            self.uninstall()
        self.rounds += 1
        self.add("bench.round_s", wall)
        return result, wall

    def note_round(self, kind: str, wall: float, reference: float, counts: dict) -> None:
        """Record any round of the run; a traced one also adds its counts."""
        self.walls[kind].append((wall, reference))
        if kind == "traced":
            for name, value in counts.items():
                self.add(name, value)

    def probe(self, scratch: Path) -> None:
        """Untimed after-round probes over what the round left behind."""
        for envelope, result in self._envelopes:
            start = time.perf_counter()
            blobs = [pickle.dumps(envelope), pickle.dumps(result)]
            for blob in blobs:
                pickle.loads(blob)
            self.add("supervisor.pickle_s", time.perf_counter() - start)
            self.add("supervisor.pickle_bytes", sum(map(len, blobs)))
        self._envelopes.clear()
        for path in sorted(scratch.rglob("*.jsonl")):
            start = time.perf_counter()
            with TraceReader(path) as reader:
                replay_events(reader, [], program=reader.header.program)
                events = reader.events_read
            decode = time.perf_counter() - start
            self.add("trace.decode_s", decode)
            self.add("trace.events", events)
            self.add("trace.bytes", path.stat().st_size)
            for name in DETECTORS:
                start = time.perf_counter()
                repro.trace.analyze_trace(path, [name])
                self.add(f"detectors.{name}.self_s", time.perf_counter() - start - decode)

    # -- results -------------------------------------------------------- #

    def metrics(self) -> dict:
        """Every per-layer metric of the run, by name.

        Values are per traced round unless the name says rate, share,
        ratio or percentile; a layer the workload does not exercise
        reports 0.  The two overhead ratios compare rounds of the same
        run by wall time over ``reference_s()``.
        """
        n = max(self.rounds, 1)
        c = self.counts.get
        values = {name: c(name, 0) / n for name in COUNTED}
        trials = c("postponing.trials", 0)
        steps = c("postponing.steps", 0)
        wall = c("bench.round_s", 0)
        interp_s = sum(s.end - s.start for s in self.spans if s.layer == "runtime.interpreter")
        record_s = sum(s.end - s.start for s in self.spans if s.layer == "trace.store")

        def ratio(a, b):
            return a / b if b else 0.0

        def relative(kind):
            return _median([wall / ref for wall, ref in self.walls[kind]])

        values.update(
            {
                "postponing.trial_s": sum(self.trial_s) / n,
                "postponing.trial_ms_p50": _quantile(self.trial_s, 50) * 1e3,
                "postponing.trial_ms_p99": _quantile(self.trial_s, 99) * 1e3,
                "postponing.created_share": ratio(c("postponing.created", 0), trials),
                "postponing.watchdog_trial_share": ratio(
                    c("postponing.watchdog_trials", 0), trials
                ),
                "postponing.stall_step_share_ub": ratio(
                    c("postponing.stall_steps_ub", 0), steps
                ),
                "interp.run_s": interp_s / n,
                "interp.steps_per_s": ratio(c("interp.steps", 0), interp_s),
                "interp.observed_steps_per_s": ratio(
                    c("interp.observed_steps", 0), c("interp.observed_s", 0)
                ),
                "driver.phase1_s": self.phase_s["phase1"] / n,
                "driver.phase2_s": self.phase_s["phase2"] / n,
                "driver.baseline_s": self.phase_s["baseline"] / n,
                "trace.record_s": record_s / n,
                "trace.decode_events_per_s": ratio(
                    c("trace.events", 0), c("trace.decode_s", 0)
                ),
                "trace.bytes_per_event": ratio(c("trace.bytes", 0), c("trace.events", 0)),
                "obs.overhead_ratio": ratio(relative("plain"), relative("quiet")),
                "bench.unattributed_s": self.self_s["bench"] / n,
                "bench.unattributed_share": ratio(self.self_s["bench"], wall),
                "bench.round_s": wall / n,
                "bench.untraced_round_s": _median([w for w, _ in self.walls["plain"]]),
                "bench.trace_overhead": ratio(relative("traced"), relative("plain")),
            }
        )
        for layer, prefix in LAYERS.items():
            if prefix != "bench":
                values[f"{prefix}.self_s"] = self.self_s[layer] / n
        return values

    def breakdown(self) -> str:
        """Layer self times per traced round; the rows sum to the wall."""
        n = max(self.rounds, 1)
        wall = sum(self.self_s.values())
        lines = [f"{'layer':<22}{'self_s/round':>14}{'share':>9}"]
        for layer, seconds in self.self_s.items():
            label = "bench (unattributed)" if layer == "bench" else layer
            lines.append(f"{label:<22}{seconds / n:>14.4f}{seconds / wall if wall else 0:>9.1%}")
        lines.append(f"{'= round wall':<22}{wall / n:>14.4f}{1 if wall else 0:>9.1%}")
        return "\n".join(lines)

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as Chrome trace-event JSON (loads in Perfetto)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for span in sorted(self.spans, key=lambda s: (s.start, -s.end))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
