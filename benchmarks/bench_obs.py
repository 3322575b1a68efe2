"""Observability overhead: campaign wall clock with telemetry off vs on.

Telemetry is designed to cost one ``None``-check per instrumented site
when off (the default), and a handful of dict operations plus a few
events per *execution* — not per step — when on.  There is one switch
(``collecting()``; the CLI turns it on for ``--metrics-out`` or
``--timeline-out``), so there are two arms:

* ``off`` — the stock campaign, no telemetry (what ``table1`` and every
  other un-flagged entry point runs);
* ``on`` — the same campaign under ``collecting()``: counters, spans and
  the event ring all recording.

``overhead_ratio`` is ``on / off``; CI gates it below 1.5.

Two entry points:

* under pytest (``pytest benchmarks/bench_obs.py --benchmark-only``)
  each arm is a ``benchmark`` case;
* as a script (``python benchmarks/bench_obs.py``) it prints the
  comparison and writes a ``BENCH_obs.json`` overhead record for the
  perf trajectory.
"""

import json
import os
import time

from repro.core import detect_races, fuzz_races
from repro.obs import collecting, environment_metadata
from repro.workloads import figure1

PAIRS = [figure1.REAL_PAIR, figure1.FALSE_PAIR]


def _campaign(trials):
    phase1 = detect_races(figure1.build(), seeds=range(3), max_steps=20_000)
    verdicts = fuzz_races(
        figure1.build(), phase1.pairs, trials=trials, max_steps=20_000
    )
    return phase1, verdicts


def _time_campaign(trials, *, repeats, on):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        if on:
            with collecting():
                _campaign(trials)
        else:
            _campaign(trials)
        best = min(best, time.perf_counter() - start)
    return best


def test_campaign_telemetry_off(benchmark, quick_trials):
    _, verdicts = benchmark(lambda: _campaign(quick_trials))
    assert verdicts[figure1.REAL_PAIR].is_real


def test_campaign_telemetry_on(benchmark, quick_trials):
    def recorded():
        with collecting() as telemetry:
            result = _campaign(quick_trials)
        return result, telemetry.snapshot()

    (_, verdicts), snapshot = benchmark(recorded)
    assert verdicts[figure1.REAL_PAIR].is_real
    assert snapshot.counters["fuzz.trials"] == 2 * quick_trials
    assert any(event.kind == "chunk" for event in snapshot.events)
    benchmark.extra_info["counters"] = len(snapshot.counters)
    benchmark.extra_info["events"] = len(snapshot.events)


def test_telemetry_inc(benchmark):
    """The hot-path primitive: one counter increment."""
    with collecting() as telemetry:
        benchmark(lambda: telemetry.inc("bench.counter"))


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", default="BENCH_obs.json")
    args = parser.parse_args(argv)

    # Interleave-free warmup so both arms measure hot code.
    _campaign(5)

    off_s = _time_campaign(args.trials, repeats=args.repeats, on=False)
    on_s = _time_campaign(args.trials, repeats=args.repeats, on=True)

    with collecting() as telemetry:
        _campaign(args.trials)
    snapshot = telemetry.snapshot()

    record = {
        "benchmark": "observability-overhead",
        "workload": "figure1",
        "pairs": len(PAIRS),
        "trials_per_pair": args.trials,
        "repeats": args.repeats,
        "cpu_count": os.cpu_count(),
        "env": environment_metadata(),
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "overhead_ratio": round(on_s / off_s, 3) if off_s else None,
        "events": len(snapshot.events),
        "counters_collected": len(snapshot.counters),
        "spans_collected": len(snapshot.spans),
        "interp_executions": snapshot.counters.get("interp.executions", 0),
        "interp_steps": snapshot.counters.get("interp.steps", 0),
    }
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
