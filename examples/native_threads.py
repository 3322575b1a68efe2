#!/usr/bin/env python
"""Race-fuzzing *real* Python threads.

Everything in the other examples runs generator bodies on the
deterministic engine.  This one drives ordinary ``threading``-style code:
the program below is plain Python — real stacks, real closures, real
exception flow — with its shared accesses routed through a
``NativeRuntime`` handle, which is this reproduction's analog of
CalFuzzer's bytecode instrumentation.  ``native_program`` makes it an
engine ``Program`` whose threads are real OS threads, so the pipeline is
the engine's own: the same Phase 1 detector, the same RaceFuzzer, the
same seed-only replay.

Run:  python examples/native_threads.py
"""

from repro.core import RandomScheduler, detect_races, fuzz_pair
from repro.native import NativeRuntime, native_program
from repro.runtime import Execution


def ticket_counter(rt: NativeRuntime) -> None:
    """A web-shop kernel: racy ticket issue, correctly locked revenue."""
    next_ticket = rt.var("next_ticket", 0)
    revenue = rt.var("revenue", 0)
    till = rt.lock("till")
    issued = []

    def sell(price):
        # BUG: ticket numbering is check-then-act without a lock.
        ticket = rt.read(next_ticket, label="ticket-read")
        rt.write(next_ticket, ticket + 1, label="ticket-write")
        issued.append(ticket)
        # Correct: revenue is lock-protected.
        rt.acquire(till)
        rt.write(revenue, rt.read(revenue) + price)
        rt.release(till)

    sellers = [rt.spawn(sell, 10), rt.spawn(sell, 15), rt.spawn(sell, 20)]
    for seller in sellers:
        rt.join(seller)
    rt.check(
        len(set(issued)) == len(issued),
        f"duplicate ticket numbers issued: {sorted(issued)}",
    )


def main() -> None:
    program = native_program(ticket_counter)

    print("=== passive random runs over real threads ===")
    crashes = sum(
        bool(Execution(program, seed=seed).run(RandomScheduler()).crashes)
        for seed in range(50)
    )
    print(f"duplicate tickets in {crashes}/50 passive runs")
    print()

    print("=== Phase 1: hybrid detection (the engine's detector) ===")
    report = detect_races(program, seeds=range(5))
    print(report)
    print()

    print("=== Phase 2: RaceFuzzer directing the real threads ===")
    for pair in report.pairs:
        outcomes = fuzz_pair(program, pair, range(50))
        created = sum(1 for o in outcomes if o.created)
        crashed = sum(1 for o in outcomes if o.crashes)
        print(f"{pair}")
        print(f"    race created {created}/50, duplicate tickets {crashed}/50")
    print()
    print("note the till-protected revenue never shows up: common-lock")
    print("accesses are filtered in Phase 1, exactly as for generator bodies.")


if __name__ == "__main__":
    main()
