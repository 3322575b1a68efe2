"""Atomicity-violation-directed active testing."""

from repro.core import AtomicityFuzzer, AtomicRegion, RandomScheduler
from repro.runtime import Execution, Lock, Program, SharedVar, join_all, ops, spawn_all
from repro.runtime.statement import Statement, StatementPair


def _check_then_act_factory(pad: int = 8):
    """The canonical single-variable atomicity violation: a lock-protected
    read-check and a lock-protected write that are *individually* atomic
    but not jointly — a foreign locked write between them breaks the
    invariant.  Note there is NO data race: everything is locked."""

    def factory():
        balance = SharedVar("balance", 10)
        dispensed = SharedVar("dispensed", 0)
        lock = Lock("L")

        def withdraw():
            yield lock.acquire()
            current = yield balance.read(label="check")
            yield lock.release()
            if current >= 10:
                for _ in range(pad):
                    yield ops.yield_point()
                # The region's second point is this acquire: postponing here
                # (outside the lock) lets the rival's critical section in.
                yield lock.acquire(label="act-acquire")
                yield balance.write(current - 10, label="act")
                cash = yield dispensed.read()
                yield dispensed.write(cash + 10)
                yield lock.release()

        def rival_withdraw():
            # Rival's postponement point is also its acquire (outside the
            # lock), so both sides can be paused simultaneously.
            yield lock.acquire(label="rival-acquire")
            current = yield balance.read()
            if current >= 10:
                yield balance.write(current - 10, label="rival")
                cash = yield dispensed.read()
                yield dispensed.write(cash + 10)
            yield lock.release()

        def main():
            handles = yield from spawn_all([withdraw, rival_withdraw])
            yield from join_all(handles)
            total = yield dispensed.read()
            yield ops.check(
                total <= 10, f"dispensed {total} from a balance of 10"
            )

        return main()

    return Program(factory, name="bank")


REGION = AtomicRegion(Statement(label="check"), Statement(label="act-acquire"))
RIVAL = Statement(label="rival-acquire")


class TestAtomicityFuzzer:
    def test_violation_forced_with_high_probability(self):
        fuzzer = AtomicityFuzzer(REGION, RIVAL, max_steps=50_000)
        outcomes = [
            fuzzer.run(_check_then_act_factory(), seed=seed) for seed in range(20)
        ]
        created = [o for o in outcomes if o.created]
        assert len(created) >= 16
        # The forced interleaving is the non-serializable one: the stale
        # check-then-act overdraws the account.
        violated = [
            o for o in created
            if any(c.error_type == "AssertionViolation" for c in o.crashes)
        ]
        assert violated, "forced interleaving never produced the overdraft"

    def test_rival_is_always_serialized_inside_the_region(self):
        fuzzer = AtomicityFuzzer(REGION, RIVAL, max_steps=50_000)
        for seed in range(10):
            outcome = fuzzer.run(_check_then_act_factory(), seed=seed)
            for hit in outcome.hits:
                assert hit.pair.first.site in ("act-acquire", "rival-acquire")
                assert hit.pair.second.site in ("act-acquire", "rival-acquire")

    def test_passive_scheduler_rarely_violates(self):
        violations = 0
        for seed in range(30):
            result = Execution(_check_then_act_factory(), seed=seed).run(
                RandomScheduler(preemption="every")
            )
            violations += bool(result.crashes)
        # The window is `pad` statements wide out of a long execution.
        assert violations < 30  # sanity: not every run violates

    def test_no_violation_when_region_is_actually_atomic(self):
        """Control: hold the lock across check and act; the fuzzer must not
        create the interleaving (the rival can never run in between)."""

        def factory():
            balance = SharedVar("balance", 10)
            lock = Lock("L")

            dispensed = SharedVar("dispensed", 0)

            def withdraw():
                yield lock.acquire()
                current = yield balance.read(label="check")
                if current >= 10:
                    yield balance.write(current - 10, label="act")
                    cash = yield dispensed.read()
                    yield dispensed.write(cash + 10)
                yield lock.release()

            def rival_withdraw():
                yield lock.acquire(label="rival-acquire")
                current = yield balance.read()
                if current >= 10:
                    yield balance.write(current - 10, label="rival")
                    cash = yield dispensed.read()
                    yield dispensed.write(cash + 10)
                yield lock.release()

            def main():
                handles = yield from spawn_all([withdraw, rival_withdraw])
                yield from join_all(handles)
                total = yield dispensed.read()
                yield ops.check(
                    total <= 10, f"dispensed {total} from a balance of 10"
                )

            return main()

        fuzzer = AtomicityFuzzer(REGION, RIVAL, max_steps=50_000)
        for seed in range(15):
            outcome = fuzzer.run(Program(factory), seed=seed)
            assert not outcome.crashes, f"seed {seed}"
            assert not outcome.result.deadlock


class TestNonMemoryTargets:
    def test_burst_stops_at_a_check_inside_the_region(self):
        """A region half may be any statement, here a ``check``: neither a
        memory access nor a sync op, so only the target probe stops the
        sync-preemption burst in front of it.  Without that stop the region
        runs to its end in one burst and the rival never gets in."""

        def factory():
            x = SharedVar("x", 0)

            def region():
                seen = yield x.read(label="first")
                yield ops.check(seen >= 0, "negative x", label="second")
                now = yield x.read()
                yield ops.check(now == seen, "x changed inside the region")

            def rival():
                yield x.write(1, label="rival")

            def main():
                handles = yield from spawn_all([region, rival])
                yield from join_all(handles)

            return main()

        region = AtomicRegion(Statement(label="first"), Statement(label="second"))
        fuzzer = AtomicityFuzzer(region, Statement(label="rival"), max_steps=10_000)
        for seed in range(10):
            outcome = fuzzer.run(Program(factory), seed=seed)
            assert [h.pair for h in outcome.hits] == [
                StatementPair(Statement(label="second"), Statement(label="rival"))
            ], f"seed {seed}"
            assert [c.error.message for c in outcome.crashes] == [
                "x changed inside the region"
            ], f"seed {seed}"
