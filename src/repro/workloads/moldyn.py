"""``moldyn`` — Java Grande molecular dynamics kernel (Table 1, row 1).

Structure mirrors the original: ``nthreads`` workers simulate ``steps``
velocity-Verlet phases over a particle set, separated by barriers; the
force accumulation into shared particle state is lock-protected; and two
**benign real races** exist, matching the paper's finding of "2 real (but
benign) races that were missed by previous dynamic analysis tools":

* the ``interactions`` statistics counter is incremented without a lock
  (lost updates are tolerated — it is only reported);
* the ``epot_ready`` diagnostic energy gauge is read unsynchronized by the
  coordinator while workers write it under their lock.

The paper also observed *livelocks* in moldyn under RaceFuzzer because a
spin-wait assumes a fair scheduler.  Our workers spin on a start flag at a
racing read, so a rendezvous or a forced release (line 27) ends the spin.
False positives for the hybrid detector come from the per-particle
velocity cells: they are handed off between phases by the barrier
generation flag (lock-protected flag, unprotected data — the Figure 1
pattern), plus partitioned writes that only the barrier orders.
"""

from __future__ import annotations

from repro.runtime import (
    AtomicCounter,
    Barrier,
    Lock,
    Program,
    SharedArray,
    SharedVar,
    join_all,
    ops,
    spawn_all,
)

from .base import GroundTruth, PaperRow, WorkloadSpec, register


def build(nthreads: int = 2, particles: int = 6, steps: int = 3) -> Program:
    """Molecular-dynamics kernel scaled for simulation."""

    def make():
        positions = SharedArray(particles, "positions", init=0)
        velocities = SharedArray(particles, "velocities", init=1)
        forces = SharedArray(particles, "forces", init=0)
        force_lock = Lock("forceLock")
        epot = SharedVar("epot", 0)  # potential energy, written under lock
        interactions = SharedVar("interactions", 0)  # benign racy counter
        started = SharedVar("started", 0)  # spin-wait flag (livelock source)
        barrier = Barrier(nthreads, "mdBarrier")
        done = AtomicCounter("doneWorkers")

        span = max(1, particles // nthreads)

        def worker(index):
            # Busy-wait for the coordinator's start signal (unfair-scheduler
            # hazard the paper observed in moldyn).
            while (yield started.read()) == 0:
                yield ops.yield_point()
            lo = index * span
            hi = particles if index == nthreads - 1 else lo + span
            for _ in range(steps):
                # Force phase: all-pairs contribution, locked accumulation.
                for i in range(lo, hi):
                    contribution = 0
                    for j in range(particles):
                        if i == j:
                            continue
                        other = yield positions.read(j)
                        mine = yield positions.read(i)
                        contribution += (other - mine) % 7
                        # Benign real race #1: statistics counter.
                        count = yield interactions.read()
                        yield interactions.write(count + 1)
                    yield force_lock.acquire()
                    old = yield forces.read(i)
                    yield forces.write(i, old + contribution)
                    energy = yield epot.read()
                    yield epot.write(energy + contribution)
                    yield force_lock.release()
                yield from barrier.wait_for_all()
                # Move phase: each worker owns its slice.
                for i in range(lo, hi):
                    force = yield forces.read(i)
                    speed = yield velocities.read(i)
                    yield velocities.write(i, (speed + force) % 11)
                    position = yield positions.read(i)
                    yield positions.write(i, (position + speed) % 13)
                    yield forces.write(i, 0)
                yield from barrier.wait_for_all()
            yield from done.add(1)

        def main():
            workers = yield from spawn_all(
                [(lambda k: lambda: worker(k))(k) for k in range(nthreads)],
                prefix="md",
            )
            yield started.write(1)
            # Benign real race #2: diagnostic read of the energy gauge while
            # workers are still writing it under their lock.
            observed = yield epot.read()
            yield ops.check(observed >= 0, "energy gauge went negative")
            yield from join_all(workers)
            total = yield from done.get()
            yield ops.check(total == nthreads, "a worker vanished")

        return main()

    return Program(make, name="moldyn")


SPEC = register(
    WorkloadSpec(
        name="moldyn",
        build=build,
        description="Java Grande molecular dynamics kernel (barriers + locks)",
        paper=PaperRow(
            sloc=1_352,
            normal_s=2.07,
            hybrid_s=3600.0,
            racefuzzer_s=42.37,
            hybrid_races=59,
            real_races=2,
            known_races=0,
            exceptions_rf=0,
            exceptions_simple=0,
            probability=1.00,
        ),
        truth=GroundTruth(
            real_pairs=4,
            harmful_pairs=0,
            notes=(
                "four real benign pairs: interactions read/write and "
                "write/write, the epot diagnostic read vs locked write, and "
                "the started spin-read vs the coordinator's write; "
                "velocity/position cells are barrier-ordered false "
                "positives for the hybrid detector."
            ),
        ),
        kind="closed",
    )
)
