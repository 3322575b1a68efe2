"""Passive schedules are pinned: the baseline and timing runs of every
Table-1 row may get faster, never different.

Phase-1 reports and Phase-2 trials have their own pins
(``test_golden_phase1.py``, ``test_postponing.py::TestGoldenPhase2``);
this one covers ``Execution.run`` under the three passive schedulers,
the path of Table 1's baseline column and its timing runs.
"""

import hashlib

import pytest

from repro import workloads
from repro.core.schedulers import DefaultScheduler, RandomScheduler
from repro.runtime.interpreter import Execution

SEEDS = range(5)

SCHEDULERS = (
    ("default", DefaultScheduler),
    ("random-sync", lambda: RandomScheduler("sync")),
    ("random-every", lambda: RandomScheduler("every")),
)


class _TidLog(Execution):
    """An execution that records the tid of every op it executes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.executed: list[int] = []

    def _execute(self, ts) -> None:
        self.executed.append(ts.tid)
        super()._execute(ts)


def _run_digest(spec, make_scheduler, seed) -> str:
    execution = _TidLog(spec.build(), seed=seed, max_steps=spec.max_steps)
    result = execution.run(make_scheduler())
    return repr(
        (
            ",".join(map(str, execution.executed)),
            result.steps,
            result.exception_types,
            result.deadlock,
            result.truncated,
        )
    )


def _passive_digest(name: str) -> str:
    spec = workloads.get(name)
    digest = hashlib.sha256()
    for label, make_scheduler in SCHEDULERS:
        for seed in SEEDS:
            digest.update(f"{label}/{seed}:".encode())
            digest.update(_run_digest(spec, make_scheduler, seed).encode())
            digest.update(b"\n")
    return digest.hexdigest()


#: sha256 over seeds 0-4 of each passive scheduler's executed-tid sequence
#: and result.  A digest moves only when some passive schedule moves; if
#: that is the point of a change, print ``_passive_digest`` for the row
#: and update it here.
GOLDEN_PASSIVE = {
    "cache4j": "d8ac0fda6137a29fbb3ad02e9dbf222b013cd6fa6cc309a471826aafbbf44ab7",
    "vector": "fd89b8c2a2624b53b809aea0b3915d746eaa6084fbc5f71346d0d79ba57f9d87",
    "linkedlist": "90f4ec56a7275924a65bdb5c7a599183d3e8611a39811065daaea1eeb1bdfadc",
    "arraylist": "cedf54c60358594e98cf14307a8a67371c607a5db42dc62a7891aa25a1444926",
    "hashset": "fb91e5f14ee67112446aa1eef6d009fd36ac4f761d1b4fd097d714e81a866fb4",
    "treeset": "78b4b85d581f34d4e4a303e882422ce6fd368fbac42d423ad5e725ce0ceae3ff",
    "hedc": "8854232f361094df9539589135a25043db545de268ad3402ae85a8a3e87b5dfb",
    "jigsaw": "61b370e42dc3291a37cadfc0ba204769d3973a9e258139dc2cd722d2545c01f3",
    "jspider": "1f485ad1ef5214b243108c742565a3f3f4e19bc167a04d95128200667a2568cb",
    "moldyn": "62ad4e339072eae787d8f57d126cb119fa37379bd582f9d611081ff9df74db37",
    "montecarlo": "9786e34c91ff0787b43d2073de94806deb329a7c3e03a795ab06bbb67eb8ea8e",
    "raytracer": "2b2d0189f045674d6cc7749e8b00bb9f82254f504f3bb5f658680106d1c87774",
    "sor": "51f9167631517ef5974deab901a22bd02ddb46cfda397e7afafabc536f7447a0",
    "weblech": "3a8fde07e49c3a3aa5c42276224bf3a53425662da15cf1e602e7acd65d37d5b8",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PASSIVE))
def test_passive_schedules_match_the_pin(name):
    assert _passive_digest(name) == GOLDEN_PASSIVE[name]


def test_every_table1_row_is_pinned():
    assert sorted(GOLDEN_PASSIVE) == sorted(
        spec.name for spec in workloads.table1_workloads()
    )
