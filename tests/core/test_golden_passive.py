"""Passive schedules are pinned: the baseline and timing runs of every
Table-1 row may get faster, never different.

Phase-1 reports and Phase-2 trials have their own pins
(``test_golden_phase1.py``, ``test_postponing.py::TestGoldenPhase2``);
this one covers ``Execution.run`` under the three passive schedulers,
the path of Table 1's baseline column and its timing runs, and under
RAPOS, the Section 6 comparison's sampler, in a table of its own.
"""

import hashlib

import pytest

from repro import workloads
from repro.core.schedulers import (
    DefaultScheduler,
    RandomScheduler,
    baseline_scheduler,
)
from repro.runtime.interpreter import Execution

SEEDS = range(5)

SCHEDULERS = (
    ("default", DefaultScheduler),
    ("random-sync", lambda: RandomScheduler("sync")),
    ("random-every", lambda: RandomScheduler("every")),
)

RAPOS = (("rapos", lambda: baseline_scheduler("rapos")),)


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


def _passive_digest(name: str, schedulers=SCHEDULERS) -> str:
    spec = workloads.get(name)
    digest = hashlib.sha256()
    for label, make_scheduler in schedulers:
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


#: the same digest over seeds 0-4 of RAPOS alone, kept apart so that
#: every ``GOLDEN_PASSIVE`` digest stays as it was.
GOLDEN_RAPOS = {
    "cache4j": "42e1449948ff422661d45ca1c734cee2c3db1f4fcedce5ac49a85e071fe0c33c",
    "vector": "2ae78c3ddfcbd15857d84da0a9509948880ab5e899a6719743d78c44fea0161e",
    "linkedlist": "7d598742f0527c844157812dd7f822a282cf590494ede4e8073675ca8b2d9d9f",
    "arraylist": "6a2ac88674c4b16fb7ed94d29e68e91cab61acb29f7c0dcca05793f583aa1da7",
    "hashset": "4cbcc006b74a62c14f656277e9b84e1f3f7fdd47ca7b67f2f34e6da60d5de352",
    "treeset": "7d12de3e2a6dbd1af8d3ba887f38b71d8379ff3064b078d73a225eb510036aba",
    "hedc": "e6f5e88b1e850aba470bec616b58bb20bf4a8fdeb87f8da2d5ef9a89e27332b1",
    "jigsaw": "8e2482d47aef792d95b296ce6b9e3a16541f6a05234b65228fb7076f519fb213",
    "jspider": "35c04cb2fac7767e27130501f37808ee628442a543e8a34c32917df9e10163a8",
    "moldyn": "18e369d926e87dca2906f0a18061e81f9abc7163a2fd9a5f9d475885acb9693b",
    "montecarlo": "699eb36fbda9baedb087c5c34e87a189a75a0d4eae3c1ec7a4497cd65577ebc7",
    "raytracer": "6cef04fc126fab6b5a27df9f004afb0ef08df5a006a7ddde271809c07f62596d",
    "sor": "061a3ed035fce989f4991217e610abad71f601d0001ae66e821f93949f388a09",
    "weblech": "903f7a8511a8c2f90e1980d9dc86f6bcbb8ecf413be0001faa63d0754faa026f",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PASSIVE))
def test_passive_schedules_match_the_pin(name):
    assert _passive_digest(name) == GOLDEN_PASSIVE[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_RAPOS))
def test_rapos_schedules_match_the_pin(name):
    assert _passive_digest(name, RAPOS) == GOLDEN_RAPOS[name]


def test_every_table1_row_is_pinned():
    rows = sorted(spec.name for spec in workloads.table1_workloads())
    assert sorted(GOLDEN_PASSIVE) == rows
    assert sorted(GOLDEN_RAPOS) == rows
