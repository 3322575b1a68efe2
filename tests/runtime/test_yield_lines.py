"""The recorded line of every yield equals the frame's ``f_lineno``.

The engine reads a yield's line from a per-code-object ``{f_lasti: line}``
table instead of ``frame.f_lineno``.  ``LineCheckedExecution`` checks each
recorded site against the innermost frame, for every registered program
under ``RandomScheduler("every")`` with seeds 0-2, and in one RaceFuzzer
trial per Phase-1 pair.  The native-thread case lives in
``tests/native/test_native_runtime.py``.
"""

import pytest

from repro import workloads
from repro.core import RaceFuzzer, RandomScheduler, detect_races
from repro.core import postponing

from tests.conftest import LineCheckedExecution

PROGRAMS = sorted(spec.name for spec in workloads.all_workloads())


@pytest.mark.parametrize("name", PROGRAMS)
def test_random_every(name):
    spec = workloads.get(name)
    for seed in range(3):
        execution = LineCheckedExecution(
            spec.build(), seed=seed, max_steps=spec.max_steps
        )
        execution.run(RandomScheduler(preemption="every"))
        assert execution.sites_checked > 0


@pytest.mark.parametrize("name", PROGRAMS)
def test_racefuzzer(name, monkeypatch):
    spec = workloads.get(name)
    pairs = sorted(
        detect_races(
            spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
        ).pairs,
        key=str,
    )
    if not pairs:
        assert spec.truth.real_pairs == 0, f"{name}: Phase 1 found no pair"
        pytest.skip(f"{name}: no Phase-1 pair")
    made = []

    def checked(*args, **kwargs):
        made.append(LineCheckedExecution(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(postponing, "Execution", checked)
    program = spec.build()
    for pair in pairs:
        RaceFuzzer(pair, max_steps=spec.max_steps).run(program, seed=0)
    assert len(made) == len(pairs)
    assert all(e.sites_checked > 0 for e in made)
