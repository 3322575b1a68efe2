"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.harness.table1` — Table 1 (experiments E1-E5): one row is
  ``race_directed_test`` plus the passive baseline and the timing runs;
* :mod:`repro.harness.figure2_prob` — the Section 3.2 probability sweep
  (E7);
* :mod:`repro.harness.render` — shared text-table rendering.

``repro table1`` and ``repro figure2`` are the command lines;
``python -m repro.harness.table1`` and ``python -m
repro.harness.figure2_prob`` hand their arguments to the same commands.
Import the submodules directly (keeping this package namespace empty lets
``python -m repro.harness.<module>`` run without double-import warnings).
"""
