"""Experiment harness for the paper's figures.

:mod:`repro.bench.harness` runs (workload, system, local-memory ratio)
points and returns normalized performance exactly as the paper reports it
("normalized over native execution on full local memory").
:mod:`repro.bench.reporting` renders tables.  :mod:`repro.bench.suites`
is the registry of the virtual-time baseline suites that
``python -m repro.bench`` writes and ``python -m repro.obs.regress``
gates; :mod:`repro.bench.figures` is the paper's evaluation as one of them.
"""

from repro.bench.harness import (
    ExperimentPoint,
    mira_point,
    native_time_ns,
    system_point,
)

__all__ = [
    "ExperimentPoint",
    "mira_point",
    "native_time_ns",
    "system_point",
]
