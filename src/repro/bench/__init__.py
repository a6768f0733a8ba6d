"""Experiment harness for the paper's figures.

:mod:`repro.bench.harness` runs (workload, system, local-memory ratio)
points and returns normalized performance exactly as the paper reports it
("normalized over native execution on full local memory").
:mod:`repro.bench.reporting` renders the sweep tables the benchmark files
print.  :mod:`repro.bench.suites` is the registry of the virtual-time
baseline suites that ``python -m repro.bench`` writes and
``python -m repro.obs.regress`` gates.
"""

from repro.bench.harness import (
    ExperimentPoint,
    Sweep,
    mira_point,
    native_time_ns,
    sweep_systems,
    system_point,
)
from repro.bench.reporting import format_sweep_table

__all__ = [
    "ExperimentPoint",
    "Sweep",
    "mira_point",
    "native_time_ns",
    "sweep_systems",
    "system_point",
    "format_sweep_table",
]
