"""Evaluation workloads (paper section 6).

Each workload packages an IR program builder, deterministic synthetic
input data, and a correctness check, so every system runs the *same*
computation on the *same* access stream.

* :mod:`repro.workloads.graph` -- the running graph-traversal example
  (Fig. 4): sequential edge array + indirectly accessed node array;
* :mod:`repro.workloads.array_sum` -- the micro-benchmark of Fig. 19/20;
* :mod:`repro.workloads.dataframe` -- a mini columnar analytics engine on
  NYC-taxi-shaped synthetic data (avg/min/max, filter, group-by);
* :mod:`repro.workloads.gpt2` -- transformer inference at layer
  granularity (weights + KV cache streaming, FLOP-charged compute);
* :mod:`repro.workloads.mcf` -- a network-simplex-flavored kernel
  (indirect arc scans + pointer chasing), SPEC MCF's access shape.
"""

from repro.workloads.array_sum import make_array_sum_workload
from repro.workloads.base import Workload
from repro.workloads.dataframe import (
    make_dataframe_amm_workload,
    make_dataframe_workload,
    make_filter_workload,
)
from repro.workloads.gpt2 import make_gpt2_workload
from repro.workloads.graph import make_graph_workload
from repro.workloads.mcf import make_mcf_workload

#: workload-name -> factory, for building a workload from ``(name, params)``
WORKLOAD_FACTORIES = {
    "array_sum": make_array_sum_workload,
    "dataframe": make_dataframe_workload,
    "dataframe_amm": make_dataframe_amm_workload,
    "dataframe_filter": make_filter_workload,
    "gpt2": make_gpt2_workload,
    "graph_traversal": make_graph_workload,
    "mcf": make_mcf_workload,
}


def make_workload(name: str, **params) -> Workload:
    """Build a registered workload by name; a parameter its factory does
    not take raises the factory's ``TypeError``."""
    try:
        factory = WORKLOAD_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: "
            f"{sorted(WORKLOAD_FACTORIES)}"
        ) from None
    return factory(**params)


__all__ = [
    "WORKLOAD_FACTORIES",
    "Workload",
    "make_array_sum_workload",
    "make_dataframe_amm_workload",
    "make_dataframe_workload",
    "make_filter_workload",
    "make_gpt2_workload",
    "make_graph_workload",
    "make_mcf_workload",
    "make_workload",
]
