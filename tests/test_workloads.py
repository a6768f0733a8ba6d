"""Workload correctness: every workload computes the same verified result
on every memory system (performance differs, values must not)."""

import pytest

from repro.baselines import AIFM, FastSwap, Leap, NativeMemory
from repro.core import MiraController, run_on_baseline, run_plan
from repro.errors import AllocationError
from repro.ir.verifier import verify
from repro.memsim.cost_model import CostModel
from repro.workloads import (
    make_array_sum_workload,
    make_dataframe_workload,
    make_graph_workload,
    make_gpt2_workload,
    make_mcf_workload,
    make_workload,
)
from repro.workloads.dataframe import make_dataframe_amm_workload, make_filter_workload

COST = CostModel()

SMALL = {
    "array_sum": lambda: make_array_sum_workload(num_elems=2048),
    "graph": lambda: make_graph_workload(num_edges=1500, num_nodes=400),
    "dataframe": lambda: make_dataframe_workload(num_rows=2048, num_locations=4096),
    "dataframe_amm": lambda: make_dataframe_amm_workload(num_rows=2048),
    "filter": lambda: make_filter_workload(num_rows=2048, repeats=2),
    "mcf": lambda: make_mcf_workload(num_nodes=1024, num_arcs=2048, chases=16),
    "gpt2": lambda: make_gpt2_workload(layers=4, passes=2, d_model=64, seq_len=32),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_modules_verify(name):
    wl = SMALL[name]()
    verify(wl.build_module())
    assert wl.footprint_bytes() > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_native_result_matches_reference(name):
    wl = SMALL[name]()
    result = run_on_baseline(
        wl.build_module(), NativeMemory(COST, 4 * wl.footprint_bytes()), wl.data_init
    )
    wl.verify_results(result.results)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("system_cls", [FastSwap, Leap, AIFM])
def test_baselines_compute_same_results(name, system_cls):
    wl = SMALL[name]()
    local = max(8192, wl.footprint_bytes() // 3)
    try:
        result = run_on_baseline(
            wl.build_module(), system_cls(COST, local), wl.data_init
        )
    except AllocationError:
        pytest.skip(f"{system_cls.name} cannot run {name} at 1/3 memory (by design)")
    wl.verify_results(result.results)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_mira_computes_same_results(name):
    wl = SMALL[name]()
    local = max(8192, wl.footprint_bytes() // 3)
    program = MiraController(
        wl.build_module, COST, local, data_init=wl.data_init, max_iterations=1
    ).optimize()
    result = run_plan(program.module, COST, local, wl.data_init)
    wl.verify_results(result.results)


def test_graph_third_array_variant():
    wl = make_graph_workload(
        num_edges=1000, num_nodes=200, with_random_array=True, random_elems=512
    )
    result = run_on_baseline(
        wl.build_module(), NativeMemory(COST, 4 * wl.footprint_bytes()), wl.data_init
    )
    wl.verify_results(result.results)


def test_gpt2_multithreaded_matches_single():
    one = SMALL["gpt2"]()
    mt = make_gpt2_workload(
        layers=4, passes=2, d_model=64, seq_len=32, num_threads=4
    )
    r1 = run_on_baseline(
        one.build_module(), NativeMemory(COST, 4 * one.footprint_bytes()),
        one.data_init,
    )
    r2 = run_on_baseline(
        mt.build_module(), NativeMemory(COST, 4 * mt.footprint_bytes()),
        mt.data_init,
    )
    assert r1.results == r2.results
    assert r2.elapsed_ns < r1.elapsed_ns  # threads shorten virtual time


def test_filter_multithreaded_matches_single():
    one = make_filter_workload(num_rows=2048, repeats=2, num_threads=1)
    mt = make_filter_workload(num_rows=2048, repeats=2, num_threads=4)
    r1 = run_on_baseline(
        one.build_module(), NativeMemory(COST, 4 * one.footprint_bytes()),
        one.data_init,
    )
    r2 = run_on_baseline(
        mt.build_module(), NativeMemory(COST, 4 * mt.footprint_bytes()),
        mt.data_init,
    )
    assert r1.results == r2.results


def test_workload_footprints_scale_with_params():
    small = make_graph_workload(num_edges=1000, num_nodes=100)
    big = make_graph_workload(num_edges=4000, num_nodes=400)
    assert big.footprint_bytes() > 3 * small.footprint_bytes()


def test_make_workload_rejects_unknown_parameter():
    """A misspelt parameter names itself instead of silently running the
    factory's default (here 6000 edges)."""
    with pytest.raises(TypeError, match="num_edge"):
        make_workload("graph_traversal", num_edge=10, num_nodes=4)
