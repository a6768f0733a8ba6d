"""Experiment-harness tests."""

import pytest

from repro.bench.harness import (
    ExperimentPoint,
    effective_ns,
    mira_point,
    native_time_ns,
    system_point,
)
from repro.bench.reporting import format_figure
from repro.memsim.cost_model import CostModel
from repro.workloads import make_array_sum_workload, make_graph_workload

COST = CostModel()


@pytest.fixture(scope="module")
def wl():
    return make_graph_workload(num_edges=1200, num_nodes=300)


def test_native_time_validates_and_is_deterministic(wl):
    a = native_time_ns(wl, COST)
    b = native_time_ns(wl, COST)
    assert a == b > 0


def test_system_point_normalized(wl):
    native = native_time_ns(wl, COST)
    p = system_point(wl, "fastswap", COST, 0.3, native)
    assert not p.failed
    assert 0 < p.normalized_perf <= 1.2


def test_aifm_failure_recorded_not_raised():
    wl = make_array_sum_workload(num_elems=4096)  # 8-byte AIFM objects
    native = native_time_ns(wl, COST)
    p = system_point(wl, "aifm", COST, 0.1, native)
    assert p.failed
    assert "error" in p.extra


def test_mira_point_returns_program(wl):
    native = native_time_ns(wl, COST)
    p, program = mira_point(wl, COST, 0.3, native, max_iterations=1)
    assert not p.failed
    assert p.normalized_perf > 0
    assert program.plan is not None


def test_format_figure_marks_failed_points():
    points = [
        ExperimentPoint("fastswap", 0.5, 0.25),
        ExperimentPoint("mira", 0.5, 0.9),
        ExperimentPoint("aifm", 0.5, None),
    ]
    cells = ["FAIL" if p.failed else f"{p.normalized_perf:.3f}" for p in points]
    systems = ["fastswap", "mira", "aifm"]
    table = format_figure("t", "local", systems, ["50%"], [cells], ["a note"])
    assert table.splitlines() == [
        "t",
        "local |   fastswap |       mira |       aifm",
        "-" * 44,
        "  50% |      0.250 |      0.900 |       FAIL",
        "a note",
    ]


def test_format_series():
    # a one-column figure (Figs. 6, 15, 12): a series against its labels
    out = format_figure("s", "x", ["y"], ["1", "2"], [["0.5000"], ["1.0000"]])
    assert out.splitlines()[-2:] == ["1 |     0.5000", "2 |     1.0000"]


def test_effective_ns_prefers_measured_region(wl):
    from repro.baselines import NativeMemory
    from repro.core import run_on_baseline

    result = run_on_baseline(
        wl.build_module(), NativeMemory(COST, 4 * wl.footprint_bytes()), wl.data_init
    )
    # no 'measured' region in the graph workload: falls back to elapsed
    assert effective_ns(result) == result.elapsed_ns

