"""Cost model unit tests."""

import pytest

from repro.baselines import FastSwap, NativeMemory
from repro.core import MiraController, run_on_baseline
from repro.errors import ConfigError
from repro.ir.dialects import scf
from repro.memsim.cost_model import CostModel
from repro.transforms.prefetch import prefetch_distance
from repro.workloads import make_graph_workload


def test_transfer_scales_with_bytes(cost):
    assert cost.transfer_ns(0) == 0.0
    assert cost.transfer_ns(625) == pytest.approx(100.0)


def test_transfer_negative_rejected(cost):
    with pytest.raises(ConfigError):
        cost.transfer_ns(-1)


def test_one_sided_adds_rtt(cost):
    assert cost.one_sided_ns(0) == cost.net_rtt_ns
    assert cost.one_sided_ns(6250) == pytest.approx(cost.net_rtt_ns + 1000.0)


def test_two_sided_more_expensive_than_one_sided(cost):
    for nbytes in (0, 64, 4096):
        assert cost.two_sided_ns(nbytes) > cost.one_sided_ns(nbytes)


def test_two_sided_cheaper_for_selective_fetch(cost):
    """The section 4.7 trade-off: fetching 64 selected bytes two-sided
    beats fetching the whole 4 KB structure one-sided."""
    assert cost.two_sided_ns(64) < cost.one_sided_ns(4096)


def test_page_fetch_includes_fault_path(cost):
    base = cost.page_fetch_ns(4096)
    assert base > cost.one_sided_ns(4096)
    assert cost.page_fetch_ns(4096, extra_fault_ns=1000.0) == pytest.approx(
        base + 1000.0
    )


def test_hit_overhead_ordering(cost):
    """Lookup cost: direct < set-associative < fully-associative."""
    assert (
        cost.hit_overhead_ns("direct")
        < cost.hit_overhead_ns("set_associative")
        < cost.hit_overhead_ns("fully_associative")
    )


def test_hit_overhead_unknown_structure(cost):
    with pytest.raises(ConfigError):
        cost.hit_overhead_ns("weird")


def test_with_overrides(cost):
    c2 = cost.with_overrides(net_rtt_ns=9999.0)
    assert c2.net_rtt_ns == 9999.0
    assert cost.net_rtt_ns != 9999.0
    assert c2.dram_access_ns == cost.dram_access_ns


def test_invalid_models_rejected():
    with pytest.raises(ConfigError):
        CostModel(net_bandwidth_bpns=0)
    with pytest.raises(ConfigError):
        CostModel(dram_access_ns=-1)
    nan, inf = float("nan"), float("inf")
    for name, bad in [
        ("net_rtt_ns", -5.0),  # was accepted: a 64 B two-sided read cost 410.57 ns
        ("net_bandwidth_bpns", nan),  # passed ``<= 0``; died later in the clock
        ("two_sided_copy_bpns", 0.0),  # ZeroDivisionError at the first message
        ("dram_stream_bpns", 0.0),  # ...and at the first touch
        ("far_cpu_slowdown", -1.0),  # was silent
        ("far_cpu_slowdown", 0.0),
        ("dram_access_ns", 0.0),
        ("cpu_op_ns", nan),
        ("page_fault_ns", inf),
        ("net_bandwidth_bpns", inf),
        ("evict_overhead_ns", -0.5),
    ]:
        with pytest.raises(ConfigError, match=name):
            CostModel(**{name: bad})
        with pytest.raises(ConfigError, match=name):
            CostModel.cxl().with_overrides(**{name: bad})
    # zero is a duration: a free lookup or an instant link is a valid model
    assert CostModel(net_rtt_ns=0.0, hit_overhead_direct_ns=0).net_rtt_ns == 0.0


def test_durations_are_snapped_to_the_time_grid_rates_are_not():
    model = CostModel(dram_access_ns=33.3, cpu_op_ns=1, net_bandwidth_bpns=6.1)
    assert model.dram_access_ns == round(33.3 * 1024) / 1024 != 33.3
    assert model.cpu_op_ns == 1.0 and type(model.cpu_op_ns) is float
    assert model.net_bandwidth_bpns == 6.1
    assert model.with_overrides(net_rtt_ns=1.0) == CostModel(
        dram_access_ns=model.dram_access_ns, cpu_op_ns=1.0,
        net_bandwidth_bpns=6.1, net_rtt_ns=1.0,
    )
    # 4096 B at 6.25 B/ns is 655.36 ns: the quotient is snapped, once
    default = CostModel()
    assert default.transfer_ns(4096) == 655.3603515625
    assert default.one_sided_ns(4096) == 3655.3603515625
    assert default.two_sided_ns(64) - default.one_sided_ns(64) == 400.0 + 5.3330078125


def test_cxl_profile_is_faster_and_finer():
    cxl = CostModel.cxl()
    rdma = CostModel.rdma()
    assert cxl.net_rtt_ns < rdma.net_rtt_ns / 5
    assert cxl.net_bandwidth_bpns > rdma.net_bandwidth_bpns
    assert cxl.page_fetch_ns(4096) < rdma.page_fetch_ns(4096)


def test_prefetch_distance_shrinks_on_cxl():
    """Shorter round trips need less lookahead (section 4.5: distance is
    derived from measured network delay)."""
    wl = make_graph_workload(num_edges=256, num_nodes=64)
    module = wl.build_module()
    loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
    assert prefetch_distance(loop, CostModel.cxl()) < prefetch_distance(
        loop, CostModel.rdma()
    )


def test_mira_still_wins_under_cxl():
    cxl = CostModel.cxl()
    wl = make_graph_workload(num_edges=1500, num_nodes=400)
    local = wl.footprint_bytes() // 5
    native = run_on_baseline(
        wl.build_module(), NativeMemory(cxl, 4 * wl.footprint_bytes()), wl.data_init
    )
    fast = run_on_baseline(wl.build_module(), FastSwap(cxl, local), wl.data_init)
    program = MiraController(
        wl.build_module, cxl, local, data_init=wl.data_init, max_iterations=2
    ).optimize()
    assert program.best_ns < fast.elapsed_ns
    # the overall penalty for far memory is smaller under CXL
    assert native.elapsed_ns / fast.elapsed_ns > 0.1
