"""Section-planner and controller tests (the Fig. 1 iterative flow)."""

import json

import pytest

import repro.core.controller as controller_mod
from repro.baselines import FastSwap, NativeMemory
from repro.cache.config import Structure
from repro.core import MiraController, MiraPlan, compile_program, run_on_baseline, run_plan
from repro.core.section_planner import plan_sections
from repro.faults import FaultPlan
from repro.ir.printer import print_module
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.obs.analyze import analyze_events
from repro.workloads import make_graph_workload


@pytest.fixture(scope="module")
def graph_wl():
    return make_graph_workload(num_edges=2000, num_nodes=600)


@pytest.fixture(scope="module")
def swap_profile(graph_wl):
    cost = CostModel()
    local = graph_wl.footprint_bytes() // 3
    src = graph_wl.build_module()
    compiled = compile_program(src, MiraPlan.swap_only(), cost, instrument=True)
    result = run_plan(compiled, cost, local, graph_wl.data_init)
    return src, result, cost, local


def test_planner_separates_edge_and_node_sections(swap_profile):
    src, result, cost, local = swap_profile
    plan = plan_sections(src, cost, local, result.profiler, fraction=0.1)
    by_objs = {tuple(sp.object_names): sp for sp in plan.sections}
    assert ("edges",) in by_objs
    assert ("nodes",) in by_objs
    edges = by_objs[("edges",)]
    nodes = by_objs[("nodes",)]
    # sequential edges: direct-mapped, big lines, small section
    assert edges.config.structure is Structure.DIRECT
    assert edges.config.line_size >= 1024
    # indirect nodes: set-associative, small lines, most of the memory
    assert nodes.config.structure is Structure.SET_ASSOCIATIVE
    assert nodes.config.line_size <= 128
    assert nodes.config.size_bytes > edges.config.size_bytes


def test_planner_respects_budget(swap_profile):
    src, result, cost, local = swap_profile
    plan = plan_sections(src, cost, local, result.profiler, fraction=0.1)
    assert plan.total_section_bytes() <= local


def test_planner_converts_selected_sites(swap_profile):
    src, result, cost, local = swap_profile
    plan = plan_sections(src, cost, local, result.profiler, fraction=0.1)
    assert set(plan.converted_sites) == {"edges", "nodes"}


def test_planner_empty_profile_gives_swap_only(swap_profile):
    from repro.memsim.clock import VirtualClock
    from repro.runtime.profiler import Profiler

    src, _, cost, local = swap_profile
    empty = Profiler(VirtualClock())
    plan = plan_sections(src, cost, local, empty, fraction=0.1)
    assert not plan.sections


def test_plan_without_options_disables_passes(swap_profile):
    src, result, cost, local = swap_profile
    plan = plan_sections(src, cost, local, result.profiler, fraction=0.1)
    stripped = plan.without_options("prefetch", "evict")
    assert "prefetch" not in stripped.options
    compiled = compile_program(src, stripped, cost)
    from repro.ir.dialects import rmem

    assert not [op for op in compiled.walk() if isinstance(op, rmem.PrefetchOp)]


def test_controller_improves_over_swap_and_beats_fastswap(graph_wl):
    cost = CostModel()
    local = graph_wl.footprint_bytes() // 4
    native = run_on_baseline(
        graph_wl.build_module(),
        NativeMemory(cost, 4 * graph_wl.footprint_bytes()),
        graph_wl.data_init,
    )
    fast = run_on_baseline(
        graph_wl.build_module(), FastSwap(cost, local), graph_wl.data_init
    )
    controller = MiraController(
        graph_wl.build_module, cost, local, data_init=graph_wl.data_init,
        max_iterations=2,
    )
    program = controller.optimize()
    assert program.best_ns <= program.swap_baseline_ns
    assert program.best_ns < fast.elapsed_ns
    # the compiled program still computes the right answer
    final = run_plan(program.module, cost, local, graph_wl.data_init)
    graph_wl.verify_results(final.results)
    # iteration history starts with the swap run and records acceptance
    assert program.history[0].iteration == 0
    assert program.history[0].accepted


def test_controller_rolls_back_regressions(graph_wl):
    """With enough local memory, swap is already near-native; if a
    section plan regresses, the controller must keep the best (swap or
    better) configuration."""
    cost = CostModel()
    local = graph_wl.footprint_bytes()  # 100% local memory
    controller = MiraController(
        graph_wl.build_module, cost, local, data_init=graph_wl.data_init,
        max_iterations=2,
    )
    program = controller.optimize()
    best = min(h.elapsed_ns for h in program.history if h.elapsed_ns != float("inf"))
    assert program.best_ns == pytest.approx(best)


def test_controller_scope_reduction_stats(graph_wl):
    cost = CostModel()
    local = graph_wl.footprint_bytes() // 4
    program = MiraController(
        graph_wl.build_module, cost, local, data_init=graph_wl.data_init,
        max_iterations=1,
    ).optimize()
    assert program.functions_total >= 1
    assert program.alloc_sites_total == 2
    assert program.alloc_sites_selected <= program.alloc_sites_total


def test_controller_with_size_sampling(graph_wl):
    cost = CostModel()
    local = graph_wl.footprint_bytes() // 4
    program = MiraController(
        graph_wl.build_module, cost, local, data_init=graph_wl.data_init,
        max_iterations=1, sample_sizes=True,
    ).optimize()
    final = run_plan(program.module, cost, local, graph_wl.data_init)
    graph_wl.verify_results(final.results)


# -- a repeated plan is measured once ------------------------------------------
#
# On every default Mira point round 2 widens the scope and arrives at round
# 1's plan again (only ``notes["fraction"]`` differs).  A run is a pure
# function of the compiled plan, so the controller records that round with
# round 1's time instead of running the program a third time.


def _fig5_controller(monkeypatch, **kwargs):
    """The Fig. 5 point (default graph workload, 20 % local memory,
    ``max_iterations=2``) with every ``run_plan`` the controller enters
    counted."""
    workload = make_graph_workload()
    local = max(4096, int(workload.footprint_bytes() * 0.2))
    runs = []

    def counting_run_plan(compiled, *args, **kw):
        runs.append(compiled)
        return run_plan(compiled, *args, **kw)

    monkeypatch.setattr(controller_mod, "run_plan", counting_run_plan)
    controller = MiraController(
        workload.build_module, CostModel(), local, data_init=workload.data_init,
        entry=workload.entry, max_iterations=2, **kwargs,
    )
    return workload, local, controller, runs


def test_repeated_plan_is_recorded_not_run(monkeypatch):
    workload, local, controller, runs = _fig5_controller(monkeypatch)
    program = controller.optimize()
    assert len(runs) == 2  # the swap baseline and round 1; three on the parent
    history = program.history
    assert [h.iteration for h in history] == [0, 1, 2]
    assert [h.accepted for h in history] == [True, True, False]
    assert [h.fraction for h in history] == [0.0, 0.1, 0.2]
    assert history[1].elapsed_ns == history[2].elapsed_ns == 5559897.8203125
    assert history[2].plan.notes["fraction"] == 0.2  # round 2 did plan
    # what the controller hands back is what it handed back before
    assert program.best_ns == 5559897.8203125
    assert program.plan is history[1].plan
    cost = CostModel()
    expected = compile_program(workload.build_module(), history[1].plan, cost)
    assert print_module(program.module) == print_module(expected)
    final = run_plan(program.module, cost, local, workload.data_init)
    assert final.elapsed_ns == 5559857.8203125
    workload.verify_results(final.results)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"faults": FaultPlan(seed=11, loss_prob=0.02, timeout_prob=0.02)},
        {"num_threads": 2},
    ],
    ids=["plain", "seeded_faults", "two_threads"],
)
def test_reused_round_has_the_time_a_run_would_measure(monkeypatch, kwargs):
    """The invariant the reuse rests on: actually compiling and running a
    reused round's plan gives exactly the time it was recorded with."""
    workload, _local, controller, runs = _fig5_controller(monkeypatch, **kwargs)
    history = controller.optimize().history
    ran = len(runs)
    assert ran < len(history)  # some round was reused, or this checks nothing
    source = workload.build_module()
    for record in history[1:]:
        compiled = compile_program(
            source, record.plan, controller.cost, instrument=True
        )
        result = controller._run(compiled)
        assert controller._measured_ns(result) == record.elapsed_ns
    assert len(runs) == ran + len(history) - 1


def test_plan_differing_in_one_section_size_still_runs(monkeypatch):
    workload, _local, controller, runs = _fig5_controller(monkeypatch)

    def plan_smaller_in_round_two(*args, fraction, **kw):
        plan = plan_sections(*args, fraction=fraction, **kw)
        if fraction == 0.2:
            sp = plan.sections[-1]
            plan.sections[-1] = sp.with_size(
                sp.config.size_bytes - sp.config.line_size
            )
        return plan

    monkeypatch.setattr(controller_mod, "plan_sections", plan_smaller_in_round_two)
    history = controller.optimize().history
    assert len(runs) == len(history) == 3
    sizes = [
        [sp.config.size_bytes for sp in h.plan.sections] for h in history[1:]
    ]
    assert sizes[0][:-1] == sizes[1][:-1] and sizes[0][-1] != sizes[1][-1]


def test_reused_round_has_a_ctrl_iter_and_no_segment(monkeypatch):
    tracer = Tracer()
    workload, local, controller, runs = _fig5_controller(monkeypatch, tracer=tracer)
    program = controller.optimize()
    run_plan(
        program.module, controller.cost, local, workload.data_init, tracer=tracer
    )
    events = [json.loads(line) for line in tracer.lines()]
    iters = [ev for ev in events if ev["k"] == "ctrl.iter"]
    assert [ev["it"] for ev in iters] == [0, 1, 2]
    assert [ev["accepted"] for ev in iters] == [True, True, False]
    assert iters[1]["measured"] == iters[2]["measured"]
    att = analyze_events(events)
    assert len(runs) == 2
    assert [seg.label for seg in att.segments] == ["iter0", "iter1", "final"]
    assert att.warnings == []
