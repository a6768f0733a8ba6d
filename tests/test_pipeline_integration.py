"""End-to-end pipeline integration tests: compile + run with every
optimization combination, checking correctness and expected interactions."""

import itertools

import pytest

from repro.baselines import NativeMemory
from repro.core import MiraPlan, compile_program, run_on_baseline, run_plan
from repro.core.pipeline import ALL_OPTIONS, footprint_bytes
from repro.core.section_planner import plan_sections
from repro.ir.verifier import verify
from repro.memsim.cost_model import CostModel
from repro.workloads import make_graph_workload

COST = CostModel()


@pytest.fixture(scope="module")
def setup():
    wl = make_graph_workload(num_edges=1500, num_nodes=400)
    local = wl.footprint_bytes() // 3
    src = wl.build_module()
    compiled = compile_program(src, MiraPlan.swap_only(), COST, instrument=True)
    swap = run_plan(compiled, COST, local, wl.data_init)
    plan = plan_sections(src, COST, local, swap.profiler, fraction=0.1)
    return wl, local, src, plan, swap


#: all subsets of the option set that include conversion (the others
#: require it); a representative, not exhaustive, sample
OPTION_SETS = [
    frozenset({"convert"}),
    frozenset({"convert", "prefetch"}),
    frozenset({"convert", "evict"}),
    frozenset({"convert", "prefetch", "evict"}),
    frozenset({"convert", "prefetch", "native"}),
    frozenset({"convert", "batching", "prefetch"}),
    frozenset({"convert", "readwrite"}),
    ALL_OPTIONS,
]


@pytest.mark.parametrize("options", OPTION_SETS, ids=lambda s: "+".join(sorted(s)))
def test_every_option_combination_is_correct(setup, options):
    wl, local, src, plan, _ = setup
    variant = plan.without_options(*(ALL_OPTIONS - options))
    compiled = compile_program(src, variant, COST)
    verify(compiled)
    result = run_plan(compiled, COST, local, wl.data_init)
    wl.verify_results(result.results)


def test_full_stack_never_slower_than_conversion_alone(setup):
    wl, local, src, plan, _ = setup
    bare = compile_program(
        src, plan.without_options(*(ALL_OPTIONS - {"convert"})), COST
    )
    full = compile_program(src, plan, COST)
    bare_ns = run_plan(bare, COST, local, wl.data_init).elapsed_ns
    full_ns = run_plan(full, COST, local, wl.data_init).elapsed_ns
    assert full_ns < bare_ns


def test_compiled_module_is_independent_of_source(setup):
    wl, local, src, plan, _ = setup
    before = sum(1 for _ in src.walk())
    compile_program(src, plan, COST)
    after = sum(1 for _ in src.walk())
    assert before == after  # compilation clones; the source is untouched


def test_plan_embedded_in_module_attrs(setup):
    wl, local, src, plan, _ = setup
    compiled = compile_program(src, plan, COST)
    assert compiled.attrs["plan"] is plan


def test_footprint_bytes_counts_allocs(setup):
    wl, *_ = setup
    assert footprint_bytes(wl.build_module()) == wl.footprint_bytes()


def test_run_plan_opens_planned_sections(setup):
    wl, local, src, plan, _ = setup
    compiled = compile_program(src, plan, COST)
    result = run_plan(compiled, COST, local, wl.data_init)
    stats = result.memsys.collect_section_stats()
    for sp in plan.sections:
        assert any(name.startswith(sp.config.name) for name in stats)
    # planned sections actually served traffic
    assert sum(
        s["accesses"] for n, s in stats.items() if n != "swap"
    ) > 0


def test_same_plan_same_virtual_time(setup):
    """Determinism: identical compilation and data give identical time."""
    wl, local, src, plan, _ = setup
    a = run_plan(compile_program(src, plan, COST), COST, local, wl.data_init)
    b = run_plan(compile_program(src, plan, COST), COST, local, wl.data_init)
    assert a.elapsed_ns == b.elapsed_ns
    assert a.results == b.results
