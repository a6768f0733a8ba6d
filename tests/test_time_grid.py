"""Virtual time is exact (DESIGN.md section 4, "Time is exact").

Every duration that reaches a clock is a multiple of 2**-10 ns, so sums
are exact in any grouping -- which is what lets every bulk path charge
``n * c`` for ``n`` hits of ``c``.  That is checked here, not argued:
with every ``VirtualClock`` entry asserting its argument is on the grid,
each system ``make_system`` builds replays one trace under each kind of
cost input (healthy, a seeded fault plan, link contention, the CXL
profile, a model whose constants are nowhere near the grid), and two IR
workloads -- graph traversal, and GPT-2 on four threads -- run through
both engines, which must also agree bit for bit on the odd model (no cost
model falls back to a per-element path any more).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import BASELINE_SYSTEMS, ModuleMemo
from repro.core import MiraController, run_on_baseline, run_plan
from repro.faults import FaultPlan
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel, grid
from repro.obs import Tracer
from repro.workloads import make_workload
from repro.workloads.trace import ScenarioSpec, replay_events, run_scenario
from repro.workloads.trace.replay import _MIRA_STRUCTURES, make_system, replay_ops

#: no constant of this model is a multiple of 2**-10 before it is snapped
ODD = CostModel(
    dram_access_ns=33.3,
    cpu_op_ns=1.5001,
    dram_stream_bpns=7.0,
    hit_overhead_direct_ns=15.1,
    hit_overhead_set_assoc_ns=35.7,
    hit_overhead_full_assoc_ns=70.3,
    insert_overhead_ns=40.9,
    net_rtt_ns=2999.9,
    net_bandwidth_bpns=6.1,
    two_sided_copy_bpns=11.3,
    page_fault_ns=3500.7,
    far_cpu_slowdown=3.3,
)

#: name -> (cost model, fault plan, threads sharing the link)
VARIANTS = {
    "healthy": (CostModel(), None, 1),
    "faults": (CostModel(), FaultPlan.generate(3, "heavy", horizon_ns=2e7), 1),
    "contention": (CostModel(), None, 3),
    "cxl": (CostModel.cxl(), None, 1),
    "odd": (ODD, None, 1),
}
SYSTEMS = (
    "native", "fastswap", "leap", "aifm", "hybrid",
    "mira-direct", "mira-set", "mira-full",
)
#: a scan, then skewed reads and writes: hits to fold, faults, dirty evictions
TRACE = ScenarioSpec(
    "grid", "mixed",
    {"phases": [
        {"kind": "sequential", "num_bytes": 1 << 18, "num_events": 2_000,
         "read_ratio": 0.8},
        {"kind": "zipf", "num_pages": 64, "num_events": 4_000,
         "read_ratio": 0.5},
    ]}, seed=9,
)


def _on_grid(ns) -> bool:
    return float(ns * 1024).is_integer()


@pytest.fixture
def charges(monkeypatch):
    """Make every clock refuse an off-grid argument; counts the calls."""
    seen = {"advance": 0, "charge": 0, "wait_until": 0}

    def checked(name):
        method = getattr(VirtualClock, name)

        def entry(self, ns, *args, **kwargs):
            assert _on_grid(ns), f"VirtualClock.{name}({ns!r}) is off the time grid"
            seen[name] += 1
            return method(self, ns, *args, **kwargs)

        return entry

    for name in seen:
        monkeypatch.setattr(VirtualClock, name, checked(name))
    return seen


def test_grid_snaps_to_the_nearest_step_and_is_idempotent():
    assert grid(4096 / 6.25) == 655.3603515625  # 655.36: the non-dyadic quotient
    assert grid(100) == 100.0 and type(grid(100)) is float
    for ns in (0.0, 33.3, 655.36, 1e9 + 1 / 3):
        assert _on_grid(grid(ns)) and grid(grid(ns)) == grid(ns)
        assert abs(grid(ns) - ns) <= 2**-11


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("system", SYSTEMS)
def test_every_charge_of_a_trace_replay_is_on_the_grid(system, variant, charges):
    cost, plan, contention = VARIANTS[variant]
    memsys = make_system(system, TRACE.footprint_bytes // 4, cost=cost)
    if plan is not None:
        memsys.enable_faults(plan)
    memsys.network.contention = contention
    assign = "trace" if system in _MIRA_STRUCTURES else None
    count = replay_ops(
        memsys, TRACE.ops(), [(0, TRACE.footprint_bytes)], assign_section=assign
    )
    assert count == 6_000 and charges["advance"] > 0
    clock = memsys.clock
    breakdown = clock.breakdown()
    assert _on_grid(clock.now) and all(map(_on_grid, breakdown.values()))
    # one thread: the categories add up to the clock, to the last bit
    assert sum(breakdown.values()) == clock.now
    if system != "native":
        assert memsys.network.stats.messages > 0
        assert _on_grid(memsys.network._link_free_at)
        if plan is not None:  # timeouts, backoff and scaled windows all ran
            assert memsys.network.faults.stats.retries > 0
            assert breakdown["net_backoff"] > 0.0


@pytest.mark.parametrize("cost", [CostModel(), ODD], ids=["default", "odd"])
@pytest.mark.parametrize("system", SYSTEMS[1:])
def test_traced_run_lands_on_the_folded_runs_clock_and_replays(system, cost):
    """A tracer makes every fold decline, so the traced run is the
    per-element run: it must end on the folded run's clock to the bit,
    and replay from its own log exactly -- on either cost model."""
    folded = run_scenario(TRACE, system, 0.25, cost=cost)
    tracer = Tracer(access_log=True)
    traced = run_scenario(TRACE, system, 0.25, cost=cost, tracer=tracer)
    assert traced.elapsed_ns == folded.elapsed_ns
    assert traced.breakdown == folded.breakdown
    assert traced.sections == folded.sections
    events = [{"k": k, "t": t, **f} for k, t, f in tracer.events]
    fresh = make_system(system, traced.local_mem_bytes, cost=cost)
    replayed = replay_events(fresh, events, elapsed_ns=traced.elapsed_ns)
    assert replayed.elapsed_ns == traced.elapsed_ns
    assert replayed.counters == traced.sections


#: small instances: graph traversal (indirect loads, prefetch chains) and
#: GPT-2 on four threads (forked clocks, a shared link, fractional
#: ``compute.work`` units)
IR_WORKLOADS = {
    "graph_traversal": (
        {"num_edges": 1500, "num_nodes": 500}, 1, ("fastswap", "aifm"),
    ),
    "gpt2": (
        {"layers": 3, "d_model": 64, "seq_len": 32, "batch": 2, "passes": 1,
         "warmup_passes": 1, "num_threads": 4},
        4,
        ("fastswap", "leap"),  # (AIFM's metadata does not fit at this size)
    ),
}


def _ir_fingerprint(name: str, cost: CostModel) -> dict:
    params, threads, baselines = IR_WORKLOADS[name]
    workload = make_workload(name, **params)
    memo = ModuleMemo(workload)
    local = max(4096, int(memo.footprint_bytes * 0.3))
    runs = {}
    for system in baselines:
        kwargs = {} if system == "aifm" else {"num_threads": threads}
        runs[system] = run_on_baseline(
            memo.module,
            BASELINE_SYSTEMS[system](cost, local, **kwargs),
            workload.data_init,
            entry=workload.entry,
        )
    program = MiraController(
        memo.fresh, cost, local, data_init=workload.data_init,
        entry=workload.entry, max_iterations=1, num_threads=threads,
    ).optimize()
    runs["mira"] = run_plan(
        program.module, cost, local, data_init=workload.data_init,
        entry=workload.entry, num_threads=threads,
    )
    out = {}
    for system, result in runs.items():
        workload.verify_results(result.results)
        assert _on_grid(result.elapsed_ns)
        assert all(map(_on_grid, result.breakdown.values()))
        out[system] = (result.elapsed_ns, result.breakdown, list(result.results))
    return out


@pytest.mark.parametrize("cost", [CostModel(), ODD], ids=["default", "odd"])
@pytest.mark.parametrize("name", sorted(IR_WORKLOADS))
def test_ir_workloads_stay_on_the_grid_through_both_engines(
    name, cost, charges, monkeypatch
):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    reference = _ir_fingerprint(name, cost)
    assert charges["advance"] > 10_000  # the reference engine charges op by op
    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    assert _ir_fingerprint(name, cost) == reference
