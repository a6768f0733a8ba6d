"""Direct drives of single layers, and the paired cost of observability.

Each drive builds fresh objects, calls one layer's public functions in a
tight loop for a fixed host-time budget, and reports calibrated host
nanoseconds per operation (or operations per calibrated second).  They
are workload-independent: every workload's traced run measures them
again, which gives one sample per workload.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.baselines import AIFM, FastSwap, NativeMemory
from repro.core import MiraPlan, compile_program, plan_sections, run_on_baseline, run_plan
from repro.core.pipeline import footprint_bytes
from repro.memsim.address import PAGE_SIZE
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.network import Network
from repro.obs import TelemetryCollector, Tracer
from repro.prefetch import make_policy
from repro.workloads import make_workload
from repro.workloads.trace import make_system, replay_ops, system_counters, zipf_ops

from .fold import profiled, total_calls
from .timing import calibrated
from .workloads import memory_events

BATCH = 2048
LINE = 256
LOCAL = 1 << 20
OBJECT = 4 << 20


class DriveError(Exception):
    """A drive's stream did not do what its name says (e.g. the all-miss
    stream hit)."""


def _per_op(timer, name: str, batch, ops: int, budget_s: float) -> float:
    """Calibrated seconds per operation: ``batch()`` performs ``ops``
    operations and is repeated until ``budget_s`` has passed."""

    def loop():
        done = 0
        deadline = time.perf_counter() + budget_s
        while True:
            batch()
            done += 1
            if time.perf_counter() >= deadline:
                return done

    done, segment = timer.measure(name, loop)
    return segment["s"] / (done * ops)


def _stream(access, obj_id: int, offsets: list[int]):
    """A batch function that walks ``offsets`` cyclically, BATCH reads at
    a time, keeping its position between batches."""
    pos = [0]
    n = len(offsets)

    def batch():
        i = pos[0]
        for _ in range(BATCH):
            access(obj_id, offsets[i], 8, False)
            i += 1
            if i == n:
                i = 0
        pos[0] = i

    return batch


def _hit_and_miss(
    timer, name: str, system, unit: int, budget_s: float
) -> tuple[float, float]:
    """Calibrated ns per access of an all-hit and an all-miss read stream
    through ``system.access`` on one 4 MiB object: 64 resident units
    cycled, then a cyclic sweep of the rest, four times local memory
    (every access evicts)."""
    obj = system.allocate(OBJECT, elem_size=8, name="drive")
    if hasattr(system, "assign"):
        system.assign(obj.obj_id, "trace")

    def counters():
        rows = system_counters(system).values()
        return sum(r["hits"] for r in rows), sum(r["misses"] for r in rows)

    hot = _stream(system.access, obj.obj_id, [k * unit for k in range(64)])
    hot()  # warm: the 64 units become resident
    h0, m0 = counters()
    hit_s = _per_op(timer, f"{name}.hit", hot, BATCH, budget_s)
    h1, m1 = counters()
    if m1 != m0:
        raise DriveError(f"{name}: all-hit stream missed {m1 - m0} times")
    # starts past the resident units, so the first pass misses too
    sweep = _stream(
        system.access, obj.obj_id, list(range(64 * unit, OBJECT, unit))
    )
    miss_s = _per_op(timer, f"{name}.miss", sweep, BATCH, budget_s)
    h2, _ = counters()
    if h2 != h1:
        raise DriveError(f"{name}: all-miss stream hit {h2 - h1} times")
    return hit_s * 1e9, miss_s * 1e9


def _clock_and_network(timer, cost, budget_s: float) -> dict:
    clock = VirtualClock()

    def clock_batch():
        for _ in range(BATCH):
            clock.advance(100.0, "dram")
            clock.charge(1.0)
        clock.flush()

    network = Network(cost, VirtualClock())

    def network_batch():
        for _ in range(BATCH):
            network.read(PAGE_SIZE)

    return {
        "memsim.clock.ns_per_advance":
            _per_op(timer, "memsim.clock", clock_batch, BATCH, budget_s) * 1e9,
        "memsim.network.ns_per_read":
            _per_op(timer, "memsim.network", network_batch, BATCH, budget_s) * 1e9,
    }


def _data_plane(timer, cost, budget_s: float) -> dict:
    out = {}
    for geometry in ("direct", "set", "full"):
        name = f"cache.section.{geometry}"
        out[f"{name}.hit_ns"], out[f"{name}.miss_ns"] = _hit_and_miss(
            timer, name, make_system(f"mira-{geometry}", LOCAL, cost=cost),
            LINE, budget_s,
        )
    out["cache.swap.hit_ns"], out["cache.swap.fault_ns"] = _hit_and_miss(
        timer, "cache.swap", FastSwap(cost, LOCAL), PAGE_SIZE, budget_s
    )

    aifm = AIFM(cost, LOCAL)
    obj = aifm.allocate(
        64 * LINE, elem_size=8, name="drive", attrs={"aifm_obj_bytes": LINE}
    )
    deref = _stream(aifm.access, obj.obj_id, [k * LINE for k in range(64)])
    deref()
    out["baselines.aifm.deref_ns"] = (
        _per_op(timer, "baselines.aifm", deref, BATCH, budget_s) * 1e9
    )
    return out


def _prefetch_policies(timer, budget_s: float) -> dict:
    # a stride-7 page stream: a trend for leap, repeating transitions
    # for markov and learned
    pages = [(i * 7) % 1024 for i in range(BATCH)]
    out = {}
    for name in ("leap", "markov", "learned"):
        policy = make_policy(name)

        def batch(policy=policy):
            for page in pages:
                policy.record(page)
                policy.plan(page)

        out[f"prefetch.{name}.plan_ns"] = (
            _per_op(timer, f"prefetch.{name}", batch, BATCH, budget_s) * 1e9
        )
    return out


def _ir_ops(breakdown: dict, cost: CostModel) -> int:
    """Executed IR ops: every op charges ``cpu_op_ns`` of compute and
    every load/store one DRAM access."""
    return round(breakdown.get("compute", 0.0) / cost.cpu_op_ns) + memory_events(
        breakdown, cost
    )


def _ir_stack(timer, cost, budget_s: float) -> dict:
    """Engines, compiler and IR on the Fig. 5 graph program."""
    workload = make_workload("graph_traversal")
    out = {}
    out["ir.build_s"] = _per_op(timer, "ir.build", workload.build_module, 1, budget_s)
    module = workload.build_module()
    out["ir.clone_s"] = _per_op(timer, "ir.clone", module.clone, 1, budget_s)
    footprint = footprint_bytes(module)

    def native_run():
        return run_on_baseline(
            module,
            NativeMemory(cost, 2 * footprint + (1 << 20)),
            workload.data_init,
            entry=workload.entry,
        )

    # the engine is chosen only through the environment (the runner has
    # stripped REPRO_* from ours), never by naming today's default: a
    # later default-engine switch shows as `default` moving onto another row
    for label in ("default", "codegen", "reference"):
        if label != "default":
            os.environ["REPRO_ENGINE"] = label
        try:
            ops = _ir_ops(native_run().breakdown, cost)
            per_run = _per_op(timer, f"runtime.{label}", native_run, 1, budget_s)
        finally:
            os.environ.pop("REPRO_ENGINE", None)
        out[f"runtime.{label}.ir_ops_per_s"] = ops / per_run

    # what the controller does in its first round: an instrumented
    # swap-only run yields the profile the planner reads
    local = max(4096, int(footprint * 0.2))
    swap_only = compile_program(module, MiraPlan.swap_only(), cost, instrument=True)
    profiler = run_plan(
        swap_only, cost, local, data_init=workload.data_init, entry=workload.entry
    ).profiler
    out["core.plan_s"] = _per_op(
        timer, "core.plan",
        lambda: plan_sections(module, cost, local, profiler, fraction=0.1),
        1, budget_s,
    )
    plan = plan_sections(module, cost, local, profiler, fraction=0.1)
    out["core.compile_s"] = _per_op(
        timer, "core.compile", lambda: compile_program(module, plan, cost), 1, budget_s
    )
    return out


def _native_replay(timer, cost, budget_s: float) -> dict:
    """Cost of the replay loop itself: ``native`` adds no data plane."""
    ops = list(zipf_ops(num_pages=256, num_events=20_000, seed=1))
    footprint = 256 * PAGE_SIZE

    def batch():
        replay_ops(make_system("native", 2 * footprint, cost=cost), ops, [(0, footprint)])

    return {
        "workloads.trace.native_replay_ns":
            _per_op(timer, "workloads.trace.native_replay", batch, len(ops), budget_s)
            * 1e9
    }


def direct_drives(timer, budget_s: float) -> dict:
    """Every direct-drive metric; ``budget_s`` is the host time each
    timed loop runs for."""
    cost = CostModel.rdma()
    timer.sample()
    out = _clock_and_network(timer, cost, budget_s)
    out.update(_data_plane(timer, cost, budget_s))
    out.update(_prefetch_policies(timer, budget_s))
    out.update(_ir_stack(timer, cost, budget_s))
    out.update(_native_replay(timer, cost, budget_s))
    return out


def obs_cost(timer, rounds: int) -> dict:
    """What tracing and telemetry cost when on: ``fastswap`` @ 0.2 on the
    Fig. 5 graph, plain / traced / collected runs interleaved, median of
    the per-round ratios (bursts of host load land on both sides of a
    pair).  The added-call count is exact and immune to load."""
    cost = CostModel.rdma()
    workload = make_workload("graph_traversal")
    module = workload.build_module()
    local = max(4096, int(footprint_bytes(module) * 0.2))

    def run(tracer=None, telemetry=None):
        t0 = time.perf_counter()
        run_on_baseline(
            module, FastSwap(cost, local), workload.data_init,
            entry=workload.entry, tracer=tracer, telemetry=telemetry,
        )
        return time.perf_counter() - t0

    def collector():
        return TelemetryCollector(window_ns=1_000_000.0)

    before = timer.sample()
    plain_s, tracer_ratios, telemetry_ratios = [], [], []
    tracer = None
    for i in range(rounds):
        tracer = Tracer()
        if i % 2:
            collected, traced, plain = run(telemetry=collector()), run(tracer), run()
        else:
            plain, traced, collected = run(), run(tracer), run(telemetry=collector())
        plain_s.append(plain)
        tracer_ratios.append(traced / plain)
        telemetry_ratios.append(collected / plain)
    calib = (before + timer.sample()) / 2.0
    _, plain_profile = profiled(run)
    _, collected_profile = profiled(lambda: run(telemetry=collector()))
    tracer_ratio = statistics.median(tracer_ratios)
    events = len(tracer)
    plain = calibrated(statistics.median(plain_s), calib)
    return {
        "obs.tracer_ratio": tracer_ratio,
        "obs.telemetry_ratio": statistics.median(telemetry_ratios),
        "obs.tracer_ns_per_event": (tracer_ratio - 1.0) * plain * 1e9 / events,
        "obs.trace_events": events,
        "obs.telemetry_added_calls":
            total_calls(collected_profile) - total_calls(plain_profile),
    }
