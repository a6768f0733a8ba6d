"""The six workloads: set-up, one timed repeat, and its output checks.

Set-up materializes every input from the seed (trace addresses as
``array('q')`` plus ``bytes`` write flags, replayed through ``zip``; IR
modules built once) and runs the native reference.  A repeat builds a
fresh memory system, so caches start empty every time -- stated, not
warmed.  Event counts are fixed per workload; only the number of repeats
depends on the time budget.

Sizes are chosen so one repeat costs 0.55-0.85 s on the reference host.
The host's speed moves within a second, so short repeats bracketed by
calibration samples track it better than long ones, and a 15 s run
holds 14-25 of them for the median.  ``scale`` divides every event count
(``--quick`` uses 10).
"""

from __future__ import annotations

import hashlib
import json
from array import array

from repro.baselines import NativeMemory
from repro.core import MiraController, run_on_baseline, run_plan
from repro.core.pipeline import footprint_bytes
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel
from repro.workloads import make_workload
from repro.workloads.trace import (
    ScenarioSpec,
    make_system,
    replay_ops,
    system_counters,
)

#: SectionStats counters summed over sections into ``cache.<name>``
CACHE_COUNTERS = (
    "accesses",
    "hits",
    "misses",
    "evictions",
    "writebacks",
    "prefetches_issued",
    "prefetch_hits",
    "prefetch_wasted",
)


def effective_ns(result) -> float:
    """The ``measured`` profiling region when the workload marks one
    (steady state), else the whole run: the paper figures' time."""
    return result.profiler.regions.get("measured", result.elapsed_ns)


def memory_events(breakdown: dict, cost: CostModel) -> int:
    """Program-issued element accesses of an IR run: each charges one
    ``dram_access_ns`` under the ``dram`` category on every system."""
    return round(breakdown.get("dram", 0.0) / cost.dram_access_ns)


def sim_stats(systems: list, virtual_ns: float) -> dict:
    """Exact simulated components of one repeat, summed over its memory
    systems (three on ``ir_native``, one elsewhere)."""
    out: dict = {f"cache.{c}": 0 for c in CACHE_COUNTERS}
    out.update(
        {
            "cache.path_switches": 0,
            "memsim.net_messages": 0,
            "memsim.net_bytes_read": 0,
            "memsim.net_bytes_written": 0,
        }
    )
    virt: dict[str, float] = {}
    for system in systems:
        for stats in system_counters(system).values():
            for c in CACHE_COUNTERS:
                out[f"cache.{c}"] += stats.get(c, 0)
        out["cache.path_switches"] += len(getattr(system, "switch_log", ()))
        net = system.network.stats
        out["memsim.net_messages"] += net.messages
        out["memsim.net_bytes_read"] += net.bytes_read
        out["memsim.net_bytes_written"] += net.bytes_written
        for category, ns in system.clock.breakdown().items():
            virt[category] = virt.get(category, 0.0) + ns
    accesses = out["cache.accesses"]
    out["cache.miss_rate"] = out["cache.misses"] / accesses if accesses else 0.0
    for category in sorted(virt):
        out[f"memsim.virt.{category}_ns"] = virt[category]
    out["sim.virtual_ns"] = virtual_ns
    return out


def sim_digest(stats: dict) -> str:
    """SHA-256 over the canonical JSON of :func:`sim_stats`' output."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def section_problems(system, replayed: int, events: int) -> list[str]:
    """Counter-conservation checks on one trace repeat."""
    problems = []
    if replayed != events:
        problems.append(f"replayed {replayed} of {events} events")
    total = 0
    for name, stats in system_counters(system).items():
        total += stats.get("accesses", 0)
        if stats.get("hits", 0) + stats.get("misses", 0) != stats.get("accesses", 0):
            problems.append(f"section {name}: hits + misses != accesses")
    if total != events:
        problems.append(f"sections saw {total} accesses for {events} events")
    return problems


class TraceCell:
    """One generated address stream replayed on one memory system."""

    kind = "trace"

    def __init__(self, timer, spec: ScenarioSpec, system: str, ratio: float):
        self.cost = CostModel.rdma()
        self.system = system
        self.assign = "trace" if system.startswith("mira-") else None
        with timer.span("workloads.trace.gen_ops"):
            self.addrs = array("q")
            flags = bytearray()
            for addr, is_write in spec.ops():
                self.addrs.append(addr)
                flags.append(is_write)
            self.writes = bytes(flags)
        self.events = len(self.addrs)
        self.attempts = self.events
        footprint = spec.footprint_bytes
        self.regions = [(0, footprint)]
        self.local = max(4 * PAGE_SIZE, int(footprint * ratio))
        with timer.span("workloads.native_ref"):
            native = make_system("native", 2 * footprint + (1 << 20))
            replay_ops(native, zip(self.addrs, self.writes), self.regions)
            self.native_ns = native.clock.now

    def repeat(self, timer) -> dict:
        def cell():
            with timer.span("workloads.trace.make_system"):
                system = make_system(self.system, self.local)
            with timer.span("workloads.trace.replay_ops"):
                replayed = replay_ops(
                    system,
                    zip(self.addrs, self.writes),
                    self.regions,
                    assign_section=self.assign,
                )
            return system, replayed

        (system, replayed), segment = timer.measure("workloads.trace.cell", cell)
        problems = section_problems(system, replayed, self.events)
        return {
            "segments": [segment],
            "virtual_ns": system.clock.now,
            "systems": [system],
            "events": self.events,
            "failed": self.events if problems else 0,
            "problems": problems,
        }


class GraphMira:
    """The Fig. 5 point: Mira's controller, then the plan it produced."""

    kind = "ir"
    attempts = 1
    LOCAL_RATIO = 0.2

    def __init__(self, timer, seed: int, scale: int):
        self.cost = CostModel.rdma()
        with timer.span("workloads.build"):
            self.workload = make_workload(
                "graph_traversal",
                num_edges=6_000 // scale,
                num_nodes=2_000 // scale,
                seed=7 + seed,
            )
            self.module = self.workload.build_module()
        footprint = footprint_bytes(self.module)
        self.local = max(4096, int(footprint * self.LOCAL_RATIO))
        with timer.span("workloads.native_ref"):
            wl = self.workload
            native = run_on_baseline(
                self.module,
                NativeMemory(self.cost, 2 * footprint + (1 << 20)),
                wl.data_init,
                entry=wl.entry,
            )
            wl.verify_results(native.results)
            self.native_ns = effective_ns(native)
            self.events = memory_events(native.breakdown, self.cost)

    def repeat(self, timer) -> dict:
        wl = self.workload
        controller = MiraController(
            # the pass pipeline rewrites modules in place
            self.module.clone,
            self.cost,
            self.local,
            data_init=wl.data_init,
            entry=wl.entry,
            max_iterations=2,
        )
        program, optimize = timer.measure("core.optimize", controller.optimize)
        final, final_run = timer.measure(
            "core.final_run",
            lambda: run_plan(
                program.module,
                self.cost,
                self.local,
                data_init=wl.data_init,
                entry=wl.entry,
            ),
        )
        problems = verify_problems(wl, final)
        return {
            "segments": [optimize, final_run],
            "virtual_ns": effective_ns(final),
            "systems": [final.memsys],
            "events": self.events,
            "failed": len(problems),
            "problems": problems,
        }


class NativeIR:
    """Three IR programs on all-local memory: engine and clock only."""

    kind = "ir"
    attempts = 3

    def __init__(self, timer, seed: int, scale: int):
        self.cost = CostModel.rdma()
        programs = (
            ("graph_traversal", {"num_edges": 36_000 // scale,
                                 "num_nodes": 12_000 // scale, "seed": 7 + seed}),
            ("mcf", {"num_nodes": 8_192 // scale, "num_arcs": 8_192 // scale,
                     "iterations": 4, "chases": max(1, 128 // scale),
                     "seed": 13 + seed}),
            ("dataframe", {"num_rows": 16_384 // scale, "seed": 11 + seed}),
        )
        self.programs = []
        with timer.span("workloads.build"):
            for name, params in programs:
                workload = make_workload(name, **params)
                module = workload.build_module()
                self.programs.append((workload, module, footprint_bytes(module)))
        self.native_ns = None  # the timed region is itself the native run
        self.events = None

    def repeat(self, timer) -> dict:
        segments, systems, problems = [], [], []
        virtual_ns = 0.0
        events = 0
        for wl, module, footprint in self.programs:
            result, segment = timer.measure(
                f"baselines.native.{wl.name}",
                lambda: run_on_baseline(
                    module,
                    NativeMemory(self.cost, 2 * footprint + (1 << 20)),
                    wl.data_init,
                    entry=wl.entry,
                ),
            )
            segments.append(segment)
            systems.append(result.memsys)
            virtual_ns += effective_ns(result)
            events += memory_events(result.breakdown, self.cost)
            problems += verify_problems(wl, result)
        return {
            "segments": segments,
            "virtual_ns": virtual_ns,
            "systems": systems,
            "events": events,
            "failed": len(problems),
            "problems": problems,
        }


def verify_problems(workload, result) -> list[str]:
    """``verify_results`` (an independent numpy reference) as a problem
    list instead of an exception."""
    try:
        workload.verify_results(result.results)
    except AssertionError as exc:
        return [f"{workload.name}: {exc}"]
    return []


def _zipf_sections(timer, seed: int, scale: int):
    spec = ScenarioSpec(
        "trace_zipf_sections", "zipf",
        {"num_pages": 2048, "num_events": 250_000 // scale, "alpha": 1.2},
        seed=seed + 1,
    )
    return TraceCell(timer, spec, "mira-set", 0.5)


def _scan_leap(timer, seed: int, scale: int):
    # 393 216 events = three full passes over the 8 MiB region
    spec = ScenarioSpec(
        "trace_scan_leap", "sequential",
        {"num_bytes": 8 << 20, "num_events": 393_216 // scale, "stride": 64,
         "read_ratio": 0.9},
        seed=seed + 3,
    )
    return TraceCell(timer, spec, "leap", 0.25)


def _rw_hybrid(timer, seed: int, scale: int):
    spec = ScenarioSpec(
        "trace_rw_hybrid", "mixed",
        {"phases": [
            {"kind": "sequential", "num_bytes": 8 << 20,
             "num_events": 125_000 // scale, "read_ratio": 1.0},
            {"kind": "zipf", "num_pages": 1536, "num_events": 125_000 // scale,
             "alpha": 0.8, "read_ratio": 0.3},
        ]},
        seed=seed + 8,
    )
    return TraceCell(timer, spec, "hybrid", 0.25)


def _chase_fastswap(timer, seed: int, scale: int):
    spec = ScenarioSpec(
        "trace_chase_fastswap", "pointer_chase",
        {"num_pages": 8192, "num_events": 250_000 // scale},
        seed=seed + 6,
    )
    return TraceCell(timer, spec, "fastswap", 0.25)


#: name -> set-up function ``(timer, seed, scale)``; the reasons for each
#: workload are in BENCHMARK.json and the README
WORKLOADS = {
    "ir_graph_mira": GraphMira,
    "ir_native": NativeIR,
    "trace_zipf_sections": _zipf_sections,
    "trace_scan_leap": _scan_leap,
    "trace_rw_hybrid": _rw_hybrid,
    "trace_chase_fastswap": _chase_fastswap,
}
