#!/usr/bin/env python3
"""Scenario: pointer-heavy graph computation (SPEC MCF's shape).

MCF is "the least friendly to program analysis" (paper section 6.1):
memory accesses depend on pointer values and control flow.  Mira still
wins at small local memory -- the arc scan's indirect node accesses get a
set-associative section with chained prefetching -- and, per Fig. 22, the
unprefetchable pointer-chase function can be offloaded to run *at* the
far-memory node, turning network round trips into local accesses.

Usage:  python examples/pointer_chasing.py [scale]

``scale`` (default 1) multiplies the graph size, for a quick run.
"""

import sys
from dataclasses import replace

from repro import CostModel
from repro.bench.harness import mira_point, native_time_ns, system_point
from repro.core import compile_program, run_plan
from repro.core.section_planner import plan_sections
from repro.core.plan import MiraPlan
from repro.workloads import make_mcf_workload


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    cost = CostModel()
    size = max(512, int(16384 * scale))
    workload = make_mcf_workload(num_nodes=size, num_arcs=size)
    print(f"MCF kernel: {workload.params['num_arcs']} arcs, "
          f"{workload.params['num_nodes']} nodes, "
          f"{workload.footprint_bytes() // 1024} KiB footprint\n")

    native = native_time_ns(workload, cost)
    print("local memory | fastswap |  aifm  |  mira")
    for ratio in (0.2, 0.5, 1.0):
        fast = system_point(workload, "fastswap", cost, ratio, native)
        aifm = system_point(workload, "aifm", cost, ratio, native)
        mira, _ = mira_point(workload, cost, ratio, native)
        aifm_s = "FAIL" if aifm.failed else f"{aifm.normalized_perf:.3f}"
        print(f"{ratio:>12.0%} | {fast.normalized_perf:>8.3f} | "
              f"{aifm_s:>6} | {mira.normalized_perf:>5.3f}")

    print("\noffloading the pointer chase (Fig. 22) at 20% local memory:")
    local = workload.footprint_bytes() // 5
    src = workload.build_module()
    swap = run_plan(
        compile_program(src, MiraPlan.swap_only(), cost, instrument=True),
        cost, local, workload.data_init,
    )
    plan = plan_sections(src, cost, local, swap.profiler)
    on_node = run_plan(
        compile_program(src, plan, cost), cost, local, workload.data_init
    )
    off_plan = replace(plan, offload_functions=["chase_update"])
    offloaded = run_plan(
        compile_program(src, off_plan, cost), cost, local, workload.data_init
    )
    workload.verify_results(offloaded.results)
    print(f"  chase runs locally:   {native / on_node.elapsed_ns:.3f}x native")
    print(f"  chase offloaded:      {native / offloaded.elapsed_ns:.3f}x native")


if __name__ == "__main__":
    main()
