#!/usr/bin/env python3
"""Scenario: columnar analytics over a table larger than local memory.

A mini DataFrame engine runs reductions (avg/min/max), a predicate
filter, a wide group-by, and a sort-order gather over taxi-trip-shaped
data (the paper's DataFrame evaluation, Fig. 16).  The script also shows
the batching optimization of Fig. 23: three adjacent reduction loops over
the same column are fused and their data batch-fetched.

Usage:  python examples/data_analytics.py [scale]

``scale`` (default 1) multiplies the table sizes, for a quick run.
"""

import sys

from repro import CostModel
from repro.bench.harness import mira_point, native_time_ns, system_point
from repro.core import MiraController
from repro.workloads import make_dataframe_workload
from repro.workloads.dataframe import make_dataframe_amm_workload


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    cost = CostModel()
    workload = make_dataframe_workload(num_rows=max(512, int(16384 * scale)))
    print(f"DataFrame: {workload.params['num_rows']} rows, "
          f"{workload.footprint_bytes() // 1024} KiB footprint\n")

    native = native_time_ns(workload, cost)
    print("local memory | fastswap |  aifm  |  mira")
    for ratio in (0.2, 0.4, 0.8):
        fast = system_point(workload, "fastswap", cost, ratio, native)
        aifm = system_point(workload, "aifm", cost, ratio, native)
        mira, _ = mira_point(workload, cost, ratio, native)
        aifm_s = "FAIL" if aifm.failed else f"{aifm.normalized_perf:.3f}"
        print(f"{ratio:>12.0%} | {fast.normalized_perf:>8.3f} | "
              f"{aifm_s:>6} | {mira.normalized_perf:>5.3f}")

    print("\nbatching (Fig. 23): avg/min/max as three adjacent loops")
    amm = make_dataframe_amm_workload(num_rows=max(512, int(12288 * scale)))
    native_amm = native_time_ns(amm, cost)
    local = amm.footprint_bytes() // 3
    controller = MiraController(
        amm.build_module, cost, local, data_init=amm.data_init
    )
    program = controller.optimize()
    from repro.core import run_plan

    fused = run_plan(program.module, cost, local, amm.data_init)
    amm.verify_results(fused.results)
    from repro.core import compile_program

    unfused_plan = program.plan.without_options("batching")
    unfused = run_plan(
        compile_program(amm.build_module(), unfused_plan, cost),
        cost, local, amm.data_init,
    )
    print(f"  with batching:    {native_amm / fused.elapsed_ns:.3f}x native")
    print(f"  without batching: {native_amm / unfused.elapsed_ns:.3f}x native")


if __name__ == "__main__":
    main()
