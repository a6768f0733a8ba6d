#!/usr/bin/env python3
"""Scenario: serving transformer inference from far memory.

The paper's GPT-2 story (section 6.1): model weights plus KV caches far
exceed local DRAM, but inference touches them layer by layer.  Mira's
analysis discovers the per-layer lifetime, prefetches the next layer
during the current layer's compute, and evicts dead layers promptly --
performance stays flat even with a few percent of the footprint local.

This script sweeps local-memory ratios and prints Fig. 17's series, then
shows the thread-scaling behaviour of Fig. 24.

Usage:  python examples/ml_inference.py [scale]

``scale`` (default 1) multiplies the number of layers, for a quick run.
"""

import sys

from repro import CostModel
from repro.bench.harness import mira_point, native_time_ns, system_point
from repro.workloads import make_gpt2_workload


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    cost = CostModel()
    workload = make_gpt2_workload(layers=max(2, int(48 * scale)))
    footprint_mb = workload.footprint_bytes() / 1e6
    print(f"transformer inference: {workload.params['layers']} layers, "
          f"{footprint_mb:.0f} MB weights+KV footprint\n")

    native = native_time_ns(workload, cost)
    print("local memory | fastswap |  mira")
    for ratio in (0.045, 0.1, 0.25, 0.5):
        fast = system_point(workload, "fastswap", cost, ratio, native)
        mira, program = mira_point(workload, cost, ratio, native)
        sections = ", ".join(
            f"{sp.config.name[4:]}={sp.config.size_bytes // 1024}K"
            for sp in program.plan.sections
        )
        print(f"{ratio:>12.1%} | {fast.normalized_perf:>8.3f} | "
              f"{mira.normalized_perf:>5.3f}   [{sections}]")

    print("\nmulti-threaded scaling at 60% local memory "
          "(compute-bound regime):")
    args = dict(layers=max(2, int(24 * scale)), passes=2, compute_per_byte_ns=1.0)
    native1 = native_time_ns(make_gpt2_workload(num_threads=1, **args), cost)
    print("threads | fastswap |  mira")
    for threads in (1, 2, 4):
        wl = make_gpt2_workload(num_threads=threads, **args)
        fast = system_point(wl, "fastswap", cost, 0.6, native1, num_threads=threads)
        mira, _ = mira_point(wl, cost, 0.6, native1, num_threads=threads)
        print(f"{threads:>7} | {fast.normalized_perf:>8.3f} | "
              f"{mira.normalized_perf:>5.3f}")


if __name__ == "__main__":
    main()
