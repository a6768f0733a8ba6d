"""Prefetch-policy benchmark: policy x workload sweep scored by the
critical-path profiler.

Each cell runs one workload on Leap (the cache manager with no sections,
with Leap's fault path) with one prefetch policy attached, traces the run,
and attributes virtual time with :func:`repro.obs.analyze.analyze_events`.
The score is the *prefetch-relevant stall*: the profiler buckets that a
better prefetcher can shrink (``prefetch_wait`` + ``swap_fault`` +
``miss_service`` + ``net_wait``).  Everything is virtual-time
deterministic, so the emitted numbers are bit-stable across hosts and
engines and regression-gated as the ``prefetch`` suite of
:mod:`repro.bench.suites`.
"""

from __future__ import annotations

import json

from repro.baselines.leap import Leap
from repro.bench.harness import ModuleMemo
from repro.core import run_on_baseline
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.obs.analyze import analyze_events
from repro.workloads import make_workload

#: policies swept ("none" = demand paging on the same chassis)
POLICIES = ("none", "leap", "markov", "programmed", "learned")

#: the five paper workloads, sized so sequential/interleaved page streams
#: dominate (dataframe is the *oblivious* headliner: its interleaved
#: column scans defeat a single global stride but are fully affine)
WORKLOADS: dict[str, dict] = {
    "array_sum": {"num_elems": 8192},
    "dataframe": {"num_rows": 16384, "num_locations": 2048},
    "graph_traversal": {"num_edges": 1500, "num_nodes": 500},
    "mcf": {"num_nodes": 2048, "num_arcs": 2048, "iterations": 1, "chases": 32},
    "gpt2": {
        "layers": 3,
        "d_model": 64,
        "seq_len": 32,
        "batch": 2,
        "passes": 1,
        "warmup_passes": 1,
    },
}

#: local memory as a fraction of the workload footprint (equal cache
#: size across every policy -- the acceptance comparison requires it)
RATIO = 0.5

#: profiler buckets a prefetcher can shrink
STALL_BUCKETS = ("prefetch_wait", "swap_fault", "miss_service", "net_wait")


def measure_cell(workload: str, policy: str, cost: CostModel | None = None) -> dict:
    """One traced (workload, policy) run on the Leap chassis."""
    cost = cost or CostModel()
    wl = make_workload(workload, **WORKLOADS[workload])
    memo = ModuleMemo(wl)
    local = max(4096, int(memo.footprint_bytes * RATIO))
    tracer = Tracer()
    system = Leap(cost, local, policy=policy)
    result = run_on_baseline(
        memo.module, system, wl.data_init, entry=wl.entry, tracer=tracer
    )
    wl.verify_results(result.results)
    events = [json.loads(line) for line in tracer.lines()]
    att = analyze_events(events)
    buckets = {b: att.by_bucket.get(b, 0.0) for b in STALL_BUCKETS}
    stats = system.swap.stats
    cell = {
        "workload": workload,
        "policy": policy,
        "system": "leap",
        "ratio": RATIO,
        "local_mem_bytes": local,
        "elapsed_ns": result.elapsed_ns,
        "stall_ns": sum(buckets.values()),
        "buckets": buckets,
        "wasted_prefetch": att.wasted_prefetch.get("swap", {}),
        "swap": {
            "misses": stats.misses,
            "prefetch_hits": stats.prefetch_hits,
            "prefetches_issued": stats.prefetches_issued,
            "prefetch_wasted": stats.prefetch_wasted,
            "prefetch_waste_ratio": stats.prefetch_waste_ratio,
        },
        "trace_digest": tracer.digest(),
        "trace_events": len(tracer),
    }
    if system.policy is not None:
        cell["policy_stats"] = system.policy.snapshot()
    return cell


def config() -> dict:
    return {
        "policies": list(POLICIES),
        "workloads": WORKLOADS,
        "ratio": RATIO,
        "stall_buckets": list(STALL_BUCKETS),
    }


def summary(records: list[dict]) -> dict:
    """Per-workload winners (lowest stall) and the programmed-vs-Leap
    stall comparison the acceptance criterion tabulates."""
    winners: dict[str, str] = {}
    comparison: dict[str, dict] = {}
    for w in dict.fromkeys(r["workload"] for r in records):
        by_pol = {r["policy"]: r for r in records if r["workload"] == w}
        winners[w] = min(
            by_pol.values(),
            key=lambda r: (r["stall_ns"], r["elapsed_ns"], r["policy"]),
        )["policy"]
        if "leap" in by_pol and "programmed" in by_pol:
            leap_ns = by_pol["leap"]["stall_ns"]
            prog_ns = by_pol["programmed"]["stall_ns"]
            comparison[w] = {
                "leap_stall_ns": leap_ns,
                "programmed_stall_ns": prog_ns,
                "reduction": 1.0 - prog_ns / leap_ns if leap_ns else 0.0,
            }
    return {"winners": winners, "programmed_vs_leap": comparison}
