"""Wall-clock smoke benchmark for the execution engine.

Measures, on the Fig. 5 graph workload:

* interpreter throughput (IR ops/second) under the reference and the
  source-codegen engine;
* the Fig. 5 single-point run (native + fastswap@0.2 + mira@0.2) under
  both engines, repeats interleaved across engines so host-load drift
  cancels out of the ratio;
* the full Fig. 5 sweep, serial vs ``workers=4``, with a determinism
  check (parallel results must equal serial results exactly).

Everything here is *wall-clock* (simulator speed); virtual-time results
are asserted identical across engines, never compared for speed.  The
numbers are written to ``BENCH_engine.json`` at the repo root so future
performance work has a trajectory to regress against.

Run with::

    PYTHONPATH=src:. python benchmarks/perf_smoke.py [--workers N] [--repeats N]

This file is deliberately not named ``test_*``: it is a benchmark script,
not part of the tier-1 suite.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import time

from repro.baselines import NativeMemory
from repro.bench.harness import (
    ModuleMemo,
    mira_point,
    native_time_ns,
    sweep_systems,
    system_point,
)
from repro.bench.harness import BASELINE_SYSTEMS
from repro.core import run_on_baseline
from repro.memsim.cost_model import CostModel
from repro.obs import TelemetryCollector, Tracer
from repro.workloads import make_graph_workload

COST = CostModel()
FIG05_RATIOS = [0.2, 0.35, 0.5, 0.75, 1.0]
SINGLE_RATIO = 0.2
OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: swept in this order; the ratios below divide reference by codegen
ENGINES = ("reference", "codegen")

#: the pre-engine seed (commit ca41480) measured on the same container
#: (1 CPU, best of 3) -- static context for the speedup-vs-seed numbers
SEED_BASELINE_WALL_S = {
    "commit": "ca41480",
    "native": 0.152,
    "fastswap@0.2": 0.302,
    "leap@0.2": 0.435,
    "aifm@0.2": 0.347,
    "mira@0.2": 3.250,
}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _ir_op_estimate(breakdown: dict[str, float]) -> int:
    """Executed-op proxy derived from the virtual-time breakdown: every op
    charges ``cpu_op_ns`` of compute and every load/store adds one DRAM
    event, so compute/cpu_op_ns + dram/dram_access_ns counts op executions
    without instrumenting the hot loop."""
    ops = breakdown.get("compute", 0.0) / COST.cpu_op_ns
    ops += breakdown.get("dram", 0.0) / COST.dram_access_ns
    return round(ops)


def measure_throughput(repeats: int) -> dict:
    wl = make_graph_workload()
    out: dict = {}
    for engine in ENGINES:
        os.environ["REPRO_ENGINE"] = engine
        memo = ModuleMemo(wl)
        memsys = []

        def run():
            memsys.append(
                run_on_baseline(
                    memo.module,
                    NativeMemory(COST, 2 * memo.footprint_bytes + (1 << 20)),
                    wl.data_init,
                    entry=wl.entry,
                )
            )

        wall = _best_of(run, repeats)
        ops = _ir_op_estimate(memsys[-1].breakdown)
        out[engine] = {
            "wall_s": round(wall, 4),
            "ir_ops": ops,
            "ops_per_sec": round(ops / wall),
        }
    out["codegen_speedup"] = round(
        out["reference"]["wall_s"] / out["codegen"]["wall_s"], 2
    )
    return out


def measure_single_point(repeats: int) -> dict:
    """Fig. 5 single-point wall time under both engines.

    Repeats are interleaved round-robin across engines (engine A rep 1,
    engine B rep 1, ... engine A rep 2, ...) so slow drift in host load
    -- shared CI boxes speed up and slow down over minutes -- cancels
    out of the engine-vs-engine ratio instead of biasing whichever
    engine happened to run in the quiet window.
    """
    wl = make_graph_workload()
    out: dict = {}
    elapsed: dict[str, dict[str, float]] = {}
    memos: dict[str, ModuleMemo] = {}
    natives: dict[str, float] = {}
    for engine in ENGINES:
        os.environ["REPRO_ENGINE"] = engine
        memos[engine] = ModuleMemo(wl)
        natives[engine] = native_time_ns(wl, COST, memo=memos[engine])
        elapsed[engine] = {"native": natives[engine]}

    def phases(engine: str) -> dict:
        memo, native_ns, seen = memos[engine], natives[engine], elapsed[engine]
        return {
            "native": lambda: native_time_ns(wl, COST, memo=memo),
            f"fastswap@{SINGLE_RATIO}": lambda: seen.__setitem__(
                "fastswap",
                system_point(
                    wl, "fastswap", COST, SINGLE_RATIO, native_ns, memo=memo
                ).elapsed_ns,
            ),
            f"mira@{SINGLE_RATIO}": lambda: seen.__setitem__(
                "mira",
                mira_point(wl, COST, SINGLE_RATIO, native_ns, memo=memo)[
                    0
                ].elapsed_ns,
            ),
        }

    fns = {engine: phases(engine) for engine in ENGINES}
    best: dict[str, dict[str, float]] = {e: {} for e in ENGINES}
    for name in next(iter(fns.values())):
        for _ in range(repeats):
            for engine in ENGINES:
                os.environ["REPRO_ENGINE"] = engine
                t0 = time.perf_counter()
                fns[engine][name]()
                wall = time.perf_counter() - t0
                prev = best[engine].get(name, float("inf"))
                best[engine][name] = min(prev, wall)
    for engine in ENGINES:
        out[engine] = {
            name: round(wall, 4) for name, wall in best[engine].items()
        }
    # virtual time must be engine-independent; speed is the only delta
    assert elapsed["reference"] == elapsed["codegen"], (
        f"engines diverge in virtual time: {elapsed}"
    )
    # deterministic virtual times, hard-gated by repro.obs.regress
    out["virtual_ns"] = {
        "native": elapsed["codegen"]["native"],
        f"fastswap@{SINGLE_RATIO}": elapsed["codegen"]["fastswap"],
        f"mira@{SINGLE_RATIO}": elapsed["codegen"]["mira"],
    }
    out["total_reference_s"] = round(sum(out["reference"].values()), 4)
    out["total_codegen_s"] = round(sum(out["codegen"].values()), 4)
    out["codegen_speedup"] = round(
        out["total_reference_s"] / out["total_codegen_s"], 2
    )
    return out


def measure_tracing(repeats: int) -> dict:
    """Wall-clock cost of ``repro.obs`` tracing on a fault-heavy run
    (fastswap@0.2 on the Fig. 5 graph).

    ``disabled`` is the default path -- every subsystem's ``tracer`` is
    None and emission guards are single local ``is not None`` tests; it
    must be indistinguishable from the pre-obs numbers in
    ``BENCH_engine.json``.  ``enabled`` attaches a fresh Tracer per run
    and reports the full-trace overhead per recorded event.
    """
    wl = make_graph_workload()
    memo = ModuleMemo(wl)
    local = max(4096, int(memo.footprint_bytes * SINGLE_RATIO))

    def run(tracer=None):
        return run_on_baseline(
            memo.module,
            BASELINE_SYSTEMS["fastswap"](COST, local),
            wl.data_init,
            entry=wl.entry,
            tracer=tracer,
        )

    tracers: list[Tracer] = []

    def run_traced():
        t = Tracer()
        tracers.append(t)
        run(tracer=t)

    # interleave disabled/enabled repeats so host-load drift cancels out
    # of the overhead ratio (same reasoning as measure_single_point)
    disabled = enabled = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        disabled = min(disabled, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_traced()
        enabled = min(enabled, time.perf_counter() - t0)
    events = len(tracers[-1])
    return {
        "disabled_s": round(disabled, 4),
        "enabled_s": round(enabled, 4),
        "events": events,
        "enabled_overhead": round(enabled / disabled, 3),
        "ns_per_event": round((enabled - disabled) * 1e9 / events)
        if events
        else None,
    }


def measure_telemetry(repeats: int) -> dict:
    """Wall-clock cost of the windowed telemetry collector
    (fastswap@0.2 on the Fig. 5 graph, 1 ms virtual windows).

    ``disabled`` runs with no collector -- boundary detection is one
    float compare against ``+inf`` per clock fold and the observe sites
    a single ``is not None`` test.  ``enabled`` attaches a fresh
    :class:`TelemetryCollector` per run.  Virtual time must be
    bit-identical either way (telemetry only reads the clock), and the
    acceptance budget for ``enabled_overhead`` is 1.05.
    """
    wl = make_graph_workload()
    memo = ModuleMemo(wl)
    local = max(4096, int(memo.footprint_bytes * SINGLE_RATIO))

    def run(telemetry=None):
        return run_on_baseline(
            memo.module,
            BASELINE_SYSTEMS["fastswap"](COST, local),
            wl.data_init,
            entry=wl.entry,
            telemetry=telemetry,
        )

    collectors: list[TelemetryCollector] = []
    virtual: dict[str, float] = {}

    def run_plain():
        virtual["disabled"] = run().elapsed_ns

    def run_collected():
        tel = TelemetryCollector(window_ns=1_000_000.0)
        collectors.append(tel)
        virtual["enabled"] = run(telemetry=tel).elapsed_ns

    # The collector's true cost (~69 window snapshots + one list append
    # per miss) is a few percent of this run, well below the container's
    # load jitter (single rounds here swing +-30%, and the sign of a
    # min-of-N comparison flips between invocations).  Two estimates are
    # recorded: the *median of per-round paired ratios* for wall clock
    # (bursts land on both sides of a pair and cancel), and a
    # *deterministic* bound -- the exact increase in Python-level
    # function calls (cProfile call counts, identical on every run) --
    # which is immune to load and is the number the <=5% budget is
    # judged against.
    import cProfile
    import pstats

    def _call_count(fn) -> int:
        pr = cProfile.Profile()
        pr.enable()
        fn()
        pr.disable()
        return sum(v[0] for v in pstats.Stats(pr).stats.values())

    calls_disabled = _call_count(run)
    calls_enabled = _call_count(
        lambda: run(telemetry=TelemetryCollector(window_ns=1_000_000.0))
    )

    rounds = max(3 * repeats, 15)
    ratios: list[float] = []
    disabled = enabled = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        run_plain()
        d = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_collected()
        e = time.perf_counter() - t0
        disabled = min(disabled, d)
        enabled = min(enabled, e)
        ratios.append(e / d)
    assert virtual["disabled"] == virtual["enabled"], (
        f"telemetry perturbed virtual time: {virtual}"
    )
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    windows = len(collectors[-1])
    return {
        "disabled_s": round(disabled, 4),
        "enabled_s": round(enabled, 4),
        "rounds": rounds,
        "windows": windows,
        "virtual_ns_identical": True,
        "enabled_overhead": round(median_ratio, 3),
        "overhead_method": "median of per-round paired ratios",
        "added_calls": calls_enabled - calls_disabled,
        "added_calls_pct": round(
            100.0 * (calls_enabled - calls_disabled) / calls_disabled, 2
        ),
        "budget_pct": 5.0,
        "notes": (
            "wall-clock ratios on this container swing +-30% per round, "
            "far above the collector's real cost; added_calls_pct is the "
            "deterministic added-work bound (exact function-call delta, "
            "load-independent) and is the figure held to the <=5% budget"
        ),
    }


def measure_sweep(workers: int) -> dict:
    wl = make_graph_workload()
    t0 = time.perf_counter()
    serial = sweep_systems(wl, COST, FIG05_RATIOS)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = sweep_systems(wl, COST, FIG05_RATIOS, workers=workers)
    parallel_s = time.perf_counter() - t0
    same = [
        (a.system, a.local_ratio, a.elapsed_ns, a.normalized_perf)
        for a in serial.points
    ] == [
        (b.system, b.local_ratio, b.elapsed_ns, b.normalized_perf)
        for b in parallel.points
    ]
    return {
        "ratios": FIG05_RATIOS,
        "systems": ["fastswap", "leap", "aifm", "mira"],
        "serial_s": round(serial_s, 3),
        "workers": workers,
        "parallel_s": round(parallel_s, 3),
        "parallel_reduction": round(serial_s / parallel_s, 2),
        "deterministic": same,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--skip-sweep", action="store_true")
    args = ap.parse_args()

    report: dict = {
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "workload": "fig05 graph traversal (6000 edges, 2000 nodes)",
    }

    print("interpreter throughput (native run, both engines)...")
    report["interpreter_throughput"] = measure_throughput(args.repeats)
    print(json.dumps(report["interpreter_throughput"], indent=2))

    print("\nFig. 5 single-point run (both engines)...")
    report["single_point"] = measure_single_point(args.repeats)
    print(json.dumps(report["single_point"], indent=2))
    # the sections below run whatever a clean environment gets
    os.environ.pop("REPRO_ENGINE", None)

    print("\ntracing overhead (fastswap@0.2, disabled vs full trace)...")
    report["tracing"] = measure_tracing(args.repeats)
    print(json.dumps(report["tracing"], indent=2))

    print("\ntelemetry overhead (fastswap@0.2, disabled vs 1ms windows)...")
    report["telemetry"] = measure_telemetry(args.repeats)
    print(json.dumps(report["telemetry"], indent=2))

    if not args.skip_sweep:
        print(f"\nfull Fig. 5 sweep, serial vs workers={args.workers}...")
        report["sweep"] = measure_sweep(args.workers)
        print(json.dumps(report["sweep"], indent=2))
        if os.cpu_count() == 1:
            report["sweep"]["note"] = (
                "measured on a 1-CPU container: process-parallel sweeps "
                "cannot beat serial here; the determinism check and the "
                "per-point plumbing are what this entry validates"
            )

    seed = dict(SEED_BASELINE_WALL_S)
    current = {
        "native": report["single_point"]["codegen"]["native"],
        f"fastswap@{SINGLE_RATIO}": report["single_point"]["codegen"][
            f"fastswap@{SINGLE_RATIO}"
        ],
        f"mira@{SINGLE_RATIO}": report["single_point"]["codegen"][
            f"mira@{SINGLE_RATIO}"
        ],
    }
    seed["speedup_vs_seed"] = {
        k: round(seed[k] / v, 2) for k, v in current.items() if k in seed
    }
    report["seed_baseline"] = seed

    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")


if __name__ == "__main__":
    main()
