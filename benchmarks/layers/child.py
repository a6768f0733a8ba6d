"""One workload in one single-threaded process (spawned by ``run.py``).

Modes: ``setup`` stops after set-up (a ``setup_s`` sample), ``measure``
runs untraced repeats for the time budget, ``trace`` runs one untraced
repeat, one repeat under cProfile, the direct drives and the obs pairs.
Prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

from .timing import CALIB_REF_S, HostTimer, calibrated

#: a time-boxed run never stops before this many repeats
MIN_REPEATS = 3
#: share of ``--seconds`` each direct-drive loop runs for
DRIVE_SHARE = 0.012
OBS_ROUNDS = 7


def run_repeat(cell, timer, index) -> dict:
    """One repeat with its failures counted, never raised."""
    timer.repeat = index
    try:
        rep = cell.repeat(timer)
    except Exception:
        return {
            "failed": cell.attempts,
            "attempted": cell.attempts,
            "problems": [traceback.format_exc(limit=8)],
        }
    finally:
        timer.repeat = None
    rep["attempted"] = cell.attempts
    return rep


def public_repeat(rep: dict) -> dict:
    """The JSON-safe part of a repeat (drops the live memory systems)."""
    segments = rep.get("segments", [])
    return {
        "segments": segments,
        "wall_s": sum(s["s"] for s in segments),
        "raw_wall_s": sum(s["raw_s"] for s in segments),
        "virtual_ns": rep.get("virtual_ns"),
        "events": rep.get("events"),
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "problems": rep["problems"],
    }


def resolved_names() -> dict:
    """The engine and prefetch policy a user gets with a clean
    environment."""
    from repro.baselines import Leap, NativeMemory
    from repro.memsim.cost_model import CostModel
    from repro.runtime.interpreter import Interpreter
    from repro.workloads import make_workload

    cost = CostModel.rdma()
    module = make_workload("graph_traversal", num_edges=8, num_nodes=4).build_module()
    return {
        "engine": Interpreter(module, NativeMemory(cost, 1 << 20)).engine_name,
        "leap_policy": Leap(cost, 1 << 20).policy.name,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.layers.child")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--repeats", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="parent's perf_counter() just before the spawn")
    ap.add_argument("--calib0", type=float, required=True,
                    help="parent's calibration sample just before the spawn")
    args = ap.parse_args(argv)

    timer = HostTimer(origin=args.t0)
    with timer.span("setup"):
        with timer.span("import"):
            from . import workloads
        try:
            make = workloads.WORKLOADS[args.workload]
        except KeyError:
            print(f"unknown workload {args.workload!r}; expected one of "
                  f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        cell = make(timer, args.seed, args.scale)
    setup_raw = time.perf_counter() - args.t0
    setup_calib = (args.calib0 + timer.sample()) / 2.0
    out: dict = {
        "workload": args.workload,
        "mode": args.mode,
        "seed": args.seed,
        "scale": args.scale,
        "kind": cell.kind,
        "setup": {
            "raw_s": setup_raw,
            "calib_s": setup_calib,
            "s": calibrated(setup_raw, setup_calib),
        },
        "native_ns": cell.native_ns,
    }

    if args.mode != "setup":
        out["resolved"] = resolved_names()
        repeats = []
        limit = 1 if args.mode == "trace" else args.repeats
        deadline = time.perf_counter() + args.seconds
        while len(repeats) < limit and (
            len(repeats) < min(MIN_REPEATS, limit) or time.perf_counter() < deadline
        ):
            gc.collect()
            timer.sample()
            repeats.append(run_repeat(cell, timer, len(repeats)))
            if len(repeats) == min(MIN_REPEATS, limit):
                # at a fixed repeat count: the high-water mark creeps up
                # with every further repeat, and their number follows the
                # host's speed
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        good = [r for r in repeats if not r["failed"]]
        out["repeats"] = [public_repeat(r) for r in repeats]
        if good:
            stats = workloads.sim_stats(good[-1]["systems"], good[-1]["virtual_ns"])
            out["sim"] = stats
            out["sim_digest"] = workloads.sim_digest(stats)
        if args.mode == "measure":
            out["peak_rss_kb"] = peak_rss_kb
        elif good:
            out["layers"] = traced_layers(
                cell, timer, setup_calib, good[-1], args.seconds
            )

    out["spans"] = timer.spans
    out["calib_samples"] = timer.calib_samples
    out["calib_ref_s"] = CALIB_REF_S
    out["loadavg"] = os.getloadavg()
    print(json.dumps(out))
    return 0


def span_metrics(timer, setup_calib: float, untraced: dict) -> dict:
    """Per-layer group 1: the phase spans around the public calls the
    benchmark makes, in calibrated seconds.  Set-up phases use the
    set-up's calibration, phases of the untraced repeat their segment's."""

    def raw(name, repeat):
        return sum(
            s["end"] - s["start"] for s in timer.spans
            if s["name"] == name and s["repeat"] == repeat
        )

    segments = untraced["segments"]
    out = {f"{s['name']}_s": s["s"] for s in segments}
    out["workloads.build_s"] = calibrated(raw("workloads.build", None), setup_calib)
    out["workloads.native_ref_s"] = calibrated(
        raw("workloads.native_ref", None), setup_calib
    )
    gen = calibrated(raw("workloads.trace.gen_ops", None), setup_calib)
    out["workloads.trace.gen_ops_per_s"] = untraced["events"] / gen if gen else 0.0
    out["workloads.trace.make_system_s"] = calibrated(
        raw("workloads.trace.make_system", 0), segments[0]["calib_s"]
    )
    return out


def traced_layers(cell, timer, setup_calib: float, untraced: dict, seconds: float) -> dict:
    """Per-layer groups 1-4: the phase spans, the cProfile fold of one
    more repeat, the direct drives and the obs pairs."""
    import repro

    from . import drives
    from .fold import fold, profiled

    gc.collect()
    before = timer.sample()
    # no kernel runs under the profiler: the traced repeat is calibrated
    # by the samples on either side of it
    timer.frozen = True
    try:
        rep, profile = profiled(lambda: run_repeat(cell, timer, "traced"))
    finally:
        timer.frozen = False
    calib = (before + timer.sample()) / 2.0
    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    layers = fold(profile, package_root, rep.get("events") or 0)
    for name in [n for n in layers if n.endswith("self_s")]:
        layers[name] = calibrated(layers[name], calib)
    layers.update(span_metrics(timer, setup_calib, untraced))
    traced_wall = calibrated(
        sum(s["raw_s"] for s in rep.get("segments", [])), calib
    )
    layers["trace_overhead_ratio"] = traced_wall / sum(
        s["s"] for s in untraced["segments"]
    )
    problems = list(rep["problems"])
    if rep.get("virtual_ns") != untraced["virtual_ns"]:
        problems.append("traced run's virtual_ns differs from the untraced run's")
    for package in ("obs", "faults"):
        if layers[f"{package}.calls"]:
            problems.append(
                f"{package}.calls != 0: a hook leaked into the disabled path"
            )
    if cell.kind == "trace" and layers["runtime.calls"]:
        problems.append("runtime.calls != 0 on a trace workload")
    try:
        layers.update(drives.direct_drives(timer, seconds * DRIVE_SHARE))
        layers.update(drives.obs_cost(timer, OBS_ROUNDS))
    except Exception:
        problems.append(traceback.format_exc(limit=8))
    return {"metrics": layers, "failed": rep["failed"], "problems": problems}


if __name__ == "__main__":
    sys.exit(main())
