"""Perf-regression gate over the committed BENCH baselines.

Compares fresh measurements against ``BENCH_chaos.json`` (virtual-time
chaos cells), ``BENCH_engine.json`` (interpreter throughput plus the
virtual time of the Fig. 5 single points), ``BENCH_prefetch.json``
(prefetch-policy sweep stall/elapsed, when committed), and
``BENCH_trace.json`` (trace-replay scenario sweep, when committed), and
``BENCH_hybrid.json`` (hybrid path-switch benchmark, when committed):

* **virtual-time metrics are hard-gated**: the simulator is
  deterministic, so ``healthy_ns``/``faulty_ns``/``virtual_ns`` must
  match the baseline within a tight relative tolerance (default 1%).
  Slower fails the gate; markedly faster is reported as an improvement
  and a prompt to regenerate the baselines (the gate stays green).
* **wall-clock throughput is advisory** by default: CI machines are too
  noisy for hard wall gates, so ``ops_per_sec`` only warns unless
  ``--strict-wall`` is given, and even then only a collapse below
  ``--wall-ratio`` of the baseline fails.

Usage::

    python -m repro.obs.regress                    # measure + compare
    python -m repro.obs.regress --current cur.json # compare canned numbers
    python -m repro.obs.regress --save-current cur.json --json report.json

Exit codes: 0 = within tolerance, 1 = regression, 2 = unreadable
baseline/current file.  Also reachable as
``python -m repro.obs.report --check``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import time
from dataclasses import dataclass

#: default relative tolerance for deterministic virtual-time metrics
VIRT_REL_TOL = 0.01
#: throughput may sink to this fraction of baseline before --strict-wall fails
WALL_RATIO = 0.35

DEFAULT_WORKLOADS = ("array_sum", "graph_traversal")
DEFAULT_SYSTEMS = ("fastswap", "mira")
DEFAULT_SEEDS = (1,)
DEFAULT_INTENSITIES = ("medium",)
#: prefetch cells re-measured live by default: the two workloads where the
#: policy ranking is most load-bearing (sequential + oblivious headliner)
DEFAULT_PREFETCH_WORKLOADS = ("array_sum", "dataframe")
#: trace scenarios re-measured live by default: one skew-dominated and one
#: structure-dominated access pattern (the ends of the corpus spectrum)
DEFAULT_TRACE_SCENARIOS = ("zipf_hot", "chase_small")
#: trace systems re-measured live by default: a page-swap baseline, its
#: prefetching variant, and the strongest Mira cache geometry
DEFAULT_TRACE_SYSTEMS = ("fastswap", "leap", "mira-set")
#: hybrid cells re-measured live by default: one steady promote (zipf_hot)
#: and the mid-run phase-change switch demo (mixed_rw)
DEFAULT_HYBRID_SCENARIOS = ("zipf_hot", "mixed_rw")


@dataclass
class Check:
    """One metric comparison."""

    metric: str
    baseline: float
    current: float
    rel: float  # (current - baseline) / baseline
    tol: float
    hard: bool
    ok: bool
    note: str = ""

    def row(self) -> dict:
        return dict(vars(self))


# -- baseline I/O -----------------------------------------------------------


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def flatten_chaos(doc: dict) -> dict[str, float]:
    """``BENCH_chaos.json`` cells -> flat {metric: virtual ns}."""
    out: dict[str, float] = {}
    for cell in doc.get("cells", []):
        if not cell.get("completed"):
            continue
        key = (
            f"chaos.{cell['workload']}.{cell['system']}"
            f".s{cell['seed']}.{cell['intensity']}"
        )
        out[key + ".healthy_ns"] = float(cell["healthy_ns"])
        out[key + ".faulty_ns"] = float(cell["faulty_ns"])
    return out


def flatten_engine(doc: dict) -> dict[str, float]:
    """``BENCH_engine.json`` -> flat metrics (throughput + virtual ns)."""
    out: dict[str, float] = {}
    for engine, e in doc.get("interpreter_throughput", {}).items():
        if isinstance(e, dict) and "ops_per_sec" in e:
            out[f"engine.{engine}.ops_per_sec"] = float(e["ops_per_sec"])
    for name, ns in (doc.get("single_point", {}).get("virtual_ns") or {}).items():
        out[f"engine.virtual_ns.{name}"] = float(ns)
    return out


def flatten_prefetch(doc: dict) -> dict[str, float]:
    """``BENCH_prefetch.json`` cells -> flat {metric: virtual ns}.

    Both ``stall_ns`` (the profiler's prefetch-relevant attribution) and
    ``elapsed_ns`` are hard-gated: the sweep is virtual-time
    deterministic, so any drift is a behavior change, not noise.
    """
    out: dict[str, float] = {}
    for cell in doc.get("cells", []):
        key = f"prefetch.{cell['workload']}.{cell['policy']}"
        out[key + ".stall_ns"] = float(cell["stall_ns"])
        out[key + ".elapsed_ns"] = float(cell["elapsed_ns"])
    return out


def flatten_trace(doc: dict) -> dict[str, float]:
    """``BENCH_trace.json`` cells -> flat {metric: virtual ns}.

    ``elapsed_ns`` is hard-gated: the trace sweep replays seeded
    generators through deterministic simulators, so any drift is a
    behavior change, not noise.
    """
    out: dict[str, float] = {}
    for cell in doc.get("cells", []):
        key = f"trace.{cell['scenario']}.{cell['system']}"
        out[key + ".elapsed_ns"] = float(cell["elapsed_ns"])
    return out


def flatten_hybrid(doc: dict) -> dict[str, float]:
    """``BENCH_hybrid.json`` cells -> flat {metric: virtual ns}.

    Both halves of the hybrid benchmark are hard-gated: the IR cells
    (``run_plan(hybrid=True)`` vs the baselines) and the trace-corpus
    cells (the ``"hybrid"`` trace system) are virtual-time deterministic.
    """
    out: dict[str, float] = {}
    for cell in doc.get("ir_cells", []):
        key = f"hybrid.ir.{cell['workload']}.{cell['system']}"
        out[key + ".elapsed_ns"] = float(cell["elapsed_ns"])
    for cell in doc.get("trace_cells", []):
        key = f"hybrid.trace.{cell['scenario']}.{cell['system']}"
        out[key + ".elapsed_ns"] = float(cell["elapsed_ns"])
    return out


def load_baselines(
    engine_path, chaos_path, prefetch_path=None, trace_path=None,
    hybrid_path=None,
) -> dict[str, float]:
    metrics: dict[str, float] = {}
    metrics.update(flatten_engine(load_json(engine_path)))
    metrics.update(flatten_chaos(load_json(chaos_path)))
    if prefetch_path is not None:
        metrics.update(flatten_prefetch(load_json(prefetch_path)))
    if trace_path is not None:
        metrics.update(flatten_trace(load_json(trace_path)))
    if hybrid_path is not None:
        metrics.update(flatten_hybrid(load_json(hybrid_path)))
    return metrics


# -- fresh measurement ------------------------------------------------------

#: environment knobs that change what a measurement runs (engine choice,
#: ambient prefetch policy); pinned off for the whole of
#: :func:`measure_current` so comparisons against the committed baselines
#: are not contaminated by the caller's shell
_MEASURE_ENV = ("REPRO_ENGINE", "REPRO_PREFETCH")


@contextlib.contextmanager
def _pinned_env(*names: str):
    """Remove ``names`` from ``os.environ`` for the duration, restoring
    the exact prior values on exit -- including when the body raises, so
    a crashing measurement can never leak a mutated environment into the
    caller's process (the same discipline ``_measure_throughput`` applies
    to its own internal engine switching)."""
    saved = {name: os.environ.pop(name, None) for name in names}
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _measure_throughput() -> dict[str, float]:
    """Wall-clock ops/sec of both engines on the Fig. 5 graph
    workload (mirrors ``benchmarks/perf_smoke.py``'s throughput section)."""
    from repro.baselines import NativeMemory
    from repro.bench.harness import ModuleMemo
    from repro.core import run_on_baseline
    from repro.memsim.cost_model import CostModel
    from repro.workloads import make_graph_workload

    cost = CostModel()
    wl = make_graph_workload()
    out: dict[str, float] = {}
    saved = os.environ.get("REPRO_ENGINE")
    try:
        for engine in ("reference", "codegen"):
            os.environ["REPRO_ENGINE"] = engine
            memo = ModuleMemo(wl)
            # best of two runs on a shared memo, like perf_smoke: the
            # first run pays one-time costs (codegen source compile),
            # which are amortized noise, not throughput
            wall = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                result = run_on_baseline(
                    memo.module,
                    NativeMemory(cost, 2 * memo.footprint_bytes + (1 << 20)),
                    wl.data_init,
                    entry=wl.entry,
                )
                wall = min(wall, time.perf_counter() - t0)
            bd = result.breakdown
            ops = bd.get("compute", 0.0) / cost.cpu_op_ns
            ops += bd.get("dram", 0.0) / cost.dram_access_ns
            out[f"engine.{engine}.ops_per_sec"] = round(ops / wall)
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved
    return out


def _measure_virtual_points() -> dict[str, float]:
    """Deterministic virtual time of the Fig. 5 single points -- the same
    numbers ``benchmarks/perf_smoke.py`` stores as
    ``single_point.virtual_ns`` (graph workload, ratio 0.2)."""
    from repro.bench.harness import (
        ModuleMemo,
        mira_point,
        native_time_ns,
        system_point,
    )
    from repro.memsim.cost_model import CostModel
    from repro.workloads import make_graph_workload

    cost = CostModel()
    wl = make_graph_workload()
    memo = ModuleMemo(wl)
    native_ns = native_time_ns(wl, cost, memo=memo)
    fast = system_point(wl, "fastswap", cost, 0.2, native_ns, memo=memo)
    mira = mira_point(wl, cost, 0.2, native_ns, memo=memo)[0]
    return {
        "engine.virtual_ns.native": native_ns,
        "engine.virtual_ns.fastswap@0.2": fast.elapsed_ns,
        "engine.virtual_ns.mira@0.2": mira.elapsed_ns,
    }


def _measure_prefetch(workloads=DEFAULT_PREFETCH_WORKLOADS) -> dict[str, float]:
    """Deterministic stall/elapsed of the prefetch-policy sweep on a
    subset of workloads (same cells ``benchmarks/prefetch_smoke.py``
    stores in ``BENCH_prefetch.json``)."""
    from repro.bench.prefetch import POLICIES, measure_cell

    metrics: dict[str, float] = {}
    for workload in workloads:
        for policy in POLICIES:
            cell = measure_cell(workload, policy)
            key = f"prefetch.{workload}.{policy}"
            metrics[key + ".stall_ns"] = float(cell["stall_ns"])
            metrics[key + ".elapsed_ns"] = float(cell["elapsed_ns"])
    return metrics


def _measure_trace(
    scenarios=DEFAULT_TRACE_SCENARIOS, systems=DEFAULT_TRACE_SYSTEMS
) -> dict[str, float]:
    """Deterministic virtual time of the trace-replay sweep on a subset
    of scenarios (same cells ``benchmarks/trace_smoke.py`` stores in
    ``BENCH_trace.json``)."""
    from repro.bench.tracebench import measure_cell

    metrics: dict[str, float] = {}
    for scenario in scenarios:
        for system in systems:
            cell = measure_cell(scenario, system)
            key = f"trace.{scenario}.{system}"
            metrics[key + ".elapsed_ns"] = float(cell["elapsed_ns"])
    return metrics


def _measure_hybrid(scenarios=DEFAULT_HYBRID_SCENARIOS) -> dict[str, float]:
    """Deterministic virtual time of the ``"hybrid"`` trace system on a
    subset of scenarios (same cells ``benchmarks/hybrid_smoke.py`` stores
    in ``BENCH_hybrid.json``'s ``trace_cells``)."""
    from repro.bench.tracebench import measure_cell

    metrics: dict[str, float] = {}
    for scenario in scenarios:
        cell = measure_cell(scenario, "hybrid")
        key = f"hybrid.trace.{scenario}.hybrid"
        metrics[key + ".elapsed_ns"] = float(cell["elapsed_ns"])
    return metrics


def measure_current(
    workloads=DEFAULT_WORKLOADS,
    systems=DEFAULT_SYSTEMS,
    seeds=DEFAULT_SEEDS,
    intensities=DEFAULT_INTENSITIES,
    throughput: bool = True,
    single_points: bool = True,
    prefetch: bool = True,
    prefetch_workloads=DEFAULT_PREFETCH_WORKLOADS,
    trace: bool = True,
    trace_scenarios=DEFAULT_TRACE_SCENARIOS,
    trace_systems=DEFAULT_TRACE_SYSTEMS,
    hybrid: bool = True,
    hybrid_scenarios=DEFAULT_HYBRID_SCENARIOS,
) -> dict[str, float]:
    """Re-measure a subset of the baseline metrics, live.

    Chaos cells are recomputed with the exact parameters the baseline
    harness used (``run_chaos_point`` defaults: ratio 0.25, default cost
    model, 2e7 ns fault horizon), so their virtual times are directly
    comparable.  The whole measurement runs under :func:`_pinned_env`:
    ambient ``REPRO_ENGINE``/``REPRO_PREFETCH`` are pinned off and
    restored afterwards even if a measurement raises.
    """
    from repro.faults.chaos import default_matrix, run_chaos_point

    with _pinned_env(*_MEASURE_ENV):
        metrics: dict[str, float] = {}
        plans = default_matrix(
            seeds=tuple(seeds), intensities=tuple(intensities)
        )
        for name in workloads:
            for system in systems:
                for plan in plans:
                    p = run_chaos_point(name, system, plan)
                    key = (
                        f"chaos.{p.workload}.{p.system}.s{p.seed}.{p.intensity}"
                    )
                    metrics[key + ".healthy_ns"] = p.healthy_ns
                    metrics[key + ".faulty_ns"] = p.faulty_ns
        if single_points:
            metrics.update(_measure_virtual_points())
        if throughput:
            metrics.update(_measure_throughput())
        if prefetch:
            metrics.update(_measure_prefetch(prefetch_workloads))
        if trace:
            metrics.update(_measure_trace(trace_scenarios, trace_systems))
        if hybrid:
            metrics.update(_measure_hybrid(hybrid_scenarios))
        return metrics


# -- comparison -------------------------------------------------------------


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    virt_tol: float = VIRT_REL_TOL,
    wall_ratio: float = WALL_RATIO,
    strict_wall: bool = False,
) -> list[Check]:
    """Compare metrics present on both sides; see the module docstring
    for the hard/advisory split."""
    checks: list[Check] = []
    for metric in sorted(set(baseline) & set(current)):
        base, cur = baseline[metric], current[metric]
        rel = (cur - base) / base if base else 0.0
        wall = metric.endswith(".ops_per_sec")
        if wall:
            # higher is better; only a collapse matters, and only when
            # the caller asked for a hard wall gate
            ok = cur >= base * wall_ratio
            note = "" if ok else f"throughput fell to {cur / base:.0%} of baseline"
            checks.append(
                Check(metric, base, cur, rel, wall_ratio, strict_wall, ok or not strict_wall, note)
            )
            continue
        # virtual time: lower is better, determinism expected
        if rel > virt_tol:
            checks.append(
                Check(metric, base, cur, rel, virt_tol, True, False,
                      f"virtual time regressed {rel:+.1%}")
            )
        elif rel < -virt_tol:
            checks.append(
                Check(metric, base, cur, rel, virt_tol, True, True,
                      f"improved {rel:+.1%}; regenerate the BENCH baselines")
            )
        else:
            checks.append(Check(metric, base, cur, rel, virt_tol, True, True))
    return checks


def gate(checks: list[Check]) -> bool:
    """True iff no hard check failed."""
    return all(c.ok for c in checks)


# -- CLI --------------------------------------------------------------------


def _repo_default(name: str) -> pathlib.Path:
    """Look for a baseline next to cwd, walking up (CI runs at the root)."""
    here = pathlib.Path.cwd()
    for d in (here, *here.parents):
        p = d / name
        if p.exists():
            return p
    return here / name


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.regress", description=__doc__
    )
    ap.add_argument("--engine", default=None, help="BENCH_engine.json path")
    ap.add_argument("--chaos", default=None, help="BENCH_chaos.json path")
    ap.add_argument("--prefetch", default=None, help="BENCH_prefetch.json path")
    ap.add_argument(
        "--current",
        default=None,
        help="flat {metric: value} JSON to compare instead of measuring",
    )
    ap.add_argument("--save-current", default=None, help="write measured metrics")
    ap.add_argument("--json", dest="json_out", default=None, help="write full report")
    ap.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS))
    ap.add_argument("--systems", nargs="+", default=list(DEFAULT_SYSTEMS))
    ap.add_argument("--seeds", nargs="+", type=int, default=list(DEFAULT_SEEDS))
    ap.add_argument("--intensities", nargs="+", default=list(DEFAULT_INTENSITIES))
    ap.add_argument("--virt-tol", type=float, default=VIRT_REL_TOL)
    ap.add_argument("--wall-ratio", type=float, default=WALL_RATIO)
    ap.add_argument("--strict-wall", action="store_true")
    ap.add_argument("--no-throughput", action="store_true")
    ap.add_argument("--no-points", action="store_true",
                    help="skip the Fig. 5 single-point virtual-time metrics")
    ap.add_argument("--no-prefetch", action="store_true",
                    help="skip the prefetch-policy sweep metrics")
    ap.add_argument(
        "--prefetch-workloads",
        nargs="+",
        default=list(DEFAULT_PREFETCH_WORKLOADS),
        help="workloads to re-measure in the prefetch sweep",
    )
    ap.add_argument("--trace", default=None, help="BENCH_trace.json path")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the trace-replay sweep metrics")
    ap.add_argument(
        "--trace-scenarios",
        nargs="+",
        default=list(DEFAULT_TRACE_SCENARIOS),
        help="scenarios to re-measure in the trace-replay sweep",
    )
    ap.add_argument(
        "--trace-systems",
        nargs="+",
        default=list(DEFAULT_TRACE_SYSTEMS),
        help="systems to re-measure in the trace-replay sweep",
    )
    ap.add_argument("--hybrid", default=None, help="BENCH_hybrid.json path")
    ap.add_argument("--no-hybrid", action="store_true",
                    help="skip the hybrid path-switch metrics")
    ap.add_argument(
        "--hybrid-scenarios",
        nargs="+",
        default=list(DEFAULT_HYBRID_SCENARIOS),
        help="trace scenarios to re-measure on the hybrid system",
    )
    args = ap.parse_args(argv)

    engine_path = args.engine or _repo_default("BENCH_engine.json")
    chaos_path = args.chaos or _repo_default("BENCH_chaos.json")
    prefetch_path = args.prefetch or _repo_default("BENCH_prefetch.json")
    if args.no_prefetch or not pathlib.Path(prefetch_path).exists():
        prefetch_path = None
    trace_path = args.trace or _repo_default("BENCH_trace.json")
    if args.no_trace or not pathlib.Path(trace_path).exists():
        trace_path = None
    hybrid_path = args.hybrid or _repo_default("BENCH_hybrid.json")
    if args.no_hybrid or not pathlib.Path(hybrid_path).exists():
        hybrid_path = None
    try:
        baseline = load_baselines(
            engine_path, chaos_path, prefetch_path, trace_path, hybrid_path
        )
    except (OSError, ValueError, KeyError) as e:
        print(f"regress: cannot load baselines: {e}")
        return 2

    if args.current is not None:
        try:
            doc = load_json(args.current)
        except (OSError, ValueError) as e:
            print(f"regress: cannot load --current: {e}")
            return 2
        current = {
            k: float(v)
            for k, v in (doc.get("metrics", doc)).items()
            if isinstance(v, (int, float))
        }
    else:
        current = measure_current(
            args.workloads,
            args.systems,
            args.seeds,
            args.intensities,
            throughput=not args.no_throughput,
            single_points=not args.no_points,
            prefetch=not args.no_prefetch and prefetch_path is not None,
            prefetch_workloads=args.prefetch_workloads,
            trace=not args.no_trace and trace_path is not None,
            trace_scenarios=args.trace_scenarios,
            trace_systems=args.trace_systems,
            hybrid=not args.no_hybrid and hybrid_path is not None,
            hybrid_scenarios=args.hybrid_scenarios,
        )
    if args.save_current:
        with open(args.save_current, "w", encoding="utf-8") as f:
            json.dump({"metrics": current}, f, indent=2, sort_keys=True)
            f.write("\n")

    checks = compare(
        baseline,
        current,
        virt_tol=args.virt_tol,
        wall_ratio=args.wall_ratio,
        strict_wall=args.strict_wall,
    )
    from repro.bench.reporting import format_regression

    print(format_regression(checks))
    uncovered = sorted(set(current) - set(baseline))
    if uncovered:
        print(f"(no baseline for: {', '.join(uncovered)})")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(
                {"ok": gate(checks), "checks": [c.row() for c in checks]},
                f,
                indent=2,
                sort_keys=True,
            )
            f.write("\n")
    if not gate(checks):
        print("regress: FAIL")
        return 1
    print("regress: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
