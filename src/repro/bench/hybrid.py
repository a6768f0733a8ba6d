"""Hybrid path-switch benchmark: the two-path runtime vs the baselines.

Each of the five paper workloads is compiled by the Mira controller and
run four ways at one local-memory ratio: fastswap, aifm, the plain Mira
runtime (``run_plan``), and the hybrid runtime (``run_plan(hybrid=True)``),
which materializes the same plan as path groups that may switch online.
The acceptance criterion is that hybrid matches or beats the better of
fastswap/aifm everywhere.  Virtual-time deterministic and
regression-gated as the ``hybrid`` suite of :mod:`repro.bench.suites`;
the hybrid system on raw traces is the ``hybrid`` column of
:mod:`repro.bench.tracebench`.
"""

from __future__ import annotations

from repro.bench.harness import (
    ModuleMemo,
    effective_ns,
    mira_point,
    native_time_ns,
    system_point,
)
from repro.bench.prefetch import WORKLOADS
from repro.bench.tracebench import path_switches
from repro.core import run_plan
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.workloads import make_workload

#: local memory as a fraction of the footprint (equal across every
#: system -- the comparison requires it)
RATIO = 0.5

#: the systems compared (hybrid last, so the winner check reads
#: naturally in the report)
SYSTEMS = ("fastswap", "aifm", "mira", "hybrid")


def measure_cell(
    workload: str, system: str, ratio: float = RATIO, cost: CostModel | None = None
) -> dict:
    """One system on one compiled workload; returns the benchmark record.

    ``mira`` and ``hybrid`` run the *same* plan (the controller is
    deterministic), so any delta between them is purely the path
    machinery (group bookkeeping plus any online switches).
    """
    cost = cost or CostModel()
    wl = make_workload(workload, **WORKLOADS[workload])
    memo = ModuleMemo(wl)
    native_ns = native_time_ns(wl, cost, memo=memo)
    local = max(4096, int(memo.footprint_bytes * ratio))
    record = {
        "workload": workload,
        "system": system,
        "ratio": ratio,
        "local_mem_bytes": local,
        "native_ns": native_ns,
    }
    if system in ("fastswap", "aifm"):
        p = system_point(wl, system, cost, ratio, native_ns, memo=memo)
        if p.failed:
            # AIFM's allocation failures are data, not errors (Fig. 18)
            return {**record, "failed": True, "error": p.extra.get("error")}
        return {**record, "elapsed_ns": p.elapsed_ns}
    mira, program = mira_point(wl, cost, ratio, native_ns, memo=memo)
    if system == "mira":
        return {**record, "elapsed_ns": mira.elapsed_ns}
    tracer = Tracer()
    result = run_plan(
        program.module,
        cost,
        local,
        data_init=wl.data_init,
        entry=wl.entry,
        hybrid=True,
        tracer=tracer,
    )
    wl.verify_results(result.results)
    return {
        **record,
        "elapsed_ns": effective_ns(result),
        "switches": path_switches(tracer),
        "plan_paths": {
            sp.config.name: getattr(sp, "path", "object")
            for sp in program.plan.sections
        },
    }


def config() -> dict:
    return {"ratio": RATIO, "workloads": WORKLOADS, "systems": list(SYSTEMS)}


def summary(records: list[dict]) -> dict:
    """Hybrid vs the better of fastswap/aifm, per workload; a loss is a
    violation."""
    acceptance: dict[str, dict] = {}
    violations: list[str] = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        by_sys = {r["system"]: r for r in records if r["workload"] == workload}
        if "hybrid" not in by_sys:
            continue
        rivals = [
            by_sys[s]["elapsed_ns"]
            for s in ("fastswap", "aifm")
            if s in by_sys and not by_sys[s].get("failed")
        ]
        hybrid_ns = by_sys["hybrid"]["elapsed_ns"]
        best_rival = min(rivals) if rivals else None
        wins = best_rival is None or hybrid_ns <= best_rival
        acceptance[workload] = {
            "hybrid_ns": hybrid_ns,
            "best_rival_ns": best_rival,
            "hybrid_wins": wins,
            "switches": len(by_sys["hybrid"]["switches"]),
        }
        if not wins:
            violations.append(
                f"{workload}: hybrid {hybrid_ns:.0f} ns loses to the better "
                f"of fastswap/aifm ({best_rival:.0f} ns)"
            )
    return {"acceptance": acceptance, "violations": violations}
