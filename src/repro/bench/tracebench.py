"""Trace-replay benchmark: scenario x system cells under the virtual clock.

Each cell replays one pinned scenario from the trace frontend's corpus
(:data:`repro.workloads.trace.SCENARIOS`) through one memory system at a
fixed local-memory ratio and reports virtual time, miss behavior, and
the clock's category breakdown.  Everything is virtual-time
deterministic -- the generators are seeded, the systems are the
production simulators -- so the numbers are bit-stable across hosts and
regression-gated as the ``trace`` suite of :mod:`repro.bench.suites`.

The ``"hybrid"`` column starts every region on the swap path (a raw
trace has no plan-time signals), so its cells exercise the *online*
promote path; ``switches`` records every applied ``path.switch`` with
the windowed signals that triggered it.
"""

from __future__ import annotations

from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.workloads.trace.generators import SCENARIOS
from repro.workloads.trace.replay import TRACE_SYSTEMS, run_scenario

#: systems swept: the page-swap baselines, the object runtime, the three
#: Mira cache-section geometries, and the two-path hybrid
SYSTEMS = TRACE_SYSTEMS + ("hybrid",)

#: local memory as a fraction of the scenario footprint (equal across
#: every system -- the comparison requires it)
RATIO = 0.5


def path_switches(tracer: Tracer) -> list[dict]:
    """Every applied ``path.switch`` of a traced run, with its trigger signals."""
    return [
        {"t": t, **fields}
        for kind, t, fields in tracer.events
        if kind == "path.switch"
    ]


def measure_cell(
    scenario: str, system: str, ratio: float = RATIO, cost: CostModel | None = None
) -> dict:
    """Replay one (scenario, system) cell; returns the benchmark record."""
    tracer = Tracer() if system == "hybrid" else None
    res = run_scenario(scenario, system, ratio, cost=cost, tracer=tracer)
    sections = {
        name: {
            "accesses": s.get("accesses", 0),
            "hits": s.get("hits", 0),
            "misses": s.get("misses", 0),
            "evictions": s.get("evictions", 0),
        }
        for name, s in res.sections.items()
    }
    record = {
        "scenario": scenario,
        "system": system,
        "ratio": ratio,
        "num_ops": res.num_ops,
        "footprint_bytes": res.footprint_bytes,
        "local_mem_bytes": res.local_mem_bytes,
        "elapsed_ns": res.elapsed_ns,
        "miss_rate": res.miss_rate,
        "sections": sections,
        "breakdown": res.breakdown,
    }
    if tracer is not None:
        record["switches"] = path_switches(tracer)
    return record


def config() -> dict:
    return {
        "scenarios": {
            name: {
                "kind": spec.kind,
                "seed": spec.seed,
                "params": spec.params,
                "digest": spec.digest(),
            }
            for name, spec in SCENARIOS.items()
        },
        "systems": list(SYSTEMS),
        "ratio": RATIO,
    }


def summary(records: list[dict]) -> dict:
    """Per-scenario winners (lowest virtual time) and every mid-run
    switch the hybrid column applied."""
    winners: dict[str, str] = {}
    for sc in dict.fromkeys(r["scenario"] for r in records):
        best = min(
            (r for r in records if r["scenario"] == sc),
            key=lambda r: (r["elapsed_ns"], r["system"]),
        )
        winners[sc] = best["system"]
    midrun = [
        {
            "scenario": r["scenario"],
            "switches": r["switches"],
            "hybrid_ns": r["elapsed_ns"],
        }
        for r in records
        if r.get("switches")
    ]
    return {"winners": winners, "midrun_switches": midrun}
