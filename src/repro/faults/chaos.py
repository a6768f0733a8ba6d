"""Chaos harness: run the paper workloads under a matrix of fault plans.

Each *chaos point* runs one workload on one memory system twice -- once on a
healthy machine, once under a seeded :class:`~repro.faults.FaultPlan` --
verifies the faulty run still produces correct results, and reports the
slowdown plus everything the reliability layer did (retries, giveups,
breaker trips, degradations).

Kept separate from :mod:`repro.faults` proper because it pulls in the
bench/core layers, which depend back on memsim; import it as
``repro.faults.chaos``.  The ``chaos`` suite of :mod:`repro.bench.suites`
runs :func:`run_chaos_point` per cell; the tier-1 chaos tests are thin
wrappers over :func:`run_chaos_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import BASELINE_SYSTEMS, ModuleMemo
from repro.core import MiraController, run_on_baseline, run_plan
from repro.faults.plan import FaultPlan
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.workloads import make_workload

#: small but structurally faithful instances of the five paper workloads
#: (sized for a harness that runs each point twice, healthy + faulty)
CHAOS_WORKLOADS: dict[str, dict] = {
    "graph_traversal": {"num_edges": 900, "num_nodes": 300},
    "dataframe": {"num_rows": 1024},
    "gpt2": {
        "layers": 2,
        "d_model": 32,
        "seq_len": 16,
        "batch": 1,
        "passes": 1,
        "warmup_passes": 1,
    },
    "mcf": {"num_nodes": 1024, "num_arcs": 1024, "iterations": 1, "chases": 16},
    "array_sum": {"num_elems": 2048},
}

#: a faulty run should never beat the healthy one by more than float noise,
#: and a *bounded* factor above it is the harness's robustness criterion
DEFAULT_MAX_SLOWDOWN = 10.0


@dataclass
class ChaosPoint:
    """Outcome of one (workload, system, plan) cell."""

    workload: str
    system: str
    seed: int
    intensity: str
    completed: bool
    healthy_ns: float
    faulty_ns: float
    slowdown: float
    #: snapshot of :class:`repro.faults.FaultStats` after the faulty run
    faults: dict = field(default_factory=dict)
    #: the cache manager's ``degrade_log`` (empty for baselines)
    degrades: list = field(default_factory=list)
    trace_digest: str | None = None

    def ok(self, max_slowdown: float = DEFAULT_MAX_SLOWDOWN) -> bool:
        return self.completed and self.slowdown <= max_slowdown

    def row(self) -> dict:
        """JSON-ready summary row."""
        return {
            "workload": self.workload,
            "system": self.system,
            "seed": self.seed,
            "intensity": self.intensity,
            "completed": self.completed,
            "healthy_ns": self.healthy_ns,
            "faulty_ns": self.faulty_ns,
            "slowdown": round(self.slowdown, 3),
            "retries": self.faults.get("retries", 0),
            "giveups": self.faults.get("giveups", 0),
            "breaker_trips": self.faults.get("breaker_trips", 0),
            "degrades": len(self.degrades),
        }


def default_matrix(
    seeds=(1, 2), intensities=("light", "medium"), horizon_ns: float = 2e7
) -> list[FaultPlan]:
    """The standard plan matrix: |seeds| x |intensities| seeded plans.

    The horizon is sized so degradation windows actually overlap these
    small workloads' runtimes (~1e7 virtual ns under memory pressure).
    """
    return [
        FaultPlan.generate(seed, intensity=intensity, horizon_ns=horizon_ns)
        for intensity in intensities
        for seed in seeds
    ]


def _plan_intensity(plan: FaultPlan) -> str:
    for name, (loss, timeout, _) in FaultPlan.INTENSITIES.items():
        if plan.loss_prob == loss and plan.timeout_prob == timeout:
            return name
    return "custom"


def _make_runner(memo, workload, system, cost, local):
    """A closure running the workload once on ``system``; for Mira the
    controller plans once against a healthy machine and the planned
    program is reused for both runs -- the graceful-degradation scenario
    is the *runtime* adapting a plan the compiler made in good faith."""
    if system == "mira":
        controller = MiraController(
            memo.fresh,
            cost,
            local,
            data_init=workload.data_init,
            entry=workload.entry,
            max_iterations=1,
        )
        module = controller.optimize().module

        def run(plan, tracer):
            return run_plan(
                module,
                cost,
                local,
                data_init=workload.data_init,
                entry=workload.entry,
                tracer=tracer,
                faults=plan,
            )

        return run
    cls = BASELINE_SYSTEMS[system]

    def run(plan, tracer):
        return run_on_baseline(
            memo.module,
            cls(cost, local),
            workload.data_init,
            entry=workload.entry,
            tracer=tracer,
            faults=plan,
        )

    return run


def run_chaos_point(
    name: str,
    system: str,
    plan: FaultPlan,
    params: dict | None = None,
    ratio: float = 0.25,
    cost: CostModel | None = None,
    trace: bool = False,
) -> ChaosPoint:
    """One cell: healthy run, faulty run, verification, bookkeeping."""
    cost = cost or CostModel()
    workload = make_workload(name, **(params or CHAOS_WORKLOADS[name]))
    memo = ModuleMemo(workload)
    local = max(4096, int(memo.footprint_bytes * ratio))
    run = _make_runner(memo, workload, system, cost, local)
    healthy = run(None, None)
    tracer = Tracer(meta={"workload": name, "chaos_seed": plan.seed}) if trace else None
    faulty = run(plan, tracer)
    workload.verify_results(faulty.results)  # raises if the run corrupted data
    injector = faulty.memsys.network.faults
    return ChaosPoint(
        workload=name,
        system=system,
        seed=plan.seed,
        intensity=_plan_intensity(plan),
        completed=True,
        healthy_ns=healthy.elapsed_ns,
        faulty_ns=faulty.elapsed_ns,
        slowdown=(
            faulty.elapsed_ns / healthy.elapsed_ns if healthy.elapsed_ns else 1.0
        ),
        faults=vars(injector.stats).copy() if injector is not None else {},
        degrades=list(getattr(faulty.memsys, "degrade_log", [])),
        trace_digest=tracer.digest() if tracer is not None else None,
    )


def run_chaos_matrix(
    workloads=None,
    systems=("fastswap", "mira"),
    plans=None,
    ratio: float = 0.25,
    cost: CostModel | None = None,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
) -> tuple[list[ChaosPoint], list[str]]:
    """Sweep the matrix; returns ``(points, violations)``.

    ``violations`` holds one human-readable line per cell that failed to
    complete or blew past ``max_slowdown``; an empty list means the
    robustness criterion held everywhere.
    """
    points: list[ChaosPoint] = []
    violations: list[str] = []
    for name in workloads if workloads is not None else sorted(CHAOS_WORKLOADS):
        for system in systems:
            for plan in plans if plans is not None else default_matrix():
                try:
                    point = run_chaos_point(
                        name, system, plan, ratio=ratio, cost=cost
                    )
                except Exception as e:  # a crash is the worst violation
                    violations.append(
                        f"{name}/{system}/seed={plan.seed}: crashed: {e!r}"
                    )
                    continue
                points.append(point)
                if not point.ok(max_slowdown):
                    violations.append(
                        f"{name}/{system}/seed={plan.seed}: "
                        f"slowdown {point.slowdown:.2f}x exceeds "
                        f"{max_slowdown:.1f}x bound"
                    )
    return points, violations
