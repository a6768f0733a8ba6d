"""Shared experiment harness.

All figures report *normalized performance* = native virtual time /
system virtual time on the same program and data (higher is better,
1.0 = no far-memory penalty).  AIFM's allocation failures (Fig. 18) are
recorded as ``failed`` points rather than exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import AIFM, FastSwap, Leap, NativeMemory
from repro.core import MiraController, run_on_baseline, run_plan
from repro.core.pipeline import footprint_bytes as _module_footprint
from repro.errors import AllocationError
from repro.ir.core import Module
from repro.memsim.cost_model import CostModel
from repro.runtime.interpreter import RunResult
from repro.workloads.base import Workload

BASELINE_SYSTEMS = {
    "fastswap": FastSwap,
    "leap": Leap,
    "aifm": AIFM,
}


class ModuleMemo:
    """Per-sweep cache of a workload's built module and footprint.

    Baseline runs never mutate IR, so they can all share one built module
    (``.module``); the Mira pipeline rewrites the module in place, so it
    gets a clone of the pristine copy via ``.fresh``.  This turns the
    O(points) repeated ``build_module()``/``footprint_bytes()`` calls of a
    sweep into one build.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._module: Module | None = None
        self._footprint: int | None = None

    @property
    def module(self) -> Module:
        if self._module is None:
            self._module = self.workload.build_module()
        return self._module

    def fresh(self) -> Module:
        """A private copy for pipelines that mutate the module."""
        return self.module.clone()

    @property
    def footprint_bytes(self) -> int:
        if self._footprint is None:
            self._footprint = _module_footprint(self.module)
        return self._footprint


@dataclass
class ExperimentPoint:
    system: str
    local_ratio: float
    normalized_perf: float | None  # None = failed to run
    elapsed_ns: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.normalized_perf is None


def effective_ns(result: RunResult) -> float:
    """Measured time of a run: the ``measured`` profiling region when the
    workload marks one (steady state, excluding warm-up), else the whole
    run."""
    return result.profiler.regions.get("measured", result.elapsed_ns)


def native_time_ns(
    workload: Workload, cost: CostModel, memo: ModuleMemo | None = None
) -> float:
    """Native all-local run; also validates workload correctness."""
    if memo is None:
        memo = ModuleMemo(workload)
    result = run_on_baseline(
        memo.module,
        NativeMemory(cost, 2 * memo.footprint_bytes + (1 << 20)),
        workload.data_init,
        entry=workload.entry,
    )
    workload.verify_results(result.results)
    return effective_ns(result)


def system_point(
    workload: Workload,
    system_name: str,
    cost: CostModel,
    local_ratio: float,
    native_ns: float,
    num_threads: int = 1,
    memo: ModuleMemo | None = None,
) -> ExperimentPoint:
    """Run one baseline system at one local-memory ratio."""
    if memo is None:
        memo = ModuleMemo(workload)
    local = max(4096, int(memo.footprint_bytes * local_ratio))
    cls = BASELINE_SYSTEMS[system_name]
    kwargs = {} if system_name == "aifm" else {"num_threads": num_threads}
    try:
        result = run_on_baseline(
            memo.module,
            cls(cost, local, **kwargs),
            workload.data_init,
            entry=workload.entry,
        )
        workload.verify_results(result.results)
    except AllocationError as e:
        return ExperimentPoint(system_name, local_ratio, None, extra={"error": str(e)})
    ns = effective_ns(result)
    return ExperimentPoint(
        system_name,
        local_ratio,
        native_ns / ns,
        ns,
        extra={"metadata_bytes": result.memsys.metadata_bytes()},
    )


def mira_point(
    workload: Workload,
    cost: CostModel,
    local_ratio: float,
    native_ns: float,
    max_iterations: int = 2,
    sample_sizes: bool = False,
    num_threads: int = 1,
    memo: ModuleMemo | None = None,
) -> tuple[ExperimentPoint, "MiraController | None"]:
    """Run the full Mira controller at one ratio; returns the point and
    the compiled program (for deep-dive figures)."""
    if memo is None:
        memo = ModuleMemo(workload)
    local = max(4096, int(memo.footprint_bytes * local_ratio))
    # the transform pipeline mutates modules, so the controller builds
    # from clones of the memo's pristine copy
    controller = MiraController(
        memo.fresh,
        cost,
        local,
        data_init=workload.data_init,
        entry=workload.entry,
        max_iterations=max_iterations,
        sample_sizes=sample_sizes,
        num_threads=num_threads,
    )
    program = controller.optimize()
    final = run_plan(
        program.module,
        cost,
        local,
        data_init=workload.data_init,
        entry=workload.entry,
        num_threads=num_threads,
    )
    workload.verify_results(final.results)
    ns = effective_ns(final)
    point = ExperimentPoint(
        "mira",
        local_ratio,
        native_ns / ns,
        ns,
        extra={
            "sections": [sp.config.name for sp in program.plan.sections],
            "metadata_bytes": max(
                final.memsys.peak_metadata_bytes, final.memsys.metadata_bytes()
            ),
        },
    )
    return point, program


def one_point(
    workload: Workload,
    system: str,
    cost: CostModel,
    ratio: float,
    native_ns: float,
    max_iterations: int = 2,
    num_threads: int = 1,
    memo: ModuleMemo | None = None,
) -> ExperimentPoint:
    """One (system, ratio) point of a sweep: the Mira controller or a
    baseline."""
    if system == "mira":
        point, _ = mira_point(
            workload,
            cost,
            ratio,
            native_ns,
            max_iterations=max_iterations,
            num_threads=num_threads,
            memo=memo,
        )
        return point
    return system_point(
        workload, system, cost, ratio, native_ns, num_threads, memo=memo
    )
