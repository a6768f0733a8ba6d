"""The iterative optimization controller (paper Fig. 1, section 3).

Each round:

1. run the current compilation (initially: everything in the generic swap
   section) with profiling instrumentation;
2. pick the top ``10% * iteration`` functions by cache performance
   overhead and the largest ``10% * iteration`` objects they access
   (section 4.1);
3. analyze those scopes, plan cache sections, optionally refine section
   sizes by sampling + ILP (section 4.3);
4. compile with the full pass pipeline and re-run;
5. keep the new configuration if it improved, otherwise roll back to the
   previous best (section 4.1: "we roll back to the previous iteration's
   configuration").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.pipeline import compile_program, footprint_bytes
from repro.core.plan import MiraPlan, SectionPlan
from repro.core.runner import run_plan
from repro.core.section_planner import SWAP_RESERVE, plan_sections
from repro.core.size_solver import SizeSample, candidate_sizes, solve_sizes
from repro.cache.config import Structure
from repro.errors import ConfigError, SolverError
from repro.ir.core import Module
from repro.ir.dialects import memref, remotable
from repro.ir.verifier import verify
from repro.memsim.cost_model import CostModel
from repro.runtime.interpreter import DataInit, RunResult


@dataclass
class IterationRecord:
    iteration: int
    fraction: float
    plan: MiraPlan
    elapsed_ns: float
    accepted: bool


@dataclass
class CompiledProgram:
    """The controller's final output."""

    module: Module
    plan: MiraPlan
    history: list[IterationRecord]
    swap_baseline_ns: float
    best_ns: float
    #: scope-reduction stats for the section 6.1 numbers
    functions_total: int = 0
    functions_analyzed: int = 0
    alloc_sites_total: int = 0
    alloc_sites_selected: int = 0

    @property
    def speedup_over_swap(self) -> float:
        return self.swap_baseline_ns / self.best_ns if self.best_ns else 0.0


class MiraController:
    """Drives profile -> analyze -> configure -> compile -> evaluate."""

    def __init__(
        self,
        build_module: Callable[[], Module],
        cost: CostModel,
        local_mem_bytes: int,
        data_init: DataInit | None = None,
        entry: str = "main",
        max_iterations: int = 3,
        sample_sizes: bool = False,
        num_threads: int = 1,
        min_gain: float = 0.02,
        tracer=None,
        faults=None,
    ) -> None:
        self.build_module = build_module
        self.cost = cost
        self.local_mem_bytes = local_mem_bytes
        self.data_init = data_init
        self.entry = entry
        self.max_iterations = max_iterations
        self.sample_sizes = sample_sizes
        self.num_threads = num_threads
        self.min_gain = min_gain
        #: optional :class:`repro.obs.Tracer`; traces every internal run
        #: and records one ``ctrl.iter`` event per optimization round
        self.tracer = tracer
        #: optional :class:`repro.faults.FaultPlan` applied to every
        #: internal run (each gets a fresh injector seeded from the plan,
        #: so iterations are mutually deterministic)
        self.faults = faults

    # -- main loop -----------------------------------------------------------

    def optimize(self) -> CompiledProgram:
        source = self.build_module()
        verify(source)
        history: list[IterationRecord] = []
        # iteration 0: generic swap, instrumented
        swap_plan = MiraPlan.swap_only()
        compiled = compile_program(source, swap_plan, self.cost, instrument=True)
        result = self._run(compiled)
        measured = self._measured_ns(result)
        history.append(IterationRecord(0, 0.0, swap_plan, measured, True))
        self._trace_iter(0, measured, True)
        best_module, best_plan = compiled, swap_plan
        best_ns = measured
        swap_ns = measured
        profiler = result.profiler
        analyzed: set[str] = set()
        selected_sites: set[str] = set()

        for k in range(1, self.max_iterations + 1):
            fraction = min(1.0, 0.1 * k)
            plan = plan_sections(
                source,
                self.cost,
                self.local_mem_bytes,
                profiler,
                fraction=fraction,
                num_threads=self.num_threads,
            )
            if not plan.sections:
                break
            if self.sample_sizes:
                plan = self._refine_sizes(source, plan)
            try:
                candidate = compile_program(source, plan, self.cost, instrument=True)
                # asked after compile_program, which finalises the plan's
                # section configs in place (as it did for every plan in
                # ``history``); ``<`` cannot accept the equal time, so a
                # repeated plan is recorded, not run, and the loop widens on
                seen = self._measured_round(history, plan)
                if seen is None:
                    result = self._run(candidate)
                    measured = self._measured_ns(result)
                else:
                    measured = seen.elapsed_ns
            except ConfigError:
                history.append(IterationRecord(k, fraction, plan, float("inf"), False))
                self._trace_iter(k, float("inf"), False)
                continue
            accepted = measured < best_ns
            history.append(IterationRecord(k, fraction, plan, measured, accepted))
            self._trace_iter(k, measured, accepted)
            analyzed.update(plan.notes.get("worst_functions", []))
            selected_sites.update(plan.converted_sites)
            if accepted:
                gain = (best_ns - measured) / best_ns
                best_module, best_plan, best_ns = candidate, plan, measured
                profiler = result.profiler
                if gain < self.min_gain:
                    break
            # on rejection: roll back (best_* unchanged) but keep widening
            # the analysis fraction next round, as the paper does

        final = compile_program(source, best_plan, self.cost, instrument=False)
        return CompiledProgram(
            module=final,
            plan=best_plan,
            history=history,
            swap_baseline_ns=swap_ns,
            best_ns=best_ns,
            functions_total=len(source.functions),
            functions_analyzed=len(analyzed),
            alloc_sites_total=self._count_sites(source),
            alloc_sites_selected=len(selected_sites),
        )

    # -- helpers --------------------------------------------------------------

    def _run(self, compiled: Module) -> RunResult:
        return run_plan(
            compiled,
            self.cost,
            self.local_mem_bytes,
            data_init=self.data_init,
            entry=self.entry,
            num_threads=self.num_threads,
            tracer=self.tracer,
            faults=self.faults,
        )

    @staticmethod
    def _measured_round(
        history: list[IterationRecord], plan: MiraPlan
    ) -> IterationRecord | None:
        """The earlier round that ran a plan with these decisions, if any:
        a run is a pure function of them, so its time is this plan's too.
        ``notes`` is provenance -- the fraction and the functions that led
        here -- and nothing ``compile_program`` or a controller run reads;
        a round that raised ``ConfigError`` measured nothing and is not
        matched."""
        decisions = replace(plan, notes={})
        for record in history:
            if record.elapsed_ns != float("inf") and decisions == replace(
                record.plan, notes={}
            ):
                return record
        return None

    def _trace_iter(self, k: int, measured: float, accepted: bool) -> None:
        tr = self.tracer
        if tr is not None:
            tr.emit("ctrl.iter", measured, it=k, measured=measured, accepted=accepted)

    @staticmethod
    def _measured_ns(result: RunResult) -> float:
        """Steady-state time when the workload marks a ``measured``
        region (warm-up excluded), else the whole run."""
        return result.profiler.regions.get("measured", result.elapsed_ns)

    @staticmethod
    def _count_sites(module: Module) -> int:
        return sum(
            1
            for op in module.walk()
            if isinstance(op, (memref.AllocOp, remotable.RAllocOp))
        )

    def _refine_sizes(self, source: Module, plan: MiraPlan) -> MiraPlan:
        """Sample per-section sizes and solve the ILP (section 4.3)."""
        budget = int(self.local_mem_bytes * (1.0 - SWAP_RESERVE))
        curves: dict[str, list[SizeSample]] = {}
        obj_sizes = self._object_sizes(source)
        for sp in plan.sections:
            streaming = sp.config.structure is Structure.DIRECT
            obj_bytes = sum(obj_sizes.get(n, 0) for n in sp.object_names)
            sizes = candidate_sizes(
                budget, sp.config.line_size, streaming, obj_bytes or budget
            )
            samples: list[SizeSample] = []
            for size in sizes:
                overhead = self._sample_overhead(source, plan, sp, size, budget)
                if overhead is not None:
                    samples.append(SizeSample(size, overhead))
            if samples:
                curves[sp.config.name] = samples
        if not curves:
            return plan
        try:
            chosen = solve_sizes(curves, budget)
        except SolverError:
            return plan
        new_sections = [
            sp.with_size(chosen[sp.config.name]) if sp.config.name in chosen else sp
            for sp in plan.sections
        ]
        return replace(plan, sections=new_sections, notes={**plan.notes, "ilp": chosen})

    def _sample_overhead(
        self,
        source: Module,
        plan: MiraPlan,
        target: SectionPlan,
        size: int,
        budget: int,
    ) -> float | None:
        """Run once with ``target`` at ``size`` (other sections minimal)
        and return the target section's profiled overhead."""
        sections = []
        for sp in plan.sections:
            if sp is target:
                sections.append(sp.with_size(size))
            else:
                sections.append(sp.with_size(sp.config.line_size * 8))
        if sum(s.config.size_bytes for s in sections) > budget:
            return None
        trial_plan = replace(plan, sections=sections)
        try:
            compiled = compile_program(source, trial_plan, self.cost)
            result = self._run(compiled)
        except ConfigError:
            return None
        group = result.memsys.section_group(target.config.name)
        if not group:
            return None
        return sum(sec.stats.overhead_ns + sec.stats.miss_wait_ns for sec in group)

    @staticmethod
    def _object_sizes(module: Module) -> dict[str, int]:
        out: dict[str, int] = {}
        for op in module.walk():
            if isinstance(op, (memref.AllocOp, remotable.RAllocOp)):
                if op.alloc_name:
                    out[op.alloc_name] = (
                        op.num_elems * op.result.type.elem.byte_size
                    )
        return out
