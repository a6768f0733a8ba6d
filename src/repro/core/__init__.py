"""Mira's controller: the paper's primary contribution, assembled.

* :mod:`repro.core.plan` -- the compilation/configuration plan;
* :mod:`repro.core.section_planner` -- profiling + analysis -> sections
  (sections 4.1, 4.2);
* :mod:`repro.core.size_solver` -- sampled overhead curves + ILP -> section
  sizes (section 4.3);
* :mod:`repro.core.pipeline` -- the pass pipeline producing compiled code
  (sections 4.4, 4.5);
* :mod:`repro.core.controller` -- the iterative profile -> analyze ->
  configure -> compile loop of Fig. 1, with rollback;
* :mod:`repro.core.runner` -- executes compiled programs on the Mira
  runtime (cache manager) or on any baseline.
"""

from repro.core.controller import CompiledProgram, MiraController
from repro.core.pipeline import ALL_OPTIONS, compile_program
from repro.core.plan import MiraPlan, SectionPlan
from repro.core.runner import run_on_baseline, run_plan
from repro.core.section_planner import plan_sections
from repro.core.size_solver import SizeSample, solve_sizes

__all__ = [
    "CompiledProgram",
    "MiraController",
    "ALL_OPTIONS",
    "compile_program",
    "MiraPlan",
    "SectionPlan",
    "run_on_baseline",
    "run_plan",
    "plan_sections",
    "SizeSample",
    "solve_sizes",
]
