"""Section-size selection via sampling + ILP (paper section 4.3).

For each section we sample a few candidate sizes and profile the section's
cache performance overhead at each.  We then solve an integer linear
program: pick exactly one sampled size per section, minimizing total
overhead, subject to every group of concurrently-live sections fitting the
local-memory budget.

The ILP uses ``scipy.optimize.milp``, imported on the solver's first call
so that importing ``repro`` loads no numerical stack; a brute-force solver
cross-checks it in tests and serves as a fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import SolverError

#: default sampling ratios of the local-memory budget (paper: "we sample a
#: few section sizes as ratios of total local memory size")
DEFAULT_RATIOS = (0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
class SizeSample:
    """One sampled (size, profiled overhead) point for a section."""

    size_bytes: int
    overhead_ns: float


def solve_sizes(
    curves: dict[str, list[SizeSample]],
    budget_bytes: int,
    live_groups: list[set[str]] | None = None,
) -> dict[str, int]:
    """Pick one sampled size per section minimizing total overhead.

    ``live_groups``: sets of sections alive at the same time; each group's
    chosen sizes must sum within the budget.  Default: all concurrent.
    """
    names = sorted(curves)
    if not names:
        return {}
    for name in names:
        if not curves[name]:
            raise SolverError(f"section {name!r} has no size samples")
    if live_groups is None:
        live_groups = [set(names)]
    try:
        return _solve_milp(curves, names, budget_bytes, live_groups)
    except SolverError:
        return solve_sizes_bruteforce(curves, budget_bytes, live_groups)


def _solve_milp(
    curves: dict[str, list[SizeSample]],
    names: list[str],
    budget_bytes: int,
    live_groups: list[set[str]],
) -> dict[str, int]:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    # variables: x[s][k] in {0,1}, one per (section, sample).  HiGHS
    # accepts any pick within an absolute gap of the optimum, so each
    # section's costs are shifted to start at 0 and scaled until the
    # smallest non-zero one is 1: a cheaper pick is never inside the gap
    index: dict[tuple[str, int], int] = {}
    costs: list[float] = []
    for name in names:
        low = min(sample.overhead_ns for sample in curves[name])
        for k, sample in enumerate(curves[name]):
            index[(name, k)] = len(costs)
            costs.append(sample.overhead_ns - low)
    n = len(costs)
    unit = min((cost for cost in costs if cost > 0), default=1.0)
    if not max(costs) / unit < 1e15:  # a span HiGHS cannot hold exactly
        raise SolverError("size ILP: overheads span too many orders of magnitude")
    constraints = []
    # exactly one size per section
    for name in names:
        row = np.zeros(n)
        for k in range(len(curves[name])):
            row[index[(name, k)]] = 1.0
        constraints.append(LinearConstraint(row, 1.0, 1.0))
    # each live group fits the budget
    for group in live_groups:
        row = np.zeros(n)
        for name in group:
            if name not in curves:
                continue
            for k, sample in enumerate(curves[name]):
                row[index[(name, k)]] = float(sample.size_bytes)
        constraints.append(LinearConstraint(row, 0.0, float(budget_bytes)))
    res = milp(
        c=np.array(costs) / unit,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        constraints=constraints,
        options={"mip_rel_gap": 0},
    )
    if not res.success or res.x is None:
        raise SolverError(f"size ILP infeasible: {res.message}")
    out: dict[str, int] = {}
    for (name, k), i in index.items():
        if res.x[i] > 0.5:
            out[name] = curves[name][k].size_bytes
    return out


def solve_sizes_bruteforce(
    curves: dict[str, list[SizeSample]],
    budget_bytes: int,
    live_groups: list[set[str]] | None = None,
) -> dict[str, int]:
    """Exhaustive reference solver (exponential; for tests/small inputs)."""
    names = sorted(curves)
    if not names:
        return {}
    if live_groups is None:
        live_groups = [set(names)]
    combos = 1
    for name in names:
        combos *= len(curves[name])
    if combos > 2_000_000:
        raise SolverError(f"brute-force space too large ({combos} combos)")
    best_choice = None
    best_cost = float("inf")
    for picks in itertools.product(*(range(len(curves[n])) for n in names)):
        choice = {n: curves[n][k] for n, k in zip(names, picks)}
        feasible = all(
            sum(choice[n].size_bytes for n in g if n in choice) <= budget_bytes
            for g in live_groups
        )
        if not feasible:
            continue
        total = sum(s.overhead_ns for s in choice.values())
        if total < best_cost:
            best_cost = total
            best_choice = {n: s.size_bytes for n, s in choice.items()}
    if best_choice is None:
        raise SolverError(
            f"no feasible size assignment within {budget_bytes} bytes"
        )
    return best_choice


def candidate_sizes(
    budget_bytes: int,
    line_size: int,
    streaming: bool,
    object_bytes: int,
    ratios: tuple[float, ...] = DEFAULT_RATIOS,
) -> list[int]:
    """Candidate sizes to sample for one section.

    Streaming (sequential/strided) sections only need enough lines to hold
    the prefetch window, so we sample a few small multiples of the line
    size; other sections sample ratios of the budget (capped at the object
    footprint -- more cache than data is wasted).
    """
    if streaming:
        sizes = [line_size * k for k in (4, 16, 64)]
    else:
        sizes = [max(line_size, int(budget_bytes * r)) for r in ratios]
    cap = max(line_size, _round_up(object_bytes, line_size))
    sizes = sorted({min(max(s, line_size), cap) for s in sizes})
    return sizes


def _round_up(n: int, multiple: int) -> int:
    return ((n + multiple - 1) // multiple) * multiple
