"""Object lifetime analysis (paper sections 4.2/4.3).

Linearizes each function's ops (pre-order walk) and records, per
allocation site, the interval between its first and last access.  The
section-size ILP uses interval overlap as its "live at the same time"
constraint; the eviction-hint pass uses last-access positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.alias import AliasAnalysis, AllocSite
from repro.ir.core import Function, Module, Operation
from repro.ir.dialects import memref, rmem


@dataclass
class LifetimeInterval:
    site: AllocSite
    first_index: int
    last_index: int
    first_op: Operation
    last_op: Operation

    def overlaps(self, other: "LifetimeInterval") -> bool:
        return self.first_index <= other.last_index and (
            other.first_index <= self.last_index
        )


_ACCESS_OPS = (
    memref.LoadOp,
    memref.StoreOp,
    memref.TouchOp,
    rmem.RLoadOp,
    rmem.RStoreOp,
    rmem.RTouchOp,
)


class LifetimeAnalysis:
    """Per-function lifetime intervals for every allocation site."""

    def __init__(self, module: Module, alias: AliasAnalysis) -> None:
        self.module = module
        self.alias = alias
        #: function name -> site -> interval
        self.intervals: dict[str, dict[AllocSite, LifetimeInterval]] = {}
        for fn in module.functions.values():
            self.intervals[fn.name] = self._analyze(fn)

    def _analyze(self, fn: Function) -> dict[AllocSite, LifetimeInterval]:
        """Intervals are at *top-level statement* granularity: everything
        inside one top-level loop is concurrent (the loop interleaves its
        body's accesses)."""
        out: dict[AllocSite, LifetimeInterval] = {}
        for stmt_idx, stmt in enumerate(fn.body.ops):
            for op in stmt.walk():
                if not isinstance(op, _ACCESS_OPS):
                    continue
                ref = op.ref
                for site in self.alias.points_to(ref):
                    iv = out.get(site)
                    if iv is None:
                        out[site] = LifetimeInterval(site, stmt_idx, stmt_idx, op, op)
                    else:
                        iv.last_index = stmt_idx
                        iv.last_op = op
        return out

    def interval(self, fn_name: str, site: AllocSite) -> LifetimeInterval | None:
        return self.intervals.get(fn_name, {}).get(site)

    def concurrent_groups(self, fn_name: str) -> list[set[AllocSite]]:
        """Maximal groups of sites whose lifetimes pairwise overlap
        (cliques approximated by interval sweep -- exact for intervals)."""
        ivs = sorted(
            self.intervals.get(fn_name, {}).values(), key=lambda i: i.first_index
        )
        groups: list[set[AllocSite]] = []
        active: list[LifetimeInterval] = []
        for iv in ivs:
            active = [a for a in active if a.last_index >= iv.first_index]
            active.append(iv)
            groups.append({a.site for a in active})
        # keep only maximal groups
        maximal = []
        for g in groups:
            if not any(g < other for other in groups):
                if g not in maximal:
                    maximal.append(g)
        return maximal
