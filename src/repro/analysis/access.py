"""Per-scope access-pattern analysis (paper section 4.2).

For a loop (the analysis scope), every load/store/touch is attributed to
the allocation sites its reference may alias, its index is classified by
scalar evolution, and per-site summaries are combined into the pattern the
planner configures a cache section from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.alias import AliasAnalysis, AllocSite
from repro.analysis.scev import Affine, Indirect, Invariant, SCEV, Unknown, scev_of
from repro.ir.core import Function, Operation
from repro.ir.dialects import memref, rmem, scf


class AccessPattern(enum.Enum):
    SEQUENTIAL = "sequential"
    STRIDED = "strided"
    INDIRECT = "indirect"
    INVARIANT = "invariant"
    RANDOM = "random"  # unknown / unclassifiable (sound fallback)
    MIXED = "mixed"


@dataclass
class AccessRecord:
    """One memory operation within the scope."""

    op: Operation
    site: AllocSite
    scev: SCEV
    is_write: bool
    field: str | None
    #: bytes per access (element, field, or touch length)
    granularity: int


@dataclass
class AccessSummary:
    """Everything the planner needs to know about one object in one scope."""

    site: AllocSite
    records: list[AccessRecord] = field(default_factory=list)
    pattern: AccessPattern = AccessPattern.RANDOM
    stride_elems: int | None = None
    #: for INDIRECT: the alloc sites of the array(s) the index is loaded from
    index_sources: list[AllocSite] = field(default_factory=list)
    #: scope is an scf.parallel whose iterations partition the object:
    #: affine writes there are shared-nothing, not shared (section 4.6)
    parallel_scope: bool = False

    @property
    def reads(self) -> int:
        return sum(1 for r in self.records if not r.is_write)

    @property
    def writes(self) -> int:
        return sum(1 for r in self.records if r.is_write)

    @property
    def read_only(self) -> bool:
        return self.writes == 0 and self.reads > 0

    @property
    def write_only(self) -> bool:
        return self.reads == 0 and self.writes > 0

    def fields_accessed(self) -> set[str | None]:
        return {r.field for r in self.records}

    def accessed_bytes_per_elem(self) -> int:
        """Bytes of one element actually touched (selective transmission:
        the sum of accessed field sizes, capped at the element size)."""
        fields = self.fields_accessed()
        if None in fields:
            return self.site.elem_type.byte_size
        total = sum(self.site.elem_type.field_type(f).byte_size for f in fields)
        return min(total, self.site.elem_type.byte_size)

    def max_granularity(self) -> int:
        return max((r.granularity for r in self.records), default=0)


#: loop-like scopes the analyses understand
LOOP_OPS = (scf.ForOp, scf.ParallelOp)


def analyze_scope(
    loop: "scf.ForOp | scf.ParallelOp", alias: AliasAnalysis
) -> dict[AllocSite, AccessSummary]:
    """Analyze all memory operations in (and nested under) ``loop``."""
    is_parallel = isinstance(loop, scf.ParallelOp)
    summaries: dict[AllocSite, AccessSummary] = {}
    for op in loop.walk():
        rec_info = _record_of(op, loop, alias)
        if rec_info is None:
            continue
        ref_value, index_scev, is_write, fld, gran = rec_info
        for site in alias.points_to(ref_value):
            rec = AccessRecord(op, site, index_scev, is_write, fld, gran)
            summary = summaries.setdefault(
                site, AccessSummary(site, parallel_scope=is_parallel)
            )
            summary.records.append(rec)
    for summary in summaries.values():
        _classify(summary, alias)
    return summaries


def _record_of(op: Operation, loop: scf.ForOp, alias: AliasAnalysis):
    if op.attrs.get("prefetch_stage"):
        return None  # compiler-inserted helper, not program behaviour
    if isinstance(op, (memref.LoadOp, rmem.RLoadOp)):
        gran = _gran(op)
        return op.ref, scev_of(op.index, loop), False, op.field, gran
    if isinstance(op, (memref.StoreOp, rmem.RStoreOp)):
        gran = _gran(op)
        return op.ref, scev_of(op.index, loop), True, op.field, gran
    if isinstance(op, (memref.TouchOp, rmem.RTouchOp)):
        return op.ref, scev_of(op.start, loop), op.is_write, None, op.length
    return None


def _gran(op) -> int:
    ref_type = op.ref.type
    if op.field is None:
        return ref_type.elem.byte_size
    return ref_type.elem.field_type(op.field).byte_size


def _classify(summary: AccessSummary, alias: AliasAnalysis) -> None:
    kinds: set[str] = set()
    strides: set[int] = set()
    sources: list[AllocSite] = []
    for rec in summary.records:
        s = rec.scev
        if isinstance(s, Affine):
            if s.coeff == 0:
                kinds.add("invariant")
            elif abs(s.coeff) == 1:
                kinds.add("sequential")
                strides.add(s.coeff)
            else:
                kinds.add("strided")
                strides.add(s.coeff)
        elif isinstance(s, Indirect):
            kinds.add("indirect")
            for src in alias.points_to(s.source_load.operands[0]):
                if src not in sources:
                    sources.append(src)
        elif isinstance(s, Invariant):
            kinds.add("invariant")
        else:
            kinds.add("random")
    summary.index_sources = sources
    effective = kinds - {"invariant"} or kinds
    if len(effective) == 1:
        summary.pattern = {
            "sequential": AccessPattern.SEQUENTIAL,
            "strided": AccessPattern.STRIDED,
            "indirect": AccessPattern.INDIRECT,
            "invariant": AccessPattern.INVARIANT,
            "random": AccessPattern.RANDOM,
        }[next(iter(effective))]
    elif effective <= {"sequential", "strided"}:
        summary.pattern = AccessPattern.STRIDED
    else:
        summary.pattern = AccessPattern.MIXED
    if len(strides) == 1:
        summary.stride_elems = next(iter(strides))


def top_level_loops(fn: Function) -> list[scf.ForOp]:
    """Loops directly in the function body (the usual analysis scopes)."""
    return [op for op in fn.body.ops if isinstance(op, scf.ForOp)]
