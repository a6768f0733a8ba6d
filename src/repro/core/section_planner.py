"""Section planning: profiling results + program analysis -> cache
sections (paper sections 4.1-4.2).

The planner implements the scope-narrowing of section 4.1:

1. rank functions by profiled cache-performance overhead, take the top
   ``fraction`` (10% in the first iteration, 20% in the second, ...);
2. within those functions, take the largest ``fraction`` of accessed
   objects;
3. analyze their access patterns and group *similar* patterns into one
   section, different patterns into different sections;
4. configure each section's line size and structure from analysis, and
   sizes heuristically (the controller refines sizes by sampling + ILP).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.access import AccessPattern, AccessSummary, analyze_scope
from repro.analysis.alias import AliasAnalysis, AllocSite
from repro.analysis.locality import choose_line_size, choose_path, choose_structure
from repro.cache.config import SectionConfig, Structure
from repro.core.plan import MiraPlan, SectionPlan
from repro.ir.core import Module
from repro.ir.dialects import func as func_d
from repro.ir.dialects import scf
from repro.memsim.cost_model import CostModel
from repro.runtime.profiler import Profiler

#: leave at least this share of local memory to the swap section (stack,
#: code, unconverted objects)
SWAP_RESERVE = 0.05


@dataclass
class SiteChoice:
    site: AllocSite
    summary: AccessSummary
    #: True when some write could be shared across threads; affine writes
    #: inside scf.parallel partition the object (shared-nothing, section
    #: 4.6) and do not count
    shared_write: bool = False


def plan_sections(
    module: Module,
    cost: CostModel,
    local_mem_bytes: int,
    profiler: Profiler,
    fraction: float = 0.1,
    obj_fraction: float | None = None,
    num_threads: int = 0,
) -> MiraPlan:
    """Produce a plan from the previous iteration's profile."""
    obj_fraction = obj_fraction if obj_fraction is not None else fraction
    worst = profiler.worst_functions(fraction)
    worst = _with_callees(module, worst)
    if not worst:
        return MiraPlan.swap_only()
    choices = _select_objects(module, worst, obj_fraction)
    if not choices:
        return MiraPlan.swap_only()
    groups = _group_by_pattern(choices)
    budget = int(local_mem_bytes * (1.0 - SWAP_RESERVE))
    sections = _configure(groups, cost, budget, num_threads)
    plan = MiraPlan(
        sections=sections,
        converted_sites=[c.site.name for c in choices if c.site.name],
        notes={
            "fraction": fraction,
            "worst_functions": worst,
            "selected_objects": [str(c.site) for c in choices],
        },
    )
    return plan


def attach_prefetch_program(
    plan: MiraPlan, module: Module, entry: str = "main"
) -> dict:
    """Lower the module's affine page streams and inject them into the
    plan (3PO-style programmed prefetching, consumed by
    ``repro.prefetch.programmed.ProgrammedPolicy`` at run time).

    Idempotent: an already-attached program is returned unchanged, so the
    planner and the runner can both call this without re-lowering.
    """
    program = plan.notes.get("prefetch_program")
    if program is None:
        from repro.prefetch.programmed import lower_prefetch_program

        program = lower_prefetch_program(module, entry)
        plan.notes["prefetch_program"] = program
    return program


def _with_callees(module: Module, functions: list[str]) -> list[str]:
    """Selecting a function implicitly selects its callees (section 4.1)."""
    out = list(functions)
    work = list(functions)
    while work:
        name = work.pop()
        fn = module.functions.get(name)
        if fn is None:
            continue
        for op in fn.walk():
            if isinstance(op, func_d.CallOp) and op.callee not in out:
                out.append(op.callee)
                work.append(op.callee)
    return out


def _select_objects(
    module: Module, functions: list[str], obj_fraction: float
) -> list[SiteChoice]:
    """Largest objects accessed in the selected functions, with their
    merged access summaries."""
    alias = AliasAnalysis(module)
    per_site: dict[AllocSite, AccessSummary] = {}
    shared_write: dict[AllocSite, bool] = {}
    for fn_name in functions:
        fn = module.functions.get(fn_name)
        if fn is None:
            continue
        for loop in fn.walk():
            if not isinstance(loop, (scf.ForOp, scf.ParallelOp)):
                continue
            for site, summary in analyze_scope(loop, alias).items():
                if summary.writes:
                    from repro.analysis.scev import Affine

                    partitioned = summary.parallel_scope and all(
                        isinstance(r.scev, Affine)
                        for r in summary.records
                        if r.is_write
                    )
                    if not partitioned and not summary.parallel_scope:
                        # a sequential-scope write is private to the one
                        # thread executing it only if no parallel scope
                        # also writes; stay conservative when any
                        # non-partitioned write exists under threading
                        shared_write.setdefault(site, False)
                    if not partitioned and summary.parallel_scope:
                        shared_write[site] = True
                merged = per_site.get(site)
                if merged is None:
                    per_site[site] = summary
                else:
                    merged.records.extend(summary.records)
                    merged.parallel_scope |= summary.parallel_scope
    if not per_site:
        return []
    # re-classify merged summaries
    from repro.analysis.access import _classify

    for summary in per_site.values():
        _classify(summary, alias)
    # objects below a page are kept in the swap section (not worth a
    # section of their own)
    ranked = sorted(per_site.values(), key=lambda s: s.site.size_bytes, reverse=True)
    ranked = [s for s in ranked if s.site.size_bytes >= 4096]
    if not ranked:
        return []
    if len(ranked) <= 12:
        # small programs: analyze everything at once (the 10%-at-a-time
        # narrowing is for applications with hundreds of allocation sites)
        count = len(ranked)
    else:
        count = max(1, int(len(ranked) * obj_fraction))
        # any object that alone holds >=10% of the accessed footprint is
        # "large" in the paper's sense and joins regardless of the fraction
        total_bytes = sum(s.site.size_bytes for s in ranked) or 1
        while (
            count < len(ranked)
            and ranked[count].site.size_bytes >= 0.1 * total_bytes
        ):
            count += 1
    # always keep index-source arrays of chosen indirect objects: the
    # chained prefetch needs both converted
    chosen = ranked[:count]
    names = {c.site for c in chosen}
    for summary in list(chosen):
        for src in summary.index_sources:
            if src not in names and src in per_site:
                chosen.append(per_site[src])
                names.add(src)
    return [
        SiteChoice(s.site, s, shared_write=shared_write.get(s.site, False))
        for s in chosen
    ]


_PATTERN_CLASS = {
    AccessPattern.SEQUENTIAL: "stream",
    AccessPattern.STRIDED: "stream",
    AccessPattern.INVARIANT: "pinned",
    AccessPattern.INDIRECT: "indirect",
    AccessPattern.RANDOM: "random",
    AccessPattern.MIXED: "random",
}


def _group_by_pattern(choices: list[SiteChoice]) -> dict[str, list[SiteChoice]]:
    """Similar patterns share a section; different patterns get their own
    (multiple objects may land in one section, section 4.1).  Read-only
    and writable objects split so multi-threaded plans can make the
    read-only group thread-private (section 4.6)."""
    groups: dict[str, list[SiteChoice]] = defaultdict(list)
    for choice in choices:
        cls = _PATTERN_CLASS[choice.summary.pattern]
        rw = "ro" if choice.summary.read_only else "rw"
        groups[f"{cls}_{rw}"].append(choice)
    return dict(groups)


def _configure(
    groups: dict[str, list[SiteChoice]],
    cost: CostModel,
    budget: int,
    num_threads: int,
) -> list[SectionPlan]:
    """Initial (pre-ILP) section configs with heuristic sizes."""
    sections: list[SectionPlan] = []
    stream_plans: list[tuple[str, list[SiteChoice], int]] = []
    pinned_plans: list[tuple[str, list[SiteChoice], int]] = []
    other_plans: list[tuple[str, list[SiteChoice], int]] = []
    for cls, members in groups.items():
        line = max(choose_line_size(m.summary, cost) for m in members)
        if cls.startswith("pinned"):
            pinned_plans.append((cls, members, line))
        elif cls.startswith("stream"):
            # coarse range streams (layer loops) get one section per
            # object -- the paper's "separate matrices in different cache
            # sections" -- so independent streams never conflict
            coarse = [m for m in members if m.summary.max_granularity() > line]
            fine = [m for m in members if m.summary.max_granularity() <= line]
            for m in coarse:
                stream_plans.append(
                    (f"{cls}_{m.site.name or m.site.uid}", [m], line)
                )
            if fine:
                stream_plans.append((cls, fine, line))
        else:
            other_plans.append((cls, members, line))
    used = 0
    # pinned sections: small repeatedly-reused objects held entirely
    for cls, members, line in pinned_plans:
        size = sum(_round_up(m.site.size_bytes, line) for m in members)
        size = max(line, min(size, budget // 2))
        cfg = SectionConfig(
            name=f"sec_{cls}",
            size_bytes=size,
            line_size=line,
            structure=Structure.DIRECT,
            notes={"reason": "invariant reuse: pin locally"},
        )
        sections.append(_mk_plan(cfg, members, num_threads, cost))
        used += size
    # streaming sections, two-phase: first the prefetch-pipeline minimum
    # (~2.5 of the stream's range: current + prefetched next + dying
    # previous; a few lines for element streams), then leftover budget in
    # proportion to object footprints, capped at the objects themselves
    # (at full memory a stream section simply holds its whole object)
    mins: list[int] = []
    caps: list[int] = []
    for cls, members, line in stream_plans:
        max_touch = max(
            (m.summary.max_granularity() for m in members), default=line
        )
        obj_bytes = sum(_round_up(m.site.size_bytes, line) for m in members)
        if max_touch > line:
            mins.append(min(int(2.5 * max_touch), obj_bytes))
            caps.append(obj_bytes)
        else:
            # element streams gain nothing beyond the prefetch window;
            # leftover memory belongs to the other sections
            want = min(line * 8 * max(1, len(members)), obj_bytes)
            mins.append(want)
            caps.append(want)
    stream_budget = max(0, (budget if not other_plans else budget // 2) - used)
    total_min = sum(mins)
    scale = min(1.0, stream_budget / total_min) if total_min else 1.0
    desired = [max(1, int(m * scale)) for m in mins]
    leftover = stream_budget - sum(desired)
    if leftover > 0:
        headrooms = [c - d for c, d in zip(caps, desired)]
        total_head = sum(headrooms)
        if total_head > 0:
            grant = min(leftover, total_head)
            desired = [
                d + grant * h // total_head for d, h in zip(desired, headrooms)
            ]
    for (cls, members, line), want in zip(stream_plans, desired):
        size = max(line, want)
        coarse = any(m.summary.max_granularity() > line for m in members)
        cfg = SectionConfig(
            name=f"sec_{cls}",
            size_bytes=size,
            line_size=line,
            # element streams are conflict-free in a directly-mapped
            # section; coarse multi-range streams use low associativity so
            # prefetched lines displace dead lines, never live ones
            structure=Structure.SET_ASSOCIATIVE if coarse else Structure.DIRECT,
            ways=4 if coarse else 8,
        )
        sections.append(_mk_plan(cfg, members, num_threads, cost))
        used += size
    # non-streaming sections: share the remainder in proportion to the
    # object footprints, structure from locality analysis
    remaining = max(0, budget - used)
    total_obj = sum(
        sum(m.site.size_bytes for m in members) for _, members, _ in other_plans
    )
    for cls, members, line in other_plans:
        obj_bytes = sum(m.site.size_bytes for m in members)
        share = remaining if total_obj == 0 else int(remaining * obj_bytes / total_obj)
        share = max(line, min(share, _round_up(obj_bytes, line)))
        rep = max(members, key=lambda m: m.site.size_bytes)
        structure = choose_structure(rep.summary, share, line)
        fetch = None
        acc = rep.summary.accessed_bytes_per_elem()
        if acc < rep.site.elem_type.byte_size and line >= rep.site.elem_type.byte_size:
            # selective transmission: only the accessed fields travel,
            # over two-sided messages (section 4.7)
            elems_per_line = max(1, line // rep.site.elem_type.byte_size)
            fetch = max(1, acc * elems_per_line)
        cfg = SectionConfig(
            name=f"sec_{cls}",
            size_bytes=share,
            line_size=line,
            structure=structure.structure,
            ways=structure.ways,
            one_sided=fetch is None,
            fetch_bytes=fetch,
            notes={"reason": structure.reason},
        )
        sections.append(_mk_plan(cfg, members, num_threads, cost))
    return sections


def _mk_plan(
    cfg: SectionConfig,
    members: list[SiteChoice],
    num_threads: int,
    cost: CostModel | None = None,
) -> SectionPlan:
    per_thread = 0
    if num_threads > 1:
        if any(m.shared_write for m in members):
            # genuinely shared writable data: one conservative shared
            # section (fully associative, hints off, section 4.6)
            from dataclasses import replace

            cfg = replace(
                cfg,
                structure=Structure.FULLY_ASSOCIATIVE,
                shared=True,
                notes={**cfg.notes, "shared": True},
            )
        else:
            # read-only or shared-nothing (affine writes partitioned by
            # the parallel IV): private per-thread sections
            per_thread = num_threads
    # initial path for the hybrid system: swap only when *every* member's
    # analyzed pattern prefers it (a single indirect/reused member makes
    # the object path the safe default); plain runs ignore the field
    path = "object"
    if cost is not None and members:
        if all(choose_path(m.summary, cost) == "swap" for m in members):
            path = "swap"
    return SectionPlan(
        cfg, [m.site.name for m in members if m.site.name], per_thread, path
    )


def _round_up(n: int, multiple: int) -> int:
    return ((n + multiple - 1) // multiple) * multiple
