"""Replaying raw address streams through the simulated memory systems.

This is the no-IR datapath: ops go straight from a generator or an
imported trace file into a :class:`~repro.cache.interface.MemorySystem`,
with the replayer standing in for the interpreter's uniform per-access
charges (one DRAM access + one CPU op per event, the same constants the
IR datapath pays around each ``memref`` touch).  Everything downstream --
swap sections, cache sections, prefetch policies, the virtual clock --
is the exact production code the IR workloads exercise, so a trace
measured here is comparable with the figure sweeps.

Address translation: the trace's flat byte addresses are covered by one
simulated object per contiguous region (``regions_from_ops`` splits on
gaps > 64 pages so a sparse trace does not allocate its whole span).
Accesses outside every region, or straddling past a region's end, raise
the same typed :class:`~repro.errors.MemoryError_` the IR path raises --
never ``KeyError``.

The stream is never materialised: ``replay_ops`` hands its op iterator to
``MemorySystem.stream_access`` once per run of ops in one region (the
fold walker on a cache manager), and the per-op loop takes each run's
first op and everything a system declines.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat, tee
from operator import itemgetter, sub
from typing import Iterable

from repro.baselines import AIFM, FastSwap, Leap, NativeMemory
from repro.cache.config import SectionConfig, Structure
from repro.cache.hybrid import HybridManager
from repro.cache.manager import CacheManager
from repro.errors import MemoryError_, TraceError
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel
from repro.workloads.trace.generators import ACCESS_BYTES, SCENARIOS, ScenarioSpec

#: regions split where the address stream leaves a hole larger than this
REGION_GAP_PAGES = 64

#: AIFM remotable-object granularity for trace regions: 256-byte chunks
#: keep per-object metadata sane for megabyte regions (a trace has no
#: element structure to derive the granularity from)
AIFM_CHUNK_BYTES = 256

#: every system name ``make_system`` accepts (the benchmark matrix)
TRACE_SYSTEMS = (
    "fastswap",
    "leap",
    "aifm",
    "mira-direct",
    "mira-set",
    "mira-full",
)

#: an op's address and write flag, and the two as a pair, whatever else
#: the op carries
_ADDR, _WRITE, _PAIR = itemgetter(0), itemgetter(1), itemgetter(0, 1)

_MIRA_STRUCTURES = {
    "mira-direct": Structure.DIRECT,
    "mira-set": Structure.SET_ASSOCIATIVE,
    "mira-full": Structure.FULLY_ASSOCIATIVE,
}


def regions_from_ops(ops: Iterable[tuple]) -> list[tuple[int, int]]:
    """Contiguous ``(base, size)`` byte regions covering an op stream.

    One streaming pass collects the touched page set, then sorted pages
    are grouped into runs separated by gaps > :data:`REGION_GAP_PAGES`.
    Regions are page-aligned and include every touched page whole.
    """
    pages: set[int] = set()
    for op in ops:
        addr = op[0]
        if addr < 0:
            raise TraceError(f"negative trace address {addr}")
        pages.add(addr // PAGE_SIZE)
        pages.add((addr + ACCESS_BYTES - 1) // PAGE_SIZE)
    if not pages:
        return []
    ordered = sorted(pages)
    regions: list[tuple[int, int]] = []
    start = prev = ordered[0]
    for page in ordered[1:]:
        if page - prev > REGION_GAP_PAGES:
            regions.append((start * PAGE_SIZE, (prev - start + 1) * PAGE_SIZE))
            start = page
        prev = page
    regions.append((start * PAGE_SIZE, (prev - start + 1) * PAGE_SIZE))
    return regions


def make_system(
    system: str,
    local_mem_bytes: int,
    cost: CostModel | None = None,
    policy=None,
):
    """Build one of :data:`TRACE_SYSTEMS` (plus ``"native"`` and
    ``"hybrid"``) for replay.

    The three ``mira-*`` geometries are the CacheManager with one cache
    section per structure kind sized at 3/4 of local memory (256-byte
    lines), the remainder backing the swap section -- the standing
    configuration a Mira plan would produce for a single hot region.
    ``policy`` attaches a prefetch policy to the swap-path systems.
    """
    cost = cost or CostModel.rdma()
    if system == "native":
        return NativeMemory(cost, local_mem_bytes)
    if system == "fastswap":
        return FastSwap(cost, local_mem_bytes, policy=policy)
    if system == "leap":
        # pin the classic majority-trend policy unless overridden: replay
        # results must not depend on the $REPRO_PREFETCH environment
        return Leap(cost, local_mem_bytes, policy=policy or "leap")
    if system == "aifm":
        return AIFM(cost, local_mem_bytes)
    if system == "hybrid":
        # the path switcher starts every region on the swap path (a raw
        # trace carries no plan-time signals) with a standing mira-set
        # shaped group to promote into when the windowed signals say so
        manager = HybridManager(cost, local_mem_bytes, policy=policy)
        line = 256
        size = max(line, (local_mem_bytes * 3 // 4) // line * line)
        manager.plan_group(
            SectionConfig(
                name="trace",
                size_bytes=size,
                line_size=line,
                structure=Structure.SET_ASSOCIATIVE,
            ),
            ["*"],
            path="swap",
        )
        return manager
    structure = _MIRA_STRUCTURES.get(system)
    if structure is None:
        raise TraceError(
            f"unknown trace system {system!r}; expected one of "
            f"{TRACE_SYSTEMS + ('native', 'hybrid')}"
        )
    manager = CacheManager(cost, local_mem_bytes, policy=policy)
    line = 256
    size = max(line, (local_mem_bytes * 3 // 4) // line * line)
    manager.open_section(
        SectionConfig(
            name="trace",
            size_bytes=size,
            line_size=line,
            structure=structure,
        ),
        [],
    )
    return manager


@dataclass
class TraceRunResult:
    """Outcome of replaying one op stream on one system."""

    scenario: str
    system: str
    elapsed_ns: float
    num_ops: int
    footprint_bytes: int
    local_mem_bytes: int
    #: per-section counter dicts (CacheManager shape; ``{"swap": ...}``
    #: for the page-swap systems, ``{}`` for native)
    sections: dict = field(default_factory=dict)
    breakdown: dict = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        acc = sum(s.get("accesses", 0) for s in self.sections.values())
        if not acc:
            return 0.0
        return sum(s.get("misses", 0) for s in self.sections.values()) / acc


def system_counters(system) -> dict:
    """Per-section hit/miss/eviction counters in one uniform shape."""
    if hasattr(system, "collect_section_stats"):
        return system.collect_section_stats()
    if hasattr(system, "swap_stats"):  # AIFM
        return {"aifm": vars(system.swap_stats).copy()}
    return {}


def replay_ops(
    system,
    ops: Iterable[tuple],
    regions: list[tuple[int, int]],
    assign_section: str | None = None,
) -> int:
    """Drive an op stream through a built system; returns the op count.

    Allocates one object per region (``trace_region_<k>``), then replays
    each ``(addr, is_write[, tid])`` as an 8-byte access with the
    interpreter's uniform DRAM + CPU charge.  ``assign_section`` moves
    every region object into that cache section first (the mira-* path).
    ``ops`` is any iterable; two columns zipped (``zip(addrs, writes)``)
    reach the walker as they stand, any other stream through a
    translation that runs in C.
    """
    if not regions:
        raise TraceError("cannot replay an empty trace (no regions)")
    bases: list[int] = []
    objs: list = []
    for k, (base, size) in enumerate(regions):
        obj = system.allocate(
            size,
            elem_size=ACCESS_BYTES,
            name=f"trace_region_{k}",
            attrs={"aifm_obj_bytes": AIFM_CHUNK_BYTES},
        )
        if assign_section is not None:
            system.assign(obj.obj_id, assign_section)
        bases.append(base)
        objs.append(obj)
    dram_ns = system.cost.dram_access_ns
    cpu_ns = system.cost.cpu_op_ns
    it = iter(ops)
    count = 0
    op = next(it, None)
    while op is not None:
        # a run's first op goes per op: it is applied (or raises the
        # canonical error, every earlier op applied) and names the run's
        # region; the stream entry then takes ops until one leaves it
        count += _replay_per_op(system, (op,), bases, objs)
        idx = bisect_right(bases, op[0]) - 1
        base = bases[idx]
        # the walker unpacks ``(offset, write)`` pairs.  Two columns zipped
        # at base 0 yield them as they stand; any other stream is
        # translated op by op in C, whatever its ops' arity: no Python
        # frame per op
        if base:
            addrs, flags = tee(it)
            stream = zip(map(sub, map(_ADDR, addrs), repeat(base)), map(_WRITE, flags))
        elif len(op) == 2 and type(ops) is zip:
            stream = it
        else:
            stream = map(_PAIR, it)
        walked = system.stream_access(
            objs[idx].obj_id, stream, ACCESS_BYTES, dram_ns, cpu_ns, 0.0
        )
        if walked is None:
            # what makes a system decline (no stream path, a listener, a
            # fault plan) does not change while a stream replays: the rest
            # goes per op
            count += _replay_per_op(system, it, bases, objs)
            break
        taken, op = walked
        count += taken
        if op is not None and base:
            op = (op[0] + base, op[1])
    system.clock.flush()
    return count


def _replay_per_op(system, ops: Iterable[tuple], bases: list[int], objs: list) -> int:
    """The per-op replay loop: translate, charge, access.  The reference
    for the stream path above, which it also serves with each run's first
    op, and the only path for the systems that decline it."""
    clock = system.clock
    dram_ns = system.cost.dram_access_ns
    cpu_ns = system.cost.cpu_op_ns
    # cache the last region: real traces have long runs of locality
    last_idx = 0
    last_base, last_obj = bases[0], objs[0]
    last_end = last_base + last_obj.size
    count = 0
    for op in ops:
        addr = op[0]
        if not last_base <= addr < last_end:
            idx = bisect_right(bases, addr) - 1
            if idx < 0:
                raise MemoryError_(
                    f"trace address {addr:#x} is below every mapped region"
                )
            last_idx = idx
            last_base, last_obj = bases[idx], objs[idx]
            last_end = last_base + last_obj.size
            if addr >= last_end:
                raise MemoryError_(
                    f"trace address {addr:#x} falls in the gap after region "
                    f"{last_idx} ([{last_base:#x}, {last_end:#x}))"
                )
        off = addr - last_base
        if off + ACCESS_BYTES > last_obj.size:
            # delegate to the address space for the canonical straddle error
            system.address_space.resolve(last_obj.base_va + off, ACCESS_BYTES)
        clock.advance(dram_ns, "dram")
        clock.charge(cpu_ns)
        system.access(last_obj.obj_id, off, ACCESS_BYTES, bool(op[1]))
        count += 1
    return count


def run_scenario(
    scenario: ScenarioSpec | str,
    system: str = "fastswap",
    ratio: float = 0.5,
    cost: CostModel | None = None,
    policy=None,
    tracer=None,
) -> TraceRunResult:
    """Replay one named/spec'd scenario on one system at a local-memory
    ratio of its footprint; the standard cell of the trace benchmark.

    ``tracer`` optionally attaches a :class:`repro.obs.Tracer` -- built
    with ``access_log=True`` it captures a self-replayable op log of the
    run (see :mod:`repro.workloads.trace.selfreplay`).
    """
    if isinstance(scenario, str):
        try:
            scenario = SCENARIOS[scenario]
        except KeyError:
            raise TraceError(f"unknown scenario {scenario!r}") from None
    footprint = scenario.footprint_bytes
    local = max(4 * PAGE_SIZE, int(footprint * ratio))
    sys_obj = make_system(system, local, cost=cost, policy=policy)
    if tracer is not None:
        sys_obj.set_tracer(tracer)
    assign = "trace" if system in _MIRA_STRUCTURES else None
    count = replay_ops(
        sys_obj, scenario.ops(), [(0, footprint)], assign_section=assign
    )
    return TraceRunResult(
        scenario=scenario.name,
        system=system,
        elapsed_ns=sys_obj.clock.now,
        num_ops=count,
        footprint_bytes=footprint,
        local_mem_bytes=local,
        sections=system_counters(sys_obj),
        breakdown=sys_obj.clock.breakdown(),
    )


def run_imported(
    ops: list[tuple],
    name: str = "imported",
    system: str = "fastswap",
    ratio: float = 0.5,
    cost: CostModel | None = None,
    policy=None,
    tracer=None,
) -> TraceRunResult:
    """Replay an imported (materialized) op list: regions are discovered
    from the stream itself, local memory is a ratio of their total size."""
    regions = regions_from_ops(ops)
    footprint = sum(size for _, size in regions)
    local = max(4 * PAGE_SIZE, int(footprint * ratio))
    sys_obj = make_system(system, local, cost=cost, policy=policy)
    if tracer is not None:
        sys_obj.set_tracer(tracer)
    assign = "trace" if system in _MIRA_STRUCTURES else None
    count = replay_ops(sys_obj, ops, regions, assign_section=assign)
    return TraceRunResult(
        scenario=name,
        system=system,
        elapsed_ns=sys_obj.clock.now,
        num_ops=count,
        footprint_bytes=footprint,
        local_mem_bytes=local,
        sections=system_counters(sys_obj),
        breakdown=sys_obj.clock.breakdown(),
    )
