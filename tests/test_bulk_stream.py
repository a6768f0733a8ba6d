"""Differential test of the strided bulk path against its oracle.

``bulk_load`` / ``bulk_store`` (codegen's targets, DESIGN.md section 4f)
aggregate the known-hits of one line or page into one clock add, and that
one add is what the adds it replaces give: every duration is on the time
grid (DESIGN.md section 4, "Time is exact").  A float clock rounded here
-- on a small fractional clock, the first microseconds of a program, each
power of two passed took a low bit -- which is where the starts and
charges below come from; they are kept as plain twin comparisons.  The
oracle is the per-element loop codegen falls back to:
``clock.advance(dram, "dram"); access(...); clock.charge(cpu)``.
"""

from __future__ import annotations

import pytest

from repro.baselines import FastSwap, Leap
from repro.cache.config import SectionConfig, Structure
from repro.cache.manager import CacheManager
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel, grid

#: one page-long chunk
COUNT = PAGE_SIZE // 8
LOCAL = 1 << 16
#: per-element charges (dram, cpu); (100, 3) is what codegen's reduction
#: loop charges on the default cost model
CHARGES = [(50.0, 3.0), (80.0, 2.0), (100.0, 3.0), (120.0, 1.0)]
#: virtual ns already on the clock when the run starts, snapped to the
#: grid like everything a clock is given
STARTS = [pytest.param(grid(ns), id=str(ns)) for ns in (0.91, 3.27, 47.12)]


def _fastswap():
    system = FastSwap(CostModel(), LOCAL)
    return system, system.allocate(PAGE_SIZE, elem_size=8, name="o").obj_id


def _leap(policy):
    """Leap under a policy whose ``record`` ignores repeats: the
    chunk-first element takes the fault path and the policy hook, the
    known-hits (all repeats of its page) stay aggregated."""

    def build():
        system = Leap(CostModel(), LOCAL, policy=policy)
        return system, system.allocate(PAGE_SIZE, elem_size=8, name="o").obj_id

    build.__name__ = f"_leap_{policy}"
    return build


def _manager_swap(policy=None):
    system = CacheManager(CostModel(), LOCAL, policy=policy)
    return system, system.allocate(PAGE_SIZE, elem_size=8, name="o").obj_id


def _manager_swap_markov():
    return _manager_swap("markov")


def _manager_section():
    system = CacheManager(CostModel(), LOCAL)
    system.open_section(
        SectionConfig(
            name="s",
            size_bytes=2 * PAGE_SIZE,
            line_size=PAGE_SIZE,
            structure=Structure.DIRECT,
        ),
        [],
    )
    obj_id = system.allocate(PAGE_SIZE, elem_size=8, name="o").obj_id
    system.assign(obj_id, "s")
    return system, obj_id


def _per_element(system, obj_id, is_write, dram_ns, cpu_ns) -> None:
    """The oracle: what a bulk call must be indistinguishable from."""
    clock = system.clock
    for i in range(COUNT):
        clock.advance(dram_ns, "dram")
        system.access(obj_id, i * 8, 8, is_write)
        clock.charge(cpu_ns)


def _state(system, obj_id) -> dict:
    clock = system.clock
    policy = getattr(system, "policy", None)
    return {
        "now": clock.now,
        "breakdown": clock.breakdown(),
        "object": vars(system.stats.object(obj_id)).copy(),
        "network": vars(system.network.stats).copy(),
        "sections": system.collect_section_stats(),
        "pages": [
            (e.page, e.dirty, e.evictable, e.ready_at)
            for e in system.swap._pages.values()
        ],
        "policy": None if policy is None else policy.snapshot(),
    }


BUILDS = [
    _fastswap,
    _leap("leap"),
    _leap("markov"),
    _leap("learned"),
    _manager_swap,
    _manager_swap_markov,
    _manager_section,
]


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("is_write", [False, True], ids=["load", "store"])
@pytest.mark.parametrize("dram_ns,cpu_ns", CHARGES)
@pytest.mark.parametrize("start_ns", STARTS)
def test_bulk_stream_matches_per_element_loop_on_a_young_clock(
    build, is_write, dram_ns, cpu_ns, start_ns
):
    """The first chunk's fault leaves the clock near 7 us and fractional;
    its 511 known-hits, charged as one step, carry it past three powers
    of two."""
    _twins_agree(build, is_write, dram_ns, cpu_ns, start_ns)


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("is_write", [False, True], ids=["load", "store"])
def test_bulk_stream_takes_a_non_integer_cost_model(build, is_write):
    """What codegen's reduction loop charges on a model nowhere near whole
    nanoseconds (it was refused, and ran per element)."""
    cost = CostModel(dram_access_ns=33.3, cpu_op_ns=1.7)
    _twins_agree(build, is_write, cost.dram_access_ns, 3 * cost.cpu_op_ns, 0.0)


def _twins_agree(build, is_write, dram_ns, cpu_ns, start_ns) -> None:
    oracle, obj_id = build()
    bulk, _ = build()
    oracle.clock.advance(start_ns, "other")
    bulk.clock.advance(start_ns, "other")
    _per_element(oracle, obj_id, is_write, dram_ns, cpu_ns)
    entry = bulk.bulk_store if is_write else bulk.bulk_load
    assert entry(obj_id, 0, 8, 8, COUNT, False, dram_ns, cpu_ns) is True
    assert _state(bulk, obj_id) == _state(oracle, obj_id)
    assert bulk.stats.object(obj_id).accesses == COUNT


@pytest.mark.parametrize(
    "system_cls, policy",
    [(Leap, "leap"), (Leap, "learned"), (FastSwap, "leap"), (CacheManager, "leap")],
)
def test_chunk_first_elements_prefetches_can_push_its_own_page_out(system_cls, policy):
    """Three pages of local memory, a scan the policy has locked onto: a
    fault issues two prefetches while the LRU head is still in flight, so
    the settled victim is the page just faulted in.  That chunk has no
    known-hits -- its second element faults for itself."""
    pages, stride = 16, 512
    per_page = PAGE_SIZE // stride

    def build():
        system = system_cls(CostModel(), 3 * PAGE_SIZE, policy=policy)
        return system, system.allocate(pages * PAGE_SIZE, elem_size=8, name="o").obj_id

    oracle, obj_id = build()
    bulk, _ = build()
    clock = oracle.clock
    refaults = 0
    for i in range(pages * per_page):
        clock.advance(100.0, "dram")
        before = oracle.swap.stats.misses
        oracle.access(obj_id, i * stride, 8, False)
        clock.charge(3.0)
        refaults += i % per_page == 1 and oracle.swap.stats.misses > before
    assert refaults  # the oracle did see a page's second element fault
    done = bulk.bulk_load(obj_id, 0, stride, 8, pages * per_page, False, 100.0, 3.0)
    assert done is True
    assert _state(bulk, obj_id) == _state(oracle, obj_id)


def test_programmed_policy_still_falls_back():
    system = Leap(CostModel(), LOCAL, policy="programmed")
    obj_id = system.allocate(PAGE_SIZE, elem_size=8, name="o").obj_id
    assert system.bulk_load(obj_id, 0, 8, 8, COUNT, False, 100.0, 3.0) is False
    assert system.clock.now == 0.0 and system.swap.stats.accesses == 0
