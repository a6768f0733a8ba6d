"""Differential test of a strided stream's ``stream_access`` against its
oracle.

A strided loop's ``(offset, write)`` ops handed to ``stream_access``
(DESIGN.md section 4f) with compute on both sides of each access: a run
of hits on one line or page becomes one clock add, and the one add is
what the adds it replaces give: every duration is on the time grid
(DESIGN.md section 4, "Time is exact").  A float clock rounded here --
on a small fractional clock, the first microseconds of a program, each
power of two passed took a low bit -- which is where the starts and
charges below come from; they are kept as plain twin comparisons.  The
oracle is the per-element loop, in IR order:
``clock.advance(dram, "dram"); access(...); clock.charge(cpu)``.
"""

from __future__ import annotations

import pytest

from repro.baselines import FastSwap, Leap, NativeMemory
from repro.cache.config import SectionConfig, Structure
from repro.cache.hybrid import HybridConfig, HybridManager
from repro.cache.manager import CacheManager
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel, grid
from repro.obs import Tracer
from tests.bulk_twins import per_element, state as _state, twins

#: one page-long chunk
COUNT = PAGE_SIZE // 8
LOCAL = 1 << 16
#: per-element charges (dram, cpu); (100, 3) is what codegen's reduction
#: loop charges on the default cost model
CHARGES = [(50.0, 3.0), (80.0, 2.0), (100.0, 3.0), (120.0, 1.0)]
#: virtual ns already on the clock when the run starts, snapped to the
#: grid like everything a clock is given
STARTS = [pytest.param(grid(ns), id=str(ns)) for ns in (0.91, 3.27, 47.12)]


def _fastswap(cost=None, nbytes=PAGE_SIZE):
    system = FastSwap(cost or CostModel(), LOCAL)
    return system, system.allocate(nbytes, elem_size=8, name="o").obj_id


def _leap(policy):
    """Leap under a policy whose ``record`` ignores repeats: a page's
    first element takes the fault path and the policy hook, the hits
    behind it (all repeats of its page) stay aggregated."""

    def build(cost=None, nbytes=PAGE_SIZE):
        system = Leap(cost or CostModel(), LOCAL, policy=policy)
        return system, system.allocate(nbytes, elem_size=8, name="o").obj_id

    build.__name__ = f"_leap_{policy}"
    return build


def _manager_swap(cost=None, nbytes=PAGE_SIZE, policy=None):
    system = CacheManager(cost or CostModel(), LOCAL, policy=policy)
    return system, system.allocate(nbytes, elem_size=8, name="o").obj_id


def _manager_swap_markov(cost=None, nbytes=PAGE_SIZE):
    return _manager_swap(cost, nbytes, "markov")


def _manager_section(cost=None, nbytes=PAGE_SIZE):
    system = CacheManager(cost or CostModel(), LOCAL)
    system.open_section(
        SectionConfig(
            name="s",
            size_bytes=2 * PAGE_SIZE,
            line_size=PAGE_SIZE,
            structure=Structure.DIRECT,
        ),
        [],
    )
    obj_id = system.allocate(nbytes, elem_size=8, name="o").obj_id
    system.assign(obj_id, "s")
    return system, obj_id


def _hybrid(path):
    """The hybrid manager with the object's group on ``path``: a
    page-long run crosses eight of its 64-access windows, and ``_state``
    compares the group's window counters, cooldown and switch log."""

    def build(cost=None, nbytes=PAGE_SIZE):
        system = HybridManager(
            cost or CostModel(), LOCAL, hybrid_config=HybridConfig(window=64)
        )
        system.plan_group(
            SectionConfig(
                name="g",
                size_bytes=2 * PAGE_SIZE,
                line_size=256,
                structure=Structure.SET_ASSOCIATIVE,
            ),
            ["o"],
            path=path,
        )
        return system, system.allocate(nbytes, elem_size=8, name="o").obj_id

    build.__name__ = f"_hybrid_{path}"
    return build


def _per_element(system, obj_id, is_write, dram_ns, cpu_ns) -> None:
    """The oracle: what a stream call must be indistinguishable from."""
    clock = system.clock
    for i in range(COUNT):
        clock.advance(dram_ns, "dram")
        system.access(obj_id, i * 8, 8, is_write)
        clock.charge(cpu_ns)


BUILDS = [
    _fastswap,
    _leap("leap"),
    _leap("markov"),
    _leap("learned"),
    _manager_swap,
    _manager_swap_markov,
    _manager_section,
    _hybrid("object"),
    _hybrid("swap"),
]


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("is_write", [False, True], ids=["load", "store"])
@pytest.mark.parametrize("dram_ns,cpu_ns", CHARGES)
@pytest.mark.parametrize("start_ns", STARTS)
def test_bulk_stream_matches_per_element_loop_on_a_young_clock(
    build, is_write, dram_ns, cpu_ns, start_ns
):
    """The page's fault leaves the clock near 7 us and fractional; its
    511 hits, charged as one step, carry it past three powers of two."""
    _twins_agree(build, is_write, dram_ns, cpu_ns, start_ns)


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("is_write", [False, True], ids=["load", "store"])
def test_bulk_stream_takes_a_non_integer_cost_model(build, is_write):
    """What codegen's reduction loop charges on a model nowhere near whole
    nanoseconds (it was refused, and ran per element)."""
    cost = CostModel(dram_access_ns=33.3, cpu_op_ns=1.7)
    _twins_agree(build, is_write, cost.dram_access_ns, 3 * cost.cpu_op_ns, 0.0)


def _twins_agree(build, is_write, dram_ns, cpu_ns, start_ns) -> None:
    oracle, bulk, obj_id = twins(build)
    oracle.clock.advance(start_ns, "other")
    bulk.clock.advance(start_ns, "other")
    _per_element(oracle, obj_id, is_write, dram_ns, cpu_ns)
    flags = b"\x01" * COUNT if is_write else bytes(COUNT)
    done = bulk.stream_access(
        obj_id, zip(range(0, COUNT * 8, 8), flags), 8, dram_ns, 0.0, cpu_ns
    )
    assert done == (COUNT, None)
    assert _state(bulk, obj_id) == _state(oracle, obj_id)
    assert bulk.stats.object(obj_id).accesses == COUNT


@pytest.mark.parametrize(
    "system_cls, policy",
    [(Leap, "leap"), (Leap, "learned"), (FastSwap, "leap"), (CacheManager, "leap")],
)
def test_chunk_first_elements_prefetches_can_push_its_own_page_out(system_cls, policy):
    """Three pages of local memory, a scan the policy has locked onto: a
    fault issues two prefetches while the LRU head is still in flight, so
    the settled victim is the page just faulted in.  That page's second
    element finds it gone and faults for itself."""
    pages, stride = 16, 512
    per_page = PAGE_SIZE // stride
    count = pages * per_page

    def build():
        system = system_cls(CostModel(), 3 * PAGE_SIZE, policy=policy)
        return system, system.allocate(pages * PAGE_SIZE, elem_size=8, name="o").obj_id

    oracle, bulk, obj_id = twins(build)
    clock = oracle.clock
    refaults = 0
    for i in range(count):
        clock.advance(100.0, "dram")
        before = oracle.swap.stats.misses
        oracle.access(obj_id, i * stride, 8, False)
        clock.charge(3.0)
        refaults += i % per_page == 1 and oracle.swap.stats.misses > before
    assert refaults  # the oracle did see a page's second element fault
    done = bulk.stream_access(
        obj_id, zip(range(0, count * stride, stride), bytes(count)), 8, 100.0, 0.0, 3.0
    )
    assert done == (count, None)
    assert _state(bulk, obj_id) == _state(oracle, obj_id)


def test_programmed_policy_still_falls_back():
    system = Leap(CostModel(), LOCAL, policy="programmed")
    obj_id = system.allocate(PAGE_SIZE, elem_size=8, name="o").obj_id
    done = system.stream_access(
        obj_id, zip(range(0, COUNT * 8, 8), bytes(COUNT)), 8, 100.0, 0.0, 3.0
    )
    assert done is None
    assert system.clock.now == 0.0 and system.swap.stats.accesses == 0


# -- the three-duration contract ----------------------------------------------

PAGES = 8


def _mixed_stream():
    """Two pages prefetched by hand and touched while in flight, faults
    with hit runs behind them (the history policies lock on and prefetch
    ahead), a straddle, writes, and a long run on one page."""
    ops = [(5 * PAGE_SIZE + 8 * i, False) for i in range(40)]
    ops += [(6 * PAGE_SIZE + 16, True)]
    ops += [(i * 64, i % 5 == 0) for i in range(4 * PAGE_SIZE // 64)]
    ops += [(PAGE_SIZE - 4, False)]
    ops += [(7 * PAGE_SIZE + 8 * (i % 100), i % 7 == 0) for i in range(700)]
    return ops


@pytest.mark.parametrize("build", BUILDS)
def test_compute_on_both_sides_of_the_access(build):
    """``before_ns`` and ``after_ns`` both set and off-integer: the call
    equals the four-step per-element loop, so a miss, a stall on a page
    in flight and a window's switch decision each see the clock with the
    element's ``before_ns`` charged and its ``after_ns`` not yet."""
    cost = CostModel(dram_access_ns=33.3, cpu_op_ns=1.7)
    dram_ns, before_ns, after_ns = cost.dram_access_ns, cost.cpu_op_ns, 3 * cost.cpu_op_ns
    ops = _mixed_stream()
    oracle, bulk, obj_id = twins(build, cost, PAGES * PAGE_SIZE)
    for system in (oracle, bulk):
        system.prefetch(obj_id, 5 * PAGE_SIZE, 2 * PAGE_SIZE)
    per_element(oracle, obj_id, ops, 8, dram_ns, before_ns, after_ns)
    done = bulk.stream_access(obj_id, iter(ops), 8, dram_ns, before_ns, after_ns)
    assert done == (len(ops), None)
    assert _state(bulk, obj_id) == _state(oracle, obj_id)
    hits = sum(s["hits"] for s in bulk.collect_section_stats().values())
    late = sum(s["prefetch_hits"] for s in bulk.collect_section_stats().values())
    assert hits > 700 and late > 0
    assert bulk.clock.now != round(bulk.clock.now, 3)  # nowhere near whole ns


@pytest.mark.parametrize("path, switch", [("object", "demote"), ("swap", "promote")])
def test_window_closed_by_a_folded_run_switches_at_the_oracles_clock(path, switch):
    """A window's last accesses are a run of hits, and the window says
    switch: per element the decision falls inside the last hit's
    ``access``, ahead of that hit's ``after_ns``, and the switch reads the
    clock (dirty lines flush, the switch log keeps the time)."""
    if path == "object":  # 60 lines missed once each, then four hits
        ops = [(i * 256, True) for i in range(60)]
        ops += [(59 * 256 + 8 * i, False) for i in range(4)]
    else:  # eight pages for eight bytes each, then 56 hits
        ops = [(i * PAGE_SIZE, True) for i in range(8)]
        ops += [(7 * PAGE_SIZE + 8 * i, False) for i in range(56)]
    ops += [(8 * i, i % 3 == 0) for i in range(200)]
    oracle, bulk, obj_id = twins(_hybrid(path), None, PAGES * PAGE_SIZE)
    per_element(oracle, obj_id, ops, 8, 100.0, 1.0, 3.0)
    done = bulk.stream_access(obj_id, iter(ops), 8, 100.0, 1.0, 3.0)
    assert done == (len(ops), None)
    assert [s["dir"] for s in oracle.switch_log] == [switch]
    assert _state(bulk, obj_id) == _state(oracle, obj_id)


# -- native memory: every access is free, the batch is O(1) -------------------


def _native():
    system = NativeMemory(CostModel(dram_access_ns=33.3, cpu_op_ns=1.7), 1 << 20)
    return system, system.allocate(PAGE_SIZE, elem_size=8, name="o").obj_id


def test_native_bulk_access_is_the_callers_charges_aggregated():
    oracle, bulk, obj_id = twins(_native)
    cost = bulk.cost
    before_ns, after_ns = cost.cpu_op_ns, 3 * cost.cpu_op_ns
    ops = [(8 * i, i % 3 == 0) for i in range(COUNT)]
    per_element(oracle, obj_id, ops, 8, cost.dram_access_ns, before_ns, after_ns)
    assert bulk.stream_access(
        obj_id, iter(ops), 8, cost.dram_access_ns, before_ns, after_ns
    ) == (COUNT, None)
    assert bulk.clock.now == oracle.clock.now
    assert bulk.clock.breakdown() == oracle.clock.breakdown()
    # nothing to do is nothing done: no zero-length category appears
    assert bulk.stream_access(
        obj_id, iter(()), 8, cost.dram_access_ns, 1.0, 1.0
    ) == (0, None)
    assert bulk.clock.breakdown() == oracle.clock.breakdown()


def test_native_bulk_access_declines_while_the_access_log_records():
    system, obj_id = _native()
    system.set_tracer(Tracer(access_log=True))
    ops = iter([(0, False), (8, True)])
    assert system.stream_access(obj_id, ops, 8, 100.0, 1.0, 0.0) is None
    assert system.clock.now == 0.0 and not system.clock.breakdown()
    assert len(list(ops)) == 2  # nothing taken from the stream
