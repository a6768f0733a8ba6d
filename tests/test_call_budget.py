"""Python calls per non-hit event, as a tier-1 contract.

Host time drifts by tens of percent on a shared machine; the number of
Python-level and builtin calls one simulated event costs repeats exactly,
and it is what the miss path's speed is made of (DESIGN.md section 4,
"anatomy of a non-hit event").  Each case drives 2 048 events of one kind
into a *full* section under ``cProfile`` and counts every call the
profiler saw, builtins included, so a hop, a ``dict.get`` or a property
read that creeps back into a per-event path fails here by name of the
budget it broke.

The count is the one ``benchmarks/layers/fold.py`` reports as
``py.calls_total``, with one correction: ``pstats`` keys rows by
``(file, line, name)`` and lets equal keys overwrite each other, and
every dataclass ``__init__`` is ``('<string>', 2, '__init__')`` -- so a
``--trace 1`` total misses the ``PageEntry()`` / ``Line()`` of each event
whenever another dataclass is built in the same run (the folded fault's
1.05 here is the 0.04 it prints for ``trace_chase_fastswap``, whose
every event is that fault: the one call left is the ``PageEntry()``).
``Profile.getstats()`` has one entry per code object; this file sums that.

Budgets sit ~10 % above the measured value.  The ledger beside each
constant is calls per event by function, from the same profile; the
remainder is the per-chunk work of ``replay_ops``.
"""

from __future__ import annotations

import cProfile

from repro.cache.config import SectionConfig, Structure
from repro.cache.manager import CacheManager
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel
from repro.workloads.trace import make_system, replay_ops

EVENTS = 2048


def _calls_per_event(fn) -> float:
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats()) / EVENTS


def _swap_sweep(write: bool):
    """All-miss cyclic sweep on a full FastSwap through ``replay_ops``:
    every event is a demand fault that evicts a page, dirty iff
    ``write``.  Returns the calls per event."""
    pages = 64
    system = make_system("fastswap", pages * PAGE_SIZE)
    filler = system.allocate(pages * PAGE_SIZE, elem_size=8, name="filler")
    for p in range(pages):
        system.access(filler.obj_id, p * PAGE_SIZE, 8, write)
    swap = system.swap
    assert swap.resident_pages() == swap.capacity_pages == pages
    # twice the pool, in order: LRU has always just evicted the next page
    ops = [((i % (2 * pages)) * PAGE_SIZE, write) for i in range(EVENTS)]
    regions = [(0, 2 * pages * PAGE_SIZE)]
    per_event = _calls_per_event(lambda: replay_ops(system, ops, regions))
    assert swap.stats.misses == pages + EVENTS
    assert swap.stats.evictions == EVENTS
    assert swap.stats.writebacks == (EVENTS if write else 0)
    return per_event


#: measured 1.05 (parent: 11.04) -- a clean victim on an idle link is a
#: plain fault, folded inside ``SwapSection.fold``:
#:   1 PageEntry()
#: (the victim is the pool's first key, read and deleted by operators; the
#: run's clock charges and one ``Network.read`` of its ``n`` faults are
#: paid once per chunk)
SWAP_FAULT_BUDGET = 1.16


def test_swap_fault_call_budget():
    """Every event evicts a clean page: all of them fold."""
    assert _swap_sweep(write=False) <= SWAP_FAULT_BUDGET


#: measured 18.04 -- a dirty victim ends the fold, and the fault goes down
#: the per-access path (the 11 calls it cost before faults folded, plus
#: the dirty eviction's 6 and the fold's one ``len``):
#:   6 VirtualClock.advance   (dram, compute, eviction, net_issue,
#:                             page_fault, net_read)
#:   1 SwapSection.fold       (generator resumed at the non-plain pair)
#:   2 len                    (free pages, re-read by the fold on resuming;
#:                             pool full? in ``_access_page``)
#:   1 SwapSection._access_page
#:   1 SwapSection._evict_one
#:   1 OrderedDict.popitem    (the LRU head)
#:   1 Network.post (write=True), 1 VirtualClock.now (its link booking)
#:   1 Network.read, 1 _drain_link, 1 VirtualClock.now (the write-back
#:                             booked the link)
#:   1 PageEntry()
SWAP_FAULT_PER_ACCESS_BUDGET = 19.8


def test_swap_fault_per_access_call_budget():
    """Every event evicts a dirty page: none of them fold."""
    assert _swap_sweep(write=True) <= SWAP_FAULT_PER_ACCESS_BUDGET


#: measured 19.09 (parent: 25.09) --
#:   4 VirtualClock.advance   (dram, evict_overhead, net_read, insert_overhead)
#:   2 VirtualClock.charge + _flush      (the buffered compute charge)
#:   1 CacheSection.fold_hits, 1 dict.get (its tag-store probe)
#:   1 CacheManager.access,    1 dict.get (``_resolved``)
#:   1 CacheSection._access_line, 1 dict.get (tag store)
#:   1 Line()
#:   4 _admit: itself, len (set full?), OrderedDict.popitem (the LRU
#:     head), dict.pop (the victim out of the tag store)
#:   1 CacheSection._evicted
#:   1 Network.read
OBJECT_MISS_BUDGET = 21.0


def test_object_miss_call_budget():
    """All-miss cyclic sweep on a full set-associative section (the
    ``mira-set`` trace system): every event evicts a clean LRU line."""
    system = make_system("mira-set", 64 * PAGE_SIZE)
    section = system.sections()["trace"]
    lines, ls = section.config.num_lines, section.config.line_size
    filler = system.allocate(lines * ls, elem_size=8, name="filler")
    system.assign(filler.obj_id, "trace")
    for i in range(lines):
        system.access(filler.obj_id, i * ls, 8, False)
    assert section.resident_count() == lines
    # consecutive lines fall in consecutive sets: a sweep over twice the
    # section shows each set twice its ways, in order
    ops = [((i % (2 * lines)) * ls, False) for i in range(EVENTS)]
    regions = [(0, 2 * lines * ls)]
    per_event = _calls_per_event(
        lambda: replay_ops(system, ops, regions, assign_section="trace")
    )
    assert section.stats.misses == lines + EVENTS
    assert section.stats.evictions == EVENTS
    assert per_event <= OBJECT_MISS_BUDGET


#: measured 18.00 (parent: 24.00) --
#:   3 MemorySystem.prefetch, CacheManager._prefetch, dict.get (``_resolved``)
#:   2 CacheSection.prefetch_range, _prefetch_absent
#:   1 Line()
#:   4 _admit: itself, len (set full?), OrderedDict.popitem (the LRU
#:     head), dict.pop (the victim out of the tag store)
#:   1 CacheSection._evicted
#:   3 VirtualClock.advance   (evict_overhead, net_issue x2)
#:   2 Network.post           (the dirty victim's write-back, the fetch)
#:   2 VirtualClock.now       (one link booking each)
PREFETCH_FILL_BUDGET = 19.8


def test_prefetch_fill_call_budget():
    """Compiler-inserted prefetches of absent lines into a full
    set-associative section whose victims are all dirty: each fill is an
    eviction, a write-back and an asynchronous read."""
    line = 64
    system = CacheManager(CostModel(), 1 << 20)
    system.open_section(
        SectionConfig(
            name="s",
            size_bytes=EVENTS * line,
            line_size=line,
            structure=Structure.SET_ASSOCIATIVE,
            ways=4,
        ),
        [],
    )
    obj_id = system.allocate(2 * EVENTS * line, elem_size=8, name="o").obj_id
    system.assign(obj_id, "s")
    section = system.sections()["s"]
    for i in range(EVENTS):
        system.access(obj_id, i * line, 8, True)
    assert section.resident_count() == EVENTS

    def fill():
        for i in range(EVENTS, 2 * EVENTS):
            system.prefetch(obj_id, i * line, 8)

    per_event = _calls_per_event(fill)
    stats = section.stats
    assert stats.prefetches_issued == stats.evictions == stats.writebacks == EVENTS
    assert stats.prefetch_wasted == 0  # every victim was a settled dirty line
    assert per_event <= PREFETCH_FILL_BUDGET
