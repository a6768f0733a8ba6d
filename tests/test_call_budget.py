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
from repro.cache.manager import ACCESS, PREFETCH, CacheManager
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


#: measured 1.05 (PR 25; before: 11.04) -- a clean victim on an idle link
#: is a plain fault, folded inside ``SwapSection.fold``:
#:   1 PageEntry()
#: (the victim is the pool's first key, read and deleted by operators; the
#: run's clock charges and one ``Network.read`` of its ``n`` faults are
#: paid once per chunk)
SWAP_FAULT_BUDGET = 1.16


def test_swap_fault_call_budget():
    """Every event evicts a clean page: all of them fold."""
    assert _swap_sweep(write=False) <= SWAP_FAULT_BUDGET


#: measured 1.06 (was 1.07 while the first write-back went per access;
#: 18.04 per access) -- a dirty victim folds too: its write-back and the
#: read behind it are closed form, booked with the run's reads by one
#: ``Network.read(nbytes, True, f, behind=d, gap)``:
#:   1 PageEntry()
SWAP_DIRTY_FAULT_BUDGET = 1.16


def test_swap_dirty_fault_call_budget():
    """Every event evicts a dirty page: all of them fold."""
    assert _swap_sweep(write=True) <= SWAP_DIRTY_FAULT_BUDGET


def _object_sweep(write: bool, run):
    """All-miss cyclic sweep on a full set-associative section (the
    ``mira-set`` trace system): every event evicts the LRU line of its
    set, dirty iff ``write``.  ``run(system, ops, regions)`` drives the
    sweep; returns the calls per event."""
    system = make_system("mira-set", 64 * PAGE_SIZE)
    section = system.sections()["trace"]
    lines, ls = section.config.num_lines, section.config.line_size
    filler = system.allocate(lines * ls, elem_size=8, name="filler")
    system.assign(filler.obj_id, "trace")
    for i in range(lines):
        system.access(filler.obj_id, i * ls, 8, write)
    assert section.resident_count() == lines
    # consecutive lines fall in consecutive sets: a sweep over twice the
    # section shows each set twice its ways, in order
    ops = [((i % (2 * lines)) * ls, write) for i in range(EVENTS)]
    regions = [(0, 2 * lines * ls)]
    per_event = _calls_per_event(lambda: run(system, ops, regions))
    assert section.stats.misses == lines + EVENTS
    assert section.stats.evictions == EVENTS
    assert section.stats.writebacks == (EVENTS if write else 0)
    return per_event


def _replay(system, ops, regions):
    replay_ops(system, ops, regions, assign_section="trace")


#: measured 4.08 (was 4.09 while the first eviction went per access;
#: 19.09 per access) -- a miss that evicts a settled line on an idle link
#: folds inside ``CacheSection.fold``:
#:   1 dict.get (the tag-store probe)
#:   1 Line()
#:   2 _admit: itself, len (set full?)
#: (the victim is its set's first key, read and deleted by operators; the
#: run's clock charges, counters and one ``Network.read`` are paid once
#: per chunk)
OBJECT_MISS_BUDGET = 4.49


def test_object_miss_call_budget():
    """Every event evicts a clean line: all of them fold."""
    assert _object_sweep(False, _replay) <= OBJECT_MISS_BUDGET


#: measured 4.09 (was 4.10; 26.08 per access) -- the same with a dirty
#: victim: its write-back and the read queued behind it are closed form,
#: booked by the run's ``Network.read(nbytes, one_sided, m, behind=d)``
OBJECT_DIRTY_MISS_BUDGET = 4.5


def test_object_dirty_miss_call_budget():
    """Every event is a write that evicts a dirty line: all of them
    fold."""
    assert _object_sweep(True, _replay) <= OBJECT_DIRTY_MISS_BUDGET


def _per_access(system, ops, regions):
    obj_id = system.allocate(regions[0][1], elem_size=8, name="o").obj_id
    system.assign(obj_id, "trace")
    access = system.access
    for off, w in ops:
        access(obj_id, off, 8, w)


#: measured 12.06 (parent: 14.06) -- the per-access path, which every miss
#: a fold declines (and every access under a listener) takes:
#:   1 CacheManager.access,       1 dict.get (``_resolved``)
#:   1 CacheSection._access_line, 1 dict.get (tag store)
#:   1 Line()
#:   2 _admit: itself, len (set full?; the victim is its set's first key,
#:     read and deleted by operators -- no ``popitem``, no ``dict.pop``)
#:   1 CacheSection._evicted
#:   1 Network.read
#:   3 VirtualClock.advance   (evict_overhead, net_read, insert_overhead)
OBJECT_MISS_PER_ACCESS_BUDGET = 13.3


def test_object_miss_per_access_call_budget():
    """The clean sweep through ``system.access``, one call per event."""
    assert _object_sweep(False, _per_access) <= OBJECT_MISS_PER_ACCESS_BUDGET


LINE = 64


def _full_section(write: bool):
    """A ``CacheManager`` whose set-associative section holds ``EVENTS``
    lines of one object, every one touched once (dirty iff ``write``).
    Returns ``(system, obj_id, section)``; the object is twice the
    section, so lines ``EVENTS..`` are absent."""
    system = CacheManager(CostModel(), 1 << 20)
    system.open_section(
        SectionConfig(
            name="s",
            size_bytes=EVENTS * LINE,
            line_size=LINE,
            structure=Structure.SET_ASSOCIATIVE,
            ways=4,
        ),
        [],
    )
    obj_id = system.allocate(2 * EVENTS * LINE, elem_size=8, name="o").obj_id
    system.assign(obj_id, "s")
    section = system.sections()["s"]
    for i in range(EVENTS):
        system.access(obj_id, i * LINE, 8, write)
    assert section.resident_count() == EVENTS
    return system, obj_id, section


#: measured 12.00 (was 13.00 while ``Network.link`` asked the clock for
#: its categories; 16.00 line by line) -- the absent lines of a range
#: settle in one loop; per one-line range:
#:   2 CacheManager.prefetch, dict.get (``_resolved``)
#:   2 CacheSection.prefetch_range, CacheSection._book
#:   2 Network.link: itself, VirtualClock.now
#:   1 Line()
#:   2 _admit: itself, len (set full?)
#:   1 VirtualClock.advance   (evict_overhead, the range's evictions)
#:   2 Network.posted: itself, VirtualClock.advance (net_issue, the range's
#:     write-backs and fetches)
PREFETCH_FILL_BUDGET = 12.2


def test_prefetch_fill_call_budget():
    """Compiler-inserted prefetches of absent lines into a full
    set-associative section whose victims are all dirty: each fill is an
    eviction, a write-back and an asynchronous read."""
    system, obj_id, section = _full_section(write=True)

    def fill():
        for i in range(EVENTS, 2 * EVENTS):
            system.prefetch(obj_id, i * LINE, 8)

    per_event = _calls_per_event(fill)
    stats = section.stats
    assert stats.prefetches_issued == stats.evictions == stats.writebacks == EVENTS
    assert stats.prefetch_wasted == 0  # every victim was a settled dirty line
    assert per_event <= PREFETCH_FILL_BUDGET


#: measured 2.00 (was 4.00 through the wrapper) -- a one-line range that
#: is resident is one ``in`` probe inside the manager's own frame:
#:   2 CacheManager.prefetch, dict.get (``_resolved``)
RESIDENT_PREFETCH_BUDGET = 2.2


def test_resident_prefetch_call_budget():
    system, obj_id, section = _full_section(write=False)
    per_event = _calls_per_event(
        lambda: [system.prefetch(obj_id, i * LINE, 8) for i in range(EVENTS)]
    )
    assert section.stats.prefetches_issued == 0
    assert per_event <= RESIDENT_PREFETCH_BUDGET


#: measured 3.04 (was 5.04 through ``_access_line``) -- a plain hit
#: settles in the manager's frame; native, so no ``hit_overhead`` advance:
#:   2 CacheManager.access, dict.get (``_resolved``)
#:   1 OrderedDict.move_to_end (recency in the set)
#: (+0.04: the peak-metadata sample every 256 accesses)
NATIVE_HIT_BUDGET = 3.35


def test_native_hit_call_budget():
    system, obj_id, section = _full_section(write=False)
    per_event = _calls_per_event(
        lambda: [
            system.access(obj_id, i * LINE, 8, False, True) for i in range(EVENTS)
        ]
    )
    assert section.stats.native_accesses == EVENTS
    assert per_event <= NATIVE_HIT_BUDGET


#: measured 8.00 (was 10.00 through the wrapper) -- the line is found in
#: the manager's frame; a dirty one is written back first by the unchanged
#: ``flush_line``:
#:   2 CacheManager.evict_hint_trailing, dict.get (``_resolved``)
#:   2 CacheSection.flush_line: itself, dict.get (tag store)
#:   3 Network.post: itself, VirtualClock.now, VirtualClock.advance
#:   1 CacheSection._hint (the geometry's mark)
#: (a clean line costs the first two and ``_hint``; one already hinted,
#: the first two only)
DIRTY_HINT_BUDGET = 8.8


def test_dirty_trailing_hint_call_budget():
    system, obj_id, section = _full_section(write=True)
    per_event = _calls_per_event(
        lambda: [
            system.evict_hint_trailing(obj_id, (i + 1) * LINE)
            for i in range(EVENTS)
        ]
    )
    assert section.stats.writebacks == EVENTS
    assert section._hinted == EVENTS
    assert per_event <= DIRTY_HINT_BUDGET


def _chunk_plan(kind, nbytes: int, native: bool):
    """A one-slot straight-line loop's plan (``CacheManager.fold_chunk``):
    the event, one compute unit and (an access) one dram charge ahead of
    it, one unit of tail."""
    cost = CostModel()
    mem = cost.dram_access_ns if kind == ACCESS else 0.0
    slot = (kind, 0, nbytes, False, native, cost.cpu_op_ns, mem)
    return (slot,), cost.cpu_op_ns


def _fold_tape(system, obj_id, plan, tape):
    """One chunk of ``EVENTS`` iterations, folded; calls per event."""
    assert system.chunk_ok()
    per_event = _calls_per_event(
        lambda: system.fold_chunk(plan, (obj_id,), tape, 0, True)
    )
    assert not tape
    return per_event


#: measured 2.05 (3.04 through ``access``) -- a plain access in a folded
#: chunk is settled in the fold's own loop; native, so no ``hit_overhead``
#: joins ``now``:
#:   1 dict.get (tag store)
#:   1 OrderedDict.move_to_end (recency in the set)
#: (+0.05: the peak-metadata sample every 256 accesses, and the chunk's
#: per-slot counters and per-category clock settled once)
FOLDED_ACCESS_BUDGET = 2.25


def test_folded_access_call_budget():
    system, obj_id, section = _full_section(write=False)
    tape = [i * LINE for i in range(EVENTS)]
    per_event = _fold_tape(system, obj_id, _chunk_plan(ACCESS, 8, True), tape)
    assert section.stats.native_accesses == EVENTS
    assert per_event <= FOLDED_ACCESS_BUDGET


#: measured 4.01 (12.00 through ``prefetch``) -- each fill is one booking
#: on the link the fold holds from its first fill to its last:
#:   1 CacheSection._book
#:   1 Line()
#:   2 _admit: itself, len (set full?)
#: (the link is lent once and settled once, by ``Network.link`` and
#: ``Network.posted``, for the whole chunk)
HELD_LINK_FILL_BUDGET = 4.4


def test_held_link_fill_call_budget():
    """The sweep of ``test_prefetch_fill_call_budget`` as the prefetches
    of one folded chunk: every victim dirty, every fill on the held link."""
    system, obj_id, section = _full_section(write=True)
    tape = [i * LINE for i in range(EVENTS, 2 * EVENTS)]
    per_event = _fold_tape(system, obj_id, _chunk_plan(PREFETCH, 8, False), tape)
    stats = section.stats
    assert stats.prefetches_issued == stats.writebacks == EVENTS
    assert stats.prefetch_wasted == 0
    assert per_event <= HELD_LINK_FILL_BUDGET
