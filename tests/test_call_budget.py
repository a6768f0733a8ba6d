"""Python calls per non-hit event, as a tier-1 contract.

Host time drifts by tens of percent on a shared machine; the number of
Python-level and builtin calls one simulated event costs repeats exactly,
and it is what the miss path's speed is made of (DESIGN.md section 4,
"anatomy of a non-hit event").  Each case drives 2 048 events of one kind
into a section under ``cProfile`` -- a *full* one, but for the cold miss
-- and counts every call the profiler saw, builtins included, so a hop,
a ``dict.get`` or a property read that creeps back into a per-event path
fails here by name of the budget it broke.

The count is the one ``benchmarks/layers/fold.py`` reports as
``py.calls_total``, with one correction: ``pstats`` keys rows by
``(file, line, name)`` and lets equal keys overwrite each other, and
every dataclass ``__init__`` is ``('<string>', 2, '__init__')`` -- so a
``--trace 1`` total under-counts the ``PageEntry()`` / ``Line()`` that
only a growing section still builds per event (a folded eviction reuses
its victim's).  ``Profile.getstats()`` has one entry per code object;
this file sums that.

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


def _swap_sweep(write: bool, system="fastswap"):
    """All-miss cyclic sweep on a full swap pool through ``replay_ops``:
    every event is a demand fault that evicts a page, dirty iff
    ``write``.  ``system`` is a trace system name or a built system;
    returns the calls per event."""
    pages = 64
    if isinstance(system, str):
        system = make_system(system, pages * PAGE_SIZE)
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


#: measured 0.08 (1.08 while each fault built a ``PageEntry()``; per
#: access: 11.04) -- a clean victim on an idle link is a plain fault,
#: folded in the walker's loop (``CacheManager.fold_chunk``), which
#: ``bulk_access`` hands a one-slot plan, with no call: the victim is the
#: pool's first key, read and deleted by operators, and its entry becomes
#: the newcomer's.  All of it is per chunk: the run's ``_book_misses`` --
#: clock charges and one ``Network.read`` of its ``n`` faults -- the
#: manager's metadata sample and the walk's set-up
SWAP_FAULT_BUDGET = 0.09


def test_swap_fault_call_budget():
    """Every event evicts a clean page: all of them fold."""
    assert _swap_sweep(write=False) <= SWAP_FAULT_BUDGET


#: measured 0.09 (1.09 with a ``PageEntry()`` per fault; 18.04 per
#: access) -- a dirty victim folds too, with no call: its write-back and
#: the read behind it are closed form, booked with the run's reads by one
#: ``Network.read(nbytes, True, f, behind=d, gap)``
SWAP_DIRTY_FAULT_BUDGET = 0.097


def test_swap_dirty_fault_call_budget():
    """Every event evicts a dirty page: all of them fold."""
    assert _swap_sweep(write=True) <= SWAP_DIRTY_FAULT_BUDGET


#: measured 0.08 (14.06 while the manager's swap branch folded hits only
#: and took every fault per access) -- Mira's own swap section, an object
#: no section holds: the same fold as FastSwap's, because it is the same
#: walker
MANAGER_SWAP_FAULT_BUDGET = 0.09


def test_manager_swap_fault_call_budget():
    """The clean sweep on a plain ``CacheManager`` with no section."""
    system = CacheManager(CostModel.rdma(), 64 * PAGE_SIZE)
    assert _swap_sweep(False, system) <= MANAGER_SWAP_FAULT_BUDGET


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


#: measured 3.10 (4.09 while each miss built a ``Line()``; 19.09 per
#: access) -- a miss that evicts a settled line on an idle link folds in
#: the walker's loop, the victim's ``Line`` reset to be the next miss's:
#:   1 dict.get (the tag-store probe)
#:   2 _admit: itself, len (set full?)
#: (the victim is its set's first key, read and deleted by operators; the
#: run's clock charges, counters and one ``Network.read`` are paid once
#: per chunk)
OBJECT_MISS_BUDGET = 3.42


def test_object_miss_call_budget():
    """Every event evicts a clean line: all of them fold."""
    assert _object_sweep(False, _replay) <= OBJECT_MISS_BUDGET


#: measured 3.11 (4.10 with a ``Line()`` per miss; 26.08 per access) --
#: the same with a dirty victim: its write-back and the read queued
#: behind it are closed form, booked by the run's
#: ``Network.read(nbytes, one_sided, m, behind=d)``
OBJECT_DIRTY_MISS_BUDGET = 3.43


def test_object_dirty_miss_call_budget():
    """Every event is a write that evicts a dirty line: all of them
    fold."""
    assert _object_sweep(True, _replay) <= OBJECT_DIRTY_MISS_BUDGET


#: measured 4.94 (17.73 while a miss into free room took ``access``) --
#: a miss into a free line of a growing section folds in the walker's
#: loop, the metadata sampled ahead of it:
#:   1 dict.get (the tag-store probe)
#:   1 length_hint (the event's position, for the sample)
#:   1 Line() (growth: no victim to reuse)
#:   2 _admit: itself, len (set full?; 0.81: a set's first line makes
#:     its bucket instead)
#: (+0.13: the eight samples and the per-chunk work)
OBJECT_COLD_MISS_BUDGET = 5.45


def test_object_cold_miss_call_budget():
    """Every event misses into a free line of an empty ``mira-set``
    section: all of them fold, and none evicts."""
    system = make_system("mira-set", 1 << 20)
    section = system.sections()["trace"]
    ls = section.config.line_size
    assert section.config.num_lines >= EVENTS
    ops = [(i * ls, False) for i in range(EVENTS)]
    per_event = _calls_per_event(
        lambda: _replay(system, ops, [(0, EVENTS * ls)])
    )
    stats = section.stats
    assert stats.misses == section.resident_count() == EVENTS
    assert stats.evictions == 0
    assert per_event <= OBJECT_COLD_MISS_BUDGET


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
    assert system.fold_ok((obj_id,))
    per_event = _calls_per_event(
        lambda: system.fold_chunk(plan, (obj_id,), tape, 0, True)
    )
    assert not tape
    return per_event


#: measured 2.01 (2.05 while the chunk's clock was summed per event; 3.04
#: through ``access``) -- a plain access in a folded chunk is settled in
#: the walker's own loop; native, so it charges no ``hit_overhead``:
#:   1 dict.get (tag store)
#:   1 OrderedDict.move_to_end (recency in the set)
#: (+0.01: the walk's set-up, its per-slot counters and its per-category
#: clock, settled once per chunk)
FOLDED_ACCESS_BUDGET = 2.25


def test_folded_access_call_budget():
    system, obj_id, section = _full_section(write=False)
    tape = [i * LINE for i in range(EVENTS)]
    per_event = _fold_tape(system, obj_id, _chunk_plan(ACCESS, 8, True), tape)
    assert section.stats.native_accesses == EVENTS
    assert per_event <= FOLDED_ACCESS_BUDGET


#: measured 4.01 (12.00 through ``prefetch``) -- each fill is one booking
#: on the link the walk holds from its first fill to its last:
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


#: measured 3.02 (4.02 with a ``Line()`` per miss; 16.04 while a chunk
#: took every miss through ``access``) -- a straight-line loop's miss that
#: evicts a settled line on an idle link folds in the walker's loop, as a
#: bulk chunk's does, into its last victim's ``Line``:
#:   1 dict.get (the tag-store probe)
#:   2 _admit: itself, len (set full?)
#: (the chunk's ``_book_misses`` -- its counters, clock charges and one
#: ``Network.read`` -- is paid once per chunk)
CHUNK_MISS_BUDGET = 3.32


def test_chunk_miss_call_budget():
    """Every load of the chunk misses the full section and evicts a clean
    line on an idle link: all of them fold."""
    system, obj_id, section = _full_section(write=False)
    tape = [i * LINE for i in range(EVENTS, 2 * EVENTS)]
    per_event = _fold_tape(system, obj_id, _chunk_plan(ACCESS, 8, False), tape)
    stats = section.stats
    assert stats.misses == 2 * EVENTS and stats.evictions == EVENTS
    assert per_event <= CHUNK_MISS_BUDGET


#: measured 0.015 (1.01 with a ``PageEntry()`` per fault; 13.03 while a
#: chunk took every fault through ``access``) -- a straight-line loop's
#: swap fault on an idle link, its victim settled, folds in the walker's
#: loop into the victim's entry, with no call; what is left is the
#: chunk's set-up and its one ``_book_misses``
CHUNK_SWAP_FAULT_BUDGET = 0.0165


def test_chunk_swap_fault_call_budget():
    """Every load of the chunk faults on a full swap pool (no section is
    open) and evicts a clean page: all of them fold."""
    pages = 64
    system = CacheManager(CostModel(), pages * PAGE_SIZE)
    obj_id = system.allocate(2 * EVENTS * PAGE_SIZE, elem_size=8, name="o").obj_id
    for p in range(pages):
        system.access(obj_id, p * PAGE_SIZE, 8, False)
    swap = system.swap
    assert swap.resident_pages() == swap.capacity_pages == pages
    tape = [(pages + i) * PAGE_SIZE for i in range(EVENTS)]
    per_event = _fold_tape(system, obj_id, _chunk_plan(ACCESS, 8, False), tape)
    assert swap.stats.misses == pages + EVENTS
    assert swap.stats.evictions == EVENTS
    assert per_event <= CHUNK_SWAP_FAULT_BUDGET
