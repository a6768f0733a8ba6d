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
remainder is the per-stream work of ``replay_ops``, which enters the
walker once per run of ops in one region.  Each replay case runs an op
list and the same ops as two zipped columns: the walker takes the
columns as they stand and an op list through ``map``/``itemgetter``,
whose calls run in C, unseen by the profiler (their cost shows in host
time only, ~45 ns an op).
"""

from __future__ import annotations

import cProfile
import os
from itertools import repeat

from repro.baselines import FastSwap, Leap
from repro.cache.config import SectionConfig, Structure
from repro.cache.manager import ACCESS, PREFETCH, CacheManager
from repro.core import run_on_baseline
from repro.ir.builder import IRBuilder
from repro.ir.types import FloatType
from repro.ir.verifier import verify
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel
from repro.workloads.trace import ScenarioSpec, make_system, replay_ops

F64 = FloatType(64)

EVENTS = 2048


def _columns(ops):
    """The ops as two columns zipped, the shape the walker takes as it
    stands (an op list is translated into it in C)."""
    addrs, writes = zip(*ops)
    return zip(addrs, writes)


def _calls_per_event(fn) -> float:
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats()) / EVENTS


def _swap_sweep(write: bool, system="fastswap", columns=False):
    """All-miss cyclic sweep on a full swap pool through ``replay_ops``:
    every event is a demand fault that evicts a page, dirty iff
    ``write``.  ``system`` is a trace system name or a built system; the
    ops are a list, or with ``columns`` two zipped columns; returns the
    calls per event."""
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
    stream = _columns(ops) if columns else ops
    per_event = _calls_per_event(lambda: replay_ops(system, stream, regions))
    assert swap.stats.misses == pages + EVENTS
    assert swap.stats.evictions == EVENTS
    assert swap.stats.writebacks == (EVENTS if write else 0)
    return per_event


#: measured 0.033 (0.08 while replay entered the walker once per 512
#: ops; 1.08 while each fault built a ``PageEntry()``; per access: 11.04)
#: -- a clean victim on an idle link is a plain fault, folded in the
#: walker's loop (``CacheManager.fold_chunk``), which ``stream_access``
#: hands a one-slot plan, with no call: the victim is the pool's first
#: key, read and deleted by operators, and its entry becomes the
#: newcomer's.  All of it is per stream: the run's ``_book_misses`` --
#: clock charges and one ``Network.read`` of its ``n`` faults -- the
#: manager's metadata samples and the walk's set-up
SWAP_FAULT_BUDGET = 0.037


def test_swap_fault_call_budget():
    """Every event evicts a clean page: all of them fold, from an op list
    and from zipped columns alike."""
    assert _swap_sweep(write=False) <= SWAP_FAULT_BUDGET
    assert _swap_sweep(write=False, columns=True) <= SWAP_FAULT_BUDGET


#: measured 0.038 (0.09 entering the walker per 512 ops; 1.09 with a
#: ``PageEntry()`` per fault; 18.04 per access) -- a dirty victim folds
#: too, with no call: its write-back and the read behind it are closed
#: form, booked with the run's reads by one
#: ``Network.read(nbytes, True, f, behind=d, gap)``
SWAP_DIRTY_FAULT_BUDGET = 0.042


def test_swap_dirty_fault_call_budget():
    """Every event evicts a dirty page: all of them fold."""
    assert _swap_sweep(write=True) <= SWAP_DIRTY_FAULT_BUDGET
    assert _swap_sweep(write=True, columns=True) <= SWAP_DIRTY_FAULT_BUDGET


#: measured 0.033 (0.08 entering the walker per 512 ops; 14.06 while the
#: manager's swap branch folded hits only and took every fault per
#: access) -- Mira's own swap section, an object no section holds: the
#: same fold as FastSwap's, because it is the same walker
MANAGER_SWAP_FAULT_BUDGET = 0.037


def test_manager_swap_fault_call_budget():
    """The clean sweep on a plain ``CacheManager`` with no section."""
    for columns in (False, True):
        system = CacheManager(CostModel.rdma(), 64 * PAGE_SIZE)
        assert _swap_sweep(False, system, columns) <= MANAGER_SWAP_FAULT_BUDGET


#: measured 0.824 (0.940 while replay entered the walker per 512 ops and
#: the walk read an event's position with ``length_hint``; 1.031 while
#: each planned page past the object took an owner lookup of its own;
#: 0.93 before those pages were labelled by their owner; 0.94 while a plan
#: fetched the pages past the object; 2.21 while every arrived page's
#: first touch took ``access`` and every planned page a
#: ``SwapSection.prefetch``) -- Leap on a two-pass sequential scan, 16
#: events a page, every fourth a write: 114 of the 128 page transitions
#: are first touches of an arrived prefetch (3 of a late one take
#: ``access``), each folded in the walker in seven calls (0.39 per event;
#: the walk counts the event's position itself):
#:   1 OrderedDict.move_to_end
#:   1 feedback (the policy's counters)
#:   5 record: the policy's, its prefetcher's, two deque.append, set.discard
#: and each of the 14 faults books its plan of ~8 pages (less the pages
#: no object owns) through one ``prefetch_pages`` -> ``_book`` on one lent
#: link, settled by one ``Network.posted``.  ``_drive_policy`` labels each
#: planned page with its owner: the faulting object's ``end_va`` once per
#: plan, and the 66 planned pages past the object by one
#: ``AddressSpace.live_run`` per run of them -- itself, ``bisect_right``
#: and ``len`` -- four runs here, 0.006 per event (a lookup per page cost
#: 0.10).  The budget keeps ~10 % of headroom
LEAP_SCAN_BUDGET = 0.91


def test_leap_scan_call_budget():
    """Leap's default policy, built explicitly (the ambient
    ``$REPRO_PREFETCH`` is not read), on a pool of a quarter of the
    object."""
    pages = 16
    span = 4 * pages * PAGE_SIZE
    ops = [((i * 256) % span, i % 4 == 0) for i in range(EVENTS)]
    for stream in (ops, _columns(ops)):
        system = Leap(CostModel.rdma(), pages * PAGE_SIZE, policy="leap")
        per_event = _calls_per_event(
            lambda: replay_ops(system, stream, [(0, span)])
        )
        snapshot = system.policy.snapshot()
        assert snapshot["plans"] == 14 and snapshot["issued"] == 117
        assert snapshot["useful_timely"] == 114 and snapshot["useful_late"] == 3
        assert system.swap.stats.writebacks == 112
        assert per_event <= LEAP_SCAN_BUDGET


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


def _replay_columns(system, ops, regions):
    replay_ops(system, _columns(ops), regions, assign_section="trace")


#: measured 3.04 (3.10 entering the walker per 512 ops; 4.09 while each
#: miss built a ``Line()``; 19.09 per access) -- a miss that evicts a
#: settled line on an idle link folds in the walker's loop, the victim's
#: ``Line`` reset to be the next miss's:
#:   1 dict.get (the tag-store probe)
#:   2 _admit: itself, len (set full?)
#: (the victim is its set's first key, read and deleted by operators; the
#: run's clock charges, counters and one ``Network.read`` are paid once
#: per stream)
OBJECT_MISS_BUDGET = 3.35


def test_object_miss_call_budget():
    """Every event evicts a clean line: all of them fold."""
    assert _object_sweep(False, _replay) <= OBJECT_MISS_BUDGET
    assert _object_sweep(False, _replay_columns) <= OBJECT_MISS_BUDGET


#: measured 3.05 (3.11 entering the walker per 512 ops; 4.10 with a
#: ``Line()`` per miss; 26.08 per access) -- the same with a dirty victim:
#: its write-back and the read queued behind it are closed form, booked
#: by the run's ``Network.read(nbytes, one_sided, m, behind=d)``
OBJECT_DIRTY_MISS_BUDGET = 3.36


def test_object_dirty_miss_call_budget():
    """Every event is a write that evicts a dirty line: all of them
    fold."""
    assert _object_sweep(True, _replay) <= OBJECT_DIRTY_MISS_BUDGET
    assert _object_sweep(True, _replay_columns) <= OBJECT_DIRTY_MISS_BUDGET


#: measured 3.89 (4.94 while the walk read the event's position, for the
#: sample, with ``length_hint``; 17.73 while a miss into free room took
#: ``access``) -- a miss into a free line of a growing section folds in
#: the walker's loop, the metadata sampled ahead of it:
#:   1 dict.get (the tag-store probe)
#:   1 Line() (growth: no victim to reuse)
#:   2 _admit: itself, len (set full?; 0.81: a set's first line makes
#:     its bucket instead)
#: (+0.08: the eight samples and the per-stream work)
OBJECT_COLD_MISS_BUDGET = 4.28


def test_object_cold_miss_call_budget():
    """Every event misses into a free line of an empty ``mira-set``
    section: all of them fold, and none evicts."""
    for run in (_replay, _replay_columns):
        system = make_system("mira-set", 1 << 20)
        section = system.sections()["trace"]
        ls = section.config.line_size
        assert section.config.num_lines >= EVENTS
        ops = [(i * ls, False) for i in range(EVENTS)]
        per_event = _calls_per_event(
            lambda: run(system, ops, [(0, EVENTS * ls)])
        )
        stats = section.stats
        assert stats.misses == section.resident_count() == EVENTS
        assert stats.evictions == 0
        assert per_event <= OBJECT_COLD_MISS_BUDGET


def _replay_calls(system, ops, regions, assign=None) -> int:
    profile = cProfile.Profile()
    profile.enable()
    try:
        replay_ops(system, ops, regions, assign_section=assign)
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


#: calls a 4x longer replay may add beyond its events' own (measured 0 on
#: the scan, 10 on the zipf: its one extra miss); entering the walker once
#: per 512 ops added ~30 per entry, ~700 here
REPLAY_GROWTH_BUDGET = 32


def test_replay_enters_the_walker_once_per_stream():
    """A 4x longer stream costs only what its extra events do: FastSwap's
    scan of clean faults and hits folds with no call at all, and a section
    zipf warm in its section pays its hits' two calls (the tag-store
    ``dict.get`` and the set's ``move_to_end``) -- the walk, its set-up
    and its settling happen once per run of ops in one region, from an op
    list as from zipped columns."""
    for shape in (list, _columns):
        scan, zipf = [], []
        for n in (4096, 4 * 4096):
            system = make_system("fastswap", 16 * PAGE_SIZE)
            ops = [((i * 64) % (64 * PAGE_SIZE), i % 10 == 0) for i in range(n)]
            scan.append(_replay_calls(system, shape(ops), [(0, 64 * PAGE_SIZE)]))
            spec = ScenarioSpec(
                "z", "zipf", {"num_pages": 16, "num_events": n, "alpha": 1.2},
                seed=1,
            )
            # (the generator's own calls are the zipf's, counted apart)
            ops = list(spec.ops())
            system = make_system("mira-set", 64 * PAGE_SIZE)
            zipf.append(_replay_calls(
                system, shape(ops), [(0, spec.footprint_bytes)], "trace"
            ))
        assert scan[1] - scan[0] <= REPLAY_GROWTH_BUDGET
        assert zipf[1] - zipf[0] - 2 * 3 * 4096 <= REPLAY_GROWTH_BUDGET


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


def _range_sweep(verb: str, width: int) -> float:
    """``flush`` or ``evict_hint`` over the object in ranges of ``width``
    lines, from its start, on a full section of dirty lines -- or, with
    ``width`` 0, the whole object's ``discard`` or ``free`` on clean ones:
    calls per resident line of the ranges (``EVENTS``, the object's first
    half)."""
    system, obj_id, section = _full_section(write=width > 0)
    fn = getattr(system, verb)
    if not width:
        per_event = _calls_per_event(lambda: fn(obj_id))
        assert section.resident_count() == 0
        return per_event
    ranges = [(i * width * LINE, width * LINE) for i in range(max(1, EVENTS // width))]
    per_event = _calls_per_event(lambda: [fn(obj_id, o, n) for o, n in ranges])
    if verb == "flush":
        assert section.stats.writebacks == EVENTS
        assert not any(line.dirty for line in section.resident_lines())
    else:
        assert section._hinted == EVENTS
    return per_event


#: measured 1.20 (5.11 line by line) -- a loop-end flush of a 64-line
#: range, smaller than the tag store, makes one pass over the range:
#:   1 dict.get (the tag-store probe)
#: (+0.20: per range, the verb's frames, ``Network.link`` and one
#: ``Network.posted`` for all its write-backs)
RANGE_FLUSH_BUDGET = 1.33


def test_range_flush_call_budget():
    assert _range_sweep("flush", 64) <= RANGE_FLUSH_BUDGET


#: measured 2.14 (3.11 line by line) -- the same ranges hinted:
#:   1 dict.get (the tag-store probe)
#:   1 CacheSection._hint (the geometry's mark)
#: (+0.14: per range, the verb's frames)
RANGE_HINT_BUDGET = 2.36


def test_range_evict_hint_call_budget():
    assert _range_sweep("evict_hint", 64) <= RANGE_HINT_BUDGET


#: measured 0.009 and 1.007 (7.00 and 5.00 line by line) -- a range
#: twice the tag store (the whole object) makes one pass over the tag
#: store instead, sorted into index order: per resident line nothing
#: but a hint's ``CacheSection._hint``.  A whole-object ``discard`` or
#: ``free`` drops in the same pass: measured 3.006 and 3.009 (7.00 while
#: each of the object's line indices took a call of its own):
#:   1 CacheSection.remove
#:   1 dict.pop
#:   1 _unplace (the geometry's structures)
WHOLE_RANGE_FLUSH_BUDGET = 0.011
WHOLE_RANGE_HINT_BUDGET = 1.11
WHOLE_DROP_BUDGET = 3.31


def test_whole_object_range_call_budget():
    assert _range_sweep("flush", 2 * EVENTS) <= WHOLE_RANGE_FLUSH_BUDGET
    assert _range_sweep("evict_hint", 2 * EVENTS) <= WHOLE_RANGE_HINT_BUDGET
    assert _range_sweep("discard", 0) <= WHOLE_DROP_BUDGET
    assert _range_sweep("free", 0) <= WHOLE_DROP_BUDGET


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


#: measured 3.01 (4.01 while each fill built a ``Line()``; 12.00 through
#: ``prefetch``) -- each fill is one booking on the link the walk holds
#: from its first fill to its last, into its victim's ``Line``: the walk
#: threads its spare through ``_book``, which hands back the fill's victim
#:   1 CacheSection._book
#:   2 _admit: itself, len (set full?)
#: (the link is lent once and settled once, by ``Network.link`` and
#: ``Network.posted``, for the whole chunk)
HELD_LINK_FILL_BUDGET = 3.32


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


def _fill_sum_stream_calls(n: int) -> int:
    """Calls of a fill and a sum of an ``n``-element f64 array held by a
    section, as two streams straight through ``stream_access``: one of
    writes (a cold miss a line, its other elements hits) and one of reads
    (all hits)."""
    system = CacheManager(CostModel(), 1 << 20)
    system.open_section(
        SectionConfig(
            name="s", size_bytes=1 << 16, line_size=LINE,
            structure=Structure.SET_ASSOCIATIVE,
        ),
        [],
    )
    obj_id = system.allocate(n * 8, elem_size=8, name="a").obj_id
    system.assign(obj_id, "s")
    cost = system.cost
    dram, cpu = cost.dram_access_ns, cost.cpu_op_ns
    offsets = range(0, n * 8, 8)
    profile = cProfile.Profile()
    profile.enable()
    try:
        fill = system.stream_access(
            obj_id, zip(offsets, repeat(True)), 8, dram, 2 * cpu, 2 * cpu
        )
        total = system.stream_access(
            obj_id, zip(offsets, repeat(False)), 8, dram, 0.0, 3 * cpu
        )
    finally:
        profile.disable()
    assert fill == total == (n, None)
    stats = system.sections()["s"].stats
    assert stats.misses == -(-n * 8 // LINE) and stats.accesses == 2 * n
    return sum(entry.callcount for entry in profile.getstats())


#: calls one more element may add to a fill stream and a sum stream when
#: it leaves the array's last line partial (measured 6: its line's cold
#: miss and its two accesses) -- an offset past the object could land in
#: that resident line, so the walker's loop checks a hit's bounds; taking
#: every access of such an array through the manager's verb instead cost
#: 12 841
PARTIAL_LINE_BULK_BUDGET = 16


def test_stream_on_a_partial_last_line_folds():
    """An array whose size is no multiple of the section's line folds
    like one that is: 1 025 f64 elements against 1 024 (after a first
    run, which pays the one-time costs)."""
    _fill_sum_stream_calls(1024)
    whole, partial = _fill_sum_stream_calls(1024), _fill_sum_stream_calls(1025)
    assert partial - whole <= PARTIAL_LINE_BULK_BUDGET


def _fastswap_hit_loop_calls(n: int) -> float:
    """Calls per access of a codegen run on FastSwap that fills an
    ``n``-element f64 array and then sums it, a cold fault a page and
    hits behind it: each straight-line loop runs in chunks the walker
    settles."""
    b = IRBuilder()
    with b.func("main", result_types=[F64]):
        arr = b.alloc(F64, n, "a")
        with b.for_(0, n) as loop:
            b.store(b.cast(loop.iv, F64), arr, loop.iv)
        with b.for_(0, n, iter_args=[b.f64(0.0)]) as loop:
            x = b.load(arr, loop.iv)
            b.yield_([b.add(loop.args[0], x)])
        b.ret([loop.results[0]])
    verify(b.module)
    system = FastSwap(CostModel(), 1 << 20)
    os.environ["REPRO_ENGINE"] = "codegen"
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_on_baseline(b.module, system)
    finally:
        profile.disable()
        os.environ.pop("REPRO_ENGINE", None)
    assert result.results == [float(n * (n - 1) // 2)]
    stats = system.swap.stats
    assert stats.misses == -(-n * 8 // PAGE_SIZE) and stats.accesses == 2 * n
    return sum(entry.callcount for entry in profile.getstats()) / (2 * n)


#: measured 1.40 (2.40 while a one-slot chunk forgot its page at every
#: event and paid a ``move_to_end`` per hit; ~3 per access through the
#: verb) -- FastSwap's loops run in chunks of 256 iterations, each folded
#: by one ``fold_ok`` and one ``fold_chunk``, in which a hit on the page
#: the event before settled is one compare, with no call:
#:   1 list.append (the tape push of the generated loop body)
#: (+0.40: the module's lowering and compile, the run's set-up and, per
#: chunk, the fold's set-up and settling)
FASTSWAP_CHUNK_HIT_BUDGET = 1.55


def test_fastswap_chunked_hit_loop_call_budget():
    """A straight-line fill and sum on FastSwap: every access but a
    page's first is a hit, settled in the walker (after a first run,
    which pays the one-time costs)."""
    _fastswap_hit_loop_calls(EVENTS)
    assert _fastswap_hit_loop_calls(EVENTS) <= FASTSWAP_CHUNK_HIT_BUDGET
