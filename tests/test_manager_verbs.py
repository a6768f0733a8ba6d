"""Twin test of the manager's one-frame memory verbs.

``CacheManager.access`` settles a plain hit in its own frame,
``prefetch`` returns after one probe when its line is resident,
``evict_hint_trailing`` marks its line in place,
``CacheSection.prefetch_range`` books a range's absent lines in one loop,
and a range ``flush`` or ``evict_hint`` makes one pass over the smaller of
the range and the tag store, its write-backs booked on one lent link
(DESIGN.md section 4, "anatomy of a non-hit event").  The hit and range
paths decline while a tracer is attached, and the traced twin takes a
section object's hints, flushes and prefetches through the section's
per-line methods, so it runs the per-line code everywhere and is the
oracle: after every step of an interleaving, the bare system must show
the same clock and breakdown (in registry order), every counter, the
link, the hint counts and every resident line with its state, in recency
order.

The traffic covers a set-associative, a direct-mapped and a
fully-associative section (whose hinted lines live in a list of their
own) and an object on the swap path, on a plain ``CacheManager``, a
``HybridManager`` (whose windows may switch the set-associative group's
path mid-run) and a manager with a Leap policy (whose swap hits must still
reach ``_drive_policy``).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import SectionConfig, Structure
from repro.cache.hybrid import HybridConfig, HybridManager
from repro.cache.manager import CacheManager
from repro.cache.section import CacheSection
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from tests.bulk_twins import _policy_state

LINE = 64
SET = SectionConfig(
    name="set",
    size_bytes=16 * LINE,
    line_size=LINE,
    structure=Structure.SET_ASSOCIATIVE,
    ways=4,
)
DIRECT = SectionConfig(
    name="dm", size_bytes=8 * LINE, line_size=LINE, structure=Structure.DIRECT
)
FULL = SectionConfig(
    name="fa",
    size_bytes=8 * LINE,
    line_size=LINE,
    structure=Structure.FULLY_ASSOCIATIVE,
)
SWAP_PAGES = 4
LOCAL = SET.size_bytes + DIRECT.size_bytes + FULL.size_bytes + SWAP_PAGES * PAGE_SIZE
#: object name -> bytes: four times its section, twice the swap pool
OBJECTS = {
    "a": 4 * SET.size_bytes,
    "b": 4 * DIRECT.size_bytes,
    "c": 8 * PAGE_SIZE,
    "d": 4 * FULL.size_bytes,
}
KINDS = ("mira", "hybrid", "leap")


def _build(kind: str, contention: int, tracer: bool, shared: bool = False):
    """``(system, {name: obj_id})``: ``a`` in the set-associative section,
    ``b`` in the direct-mapped one (``shared``: which ignores hints), ``c``
    on the swap path, ``d`` in the fully-associative section."""
    cost = CostModel()
    if kind == "hybrid":
        system = HybridManager(cost, LOCAL, hybrid_config=HybridConfig(window=16))
        system.plan_group(SET, ["a"], path="object")
    else:
        system = CacheManager(cost, LOCAL, policy="leap" if kind == "leap" else None)
        system.open_section(SET, [])
    system.open_section(replace(DIRECT, shared=shared), [])
    system.open_section(FULL, [])
    system.network.contention = contention
    ids = {
        n: system.allocate(size, elem_size=8, name=n).obj_id
        for n, size in OBJECTS.items()
    }
    if kind != "hybrid":
        system.assign(ids["a"], "set")
    system.assign(ids["b"], "dm")
    system.assign(ids["d"], "fa")
    if tracer:
        system.set_tracer(Tracer())
    return system, ids


def _snapshot(system) -> dict:
    """Everything observable, clock flushed."""
    clock = system.clock
    net = system.network
    swap = system.swap
    out = {
        "now": clock.now,
        "breakdown": list(clock.breakdown().items()),
        "objects": [(o, vars(s).copy()) for o, s in system.stats.per_object.items()],
        "network": vars(net.stats).copy(),
        "by_kind": list(net.stats.by_kind.items()),
        "link_free_at": net._link_free_at,
        "swap": vars(swap.stats).copy(),
        # oldest first: the victim order
        "pages": [
            (e.page, e.obj_id, e.dirty, e.evictable, e.ready_at)
            for e in swap._pages.values()
        ],
        "swap_hinted": list(swap._evictable),
        "access_counter": system._access_counter,
        "peak_metadata": system.peak_metadata_bytes,
        "policy": _policy_state(system.policy),
    }
    for name, section in system.sections().items():
        out[f"stats.{name}"] = vars(section.stats).copy()
        # geometry order: per set oldest first (the victim order)
        out[f"lines.{name}"] = [
            (ln.key, ln.dirty, ln.evictable, ln.ready_at)
            for ln in section.resident_lines()
        ]
        out[f"hinted.{name}"] = section._hinted
        # fully associative: the hinted lines in victim order
        out[f"evictable.{name}"] = list(getattr(section, "_evictable", ()))
        assert section._hinted == sum(ln.evictable for ln in section.resident_lines())
    if isinstance(system, HybridManager):
        out["switch_log"] = [dict(s) for s in system.switch_log]
        out["groups"] = {
            n: (g.path, g.win_acc, g.win_miss, g.win_bytes, g.cooldown)
            for n, g in system.groups().items()
        }
    return out


def _step(system, ids, step, reference: bool) -> None:
    """One verb, after a buffered compute charge (as the IR engine leaves
    one pending before each memory op).  The ``reference`` twin takes a
    section object's hints the per-line way, through the section's
    ``flush_line``/``evict_hint_line`` and ``prefetch_range``, which is
    what the manager's verbs did before they settled in their own frame."""
    charge, verb, name, slot, within, arg = step
    system.clock.charge(charge)
    obj_id = ids[name]
    nbytes = OBJECTS[name]
    width = nbytes // 64
    off = slot * width + within * 8 % width
    section = system.section_of(obj_id)
    if verb == "read" or verb == "write":
        size, native = arg
        if off + size > nbytes:
            size = 8
        system.access(obj_id, off, size, verb == "write", native)
    elif verb == "range":  # wider than the manager's window
        if section is not None:
            first = off // LINE
            section.prefetch_range(obj_id, first, min(first + arg, nbytes // LINE - 1))
    elif verb == "flush" or verb == "hint":  # ``arg`` lines, to the object's end
        size = min(arg * LINE, nbytes - off)
        if not reference or section is None:
            (system.flush if verb == "flush" else system.evict_hint)(obj_id, off, size)
        else:
            if verb == "flush":
                per_line = section.flush_line
            else:
                per_line = section.evict_hint_line
            for i in range(off // LINE, (off + size - 1) // LINE + 1):
                per_line((obj_id, i))
    elif not reference or section is None:
        if verb == "prefetch":
            system.prefetch(obj_id, off, arg * LINE)
        else:
            system.evict_hint_trailing(obj_id, off)
    elif verb == "prefetch":
        first = off // LINE
        last = (off + arg * LINE - 1) // LINE
        window = section._prefetch_window
        section.prefetch_range(obj_id, first, min(last, first + window - 1))
    elif off >= LINE:
        key = (obj_id, off // LINE - 1)
        section.flush_line(key)
        section.evict_hint_line(key)


def _twins(kind: str, contention: int, steps, shared: bool = False) -> None:
    bare, ids = _build(kind, contention, False, shared)
    traced, _ = _build(kind, contention, True, shared)
    assert _snapshot(bare) == _snapshot(traced)
    for step in steps:
        _step(bare, ids, step, reference=False)
        _step(traced, ids, step, reference=True)
        assert _snapshot(bare) == _snapshot(traced), step


_charges = st.sampled_from([0.0, 1.0, 100.0, 2500.0])
_names = st.sampled_from(sorted(OBJECTS))
#: where in the object: one of 64 equal slots (a line of ``a``, half a
#: line of ``b`` and ``d``, an eighth of a page of ``c``), then an element
#: in it
_where = (st.integers(0, 63), st.integers(0, 7))
_access = st.tuples(st.sampled_from([8, 16]), st.booleans())
_steps = st.lists(
    st.one_of(
        st.tuples(
            _charges, st.sampled_from(["read", "write"]), _names, *_where, _access
        ),
        st.tuples(_charges, st.just("prefetch"), _names, *_where, st.integers(1, 3)),
        st.tuples(_charges, st.just("trail"), _names, *_where, st.none()),
        st.tuples(_charges, st.just("range"), _names, *_where, st.integers(0, 24)),
        # up to the whole object: a range smaller or larger than the tag store
        st.tuples(
            _charges, st.sampled_from(["flush", "hint"]), _names, *_where,
            st.integers(1, 64),
        ),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    contention=st.sampled_from([1, 1, 2, 3]),
    steps=_steps,
    shared=st.booleans(),
)
def test_verbs_match_their_traced_twin(kind, contention, steps, shared):
    _twins(kind, contention, steps, shared)


def _seeded():
    """A fixed interleaving through every edge of the fast paths, on
    object ``a``'s 4-way sets (lines ``i``, ``i + 4``, ... share set
    ``i % 4``)."""
    s = []

    def add(verb, name, slot, arg=None, charge=100.0, within=0):
        s.append((charge, verb, name, slot, within, arg))

    for line in range(16):  # lines 2, 5, 8, ... clean, the rest dirty
        add("read" if line % 3 == 2 else "write", "a", line, (8, False))
    add("prefetch", "a", 16, 1)  # evicts dirty line 0: the first write-back
    add("prefetch", "a", 20, 2)  # two absent lines: victims 4 and 1
    add("read", "a", 16, (8, True), charge=0.0)  # in flight: waits
    add("read", "a", 20, (8, False), charge=1e6)  # arrived: stamp cleared
    add("trail", "a", 9)  # clean line 8, hinted
    add("trail", "a", 8)  # dirty line 7: flushed, then hinted
    add("prefetch", "a", 24, 1)  # set 0's hinted victim: line 8
    for line in (28, 32, 36, 40):  # set 0, back to back: 40 evicts 24,
        add("prefetch", "a", line, 1, charge=0.0)  # still in flight
    add("range", "a", 41, 20, charge=0.0)  # later lines evict earlier ones
    add("prefetch", "b", 6, 3)  # direct-mapped: a capped range from line 3
    add("read", "b", 6, (8, False), charge=1e6)
    add("read", "b", 6, (8, True))  # a native hit
    add("read", "c", 0, (8, False))  # swap: fault, then a plain write hit
    add("write", "c", 0, (8, False), within=1)
    add("read", "a", 7, (16, False))  # straddles lines 0 and 1 of ``a``
    add("flush", "a", 40, 6)  # fewer lines than the tag store: over the range
    add("hint", "a", 0, 64)  # the whole object: over the tag store
    add("write", "d", 12, (8, False))  # fully associative: line 6, then 0,
    add("write", "d", 0, (8, False))  # dirty, then...
    add("flush", "d", 0, 32)  # ...flushed and hinted over its tag store,
    add("hint", "d", 0, 32)  # queued in index order (0, then 6)
    add("hint", "b", 0, 32)  # shared or not, over the tag store
    return s


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("contention", [1, 2])
def test_seeded_interleaving_matches_its_traced_twin(kind, contention):
    _twins(kind, contention, _seeded())


def test_seeded_interleaving_takes_every_fast_path():
    """The fixed interleaving reaches each edge it names."""
    system, ids = _build("mira", 2, tracer=False)
    network = system.network
    folded = []  # (reads, writes) of each range booked in one loop

    def posted(nbytes, one_sided, reads, writes, free_at):
        folded.append((reads, writes))
        type(network).posted(network, nbytes, one_sided, reads, writes, free_at)

    network.posted = posted
    passes = []  # (range lines, resident lines) of each range flush or hint
    lines_in = CacheSection._lines_in

    def spy(section, obj_id, offset, size):
        lines = (offset + size - 1) // LINE - offset // LINE + 1
        passes.append((lines, section.resident_count()))
        return lines_in(section, obj_id, offset, size)

    for section in system.sections().values():
        section._lines_in = partial(spy, section)
    for step in _seeded():
        _step(system, ids, step, reference=False)
    assert any(r < n for r, n in passes) and any(r > n for r, n in passes)
    assert any(r == 0 and w > 0 for r, w in folded)  # a flush's write-backs
    # the first fill folds too (the ledgers are keyed from the start);
    # both victims of the second are dirty
    assert folded[:2] == [(1, 1), (2, 2)]
    assert max(r for r, _ in folded) > 16  # a range wider than the section
    stats = system.sections()["set"].stats
    assert stats.hinted_evictions >= 1
    assert stats.prefetch_wasted >= 2  # in flight: one by a call, one in a range
    assert stats.prefetch_hits >= 1
    assert system.swap.stats.hits >= 1


@pytest.mark.parametrize("shared", [False, True])
def test_traced_range_verbs_go_line_by_line(shared):
    """Under a tracer a range flush or hint takes the per-line methods in
    key order: the seeded interleaving leaves the same state and the same
    events, in the same order, whether its ranges go through the manager's
    verbs or the per-line loop; a shared section takes no hint."""
    runs = []
    for per_line in (False, True):
        system, ids = _build("mira", 2, tracer=True, shared=shared)
        for step in _seeded():
            ranged = step[1] in ("flush", "hint")
            _step(system, ids, step, reference=per_line and ranged)
        runs.append((_snapshot(system), list(system.tracer.events)))
    assert runs[0] == runs[1]
    snap, events = runs[0]
    assert sum(kind == "cache.writeback" for kind, _, _ in events) >= 3
    assert (snap["hinted.dm"] == 0) == shared
