"""``SwapSection`` against a list-LRU model, step by step.

The section keeps recency in an ``OrderedDict`` and evicts with
``popitem`` / ``move_to_end``; the model below keeps one Python list,
oldest first, and finds everything by scanning it.  Both drive their own
real ``VirtualClock`` and ``Network``, so after every step of a random
sequence -- access, write, ``prefetch``, a policy's plan (``prefetch_pages``,
which books on one lent link through ``_book``, against the model's page
by page ``prefetch``), ``evict_hint``, a clock advance short of or past
the in-flight ``ready_at`` values, ``resize`` -- the two must agree on
the victims, the page order with every ``PageEntry`` field,
the hinted set, every counter, the network's traffic and the clock's
breakdown, bit for bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.stats import SectionStats
from repro.cache.swap import SwapSection
from repro.memsim.address import PAGE_SIZE, ObjectInfo
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.network import Network

NUM_PAGES = 8  # page numbers in play; capacities are 1..4
#: the object a hint names: every page in play, from address 0
OBJ = ObjectInfo(obj_id=1, size=NUM_PAGES * PAGE_SIZE, elem_size=8, base_va=0)


class _Feedback:
    """A stand-in prefetch policy: remembers what it was told."""

    name = "recorder"
    traced = False

    def __init__(self) -> None:
        self.log: list[tuple] = []

    def feedback(self, page: int, useful: bool, timely: bool) -> None:
        self.log.append((page, useful, timely))


class ListLRU:
    """What ``SwapSection`` does, written the slow and obvious way."""

    def __init__(self, capacity: int, cost: CostModel) -> None:
        self.cost = cost
        self.clock = VirtualClock()
        self.network = Network(cost, self.clock)
        self.capacity = capacity
        #: ``[page, obj_id, dirty, evictable, ready_at]``, oldest first
        self.rows: list[list] = []
        #: hinted pages, in the order they were first hinted
        self.hinted: list[int] = []
        self.stats = SectionStats()
        self.victims: list[int] = []
        self.feedback: list[tuple] = []

    def _row(self, page: int):
        for row in self.rows:
            if row[0] == page:
                return row
        return None

    def _in_flight(self, row) -> bool:
        return row[4] > self.clock.now  # 0.0 (settled for good) never is

    def access(self, page: int, write: bool, obj_id: int) -> None:
        stats = self.stats
        stats.accesses += 1
        row = self._row(page)
        if row is None:
            stats.misses += 1
            if len(self.rows) >= self.capacity:
                self.evict()
            self.clock.advance(self.cost.page_fault_ns, "page_fault")
            wire = self.network.read(PAGE_SIZE)
            stats.miss_wait_ns += self.cost.page_fault_ns + wire
            self.rows.append([page, obj_id, write, False, 0.0])
            return
        self.rows.remove(row)
        self.rows.append(row)
        row[2] = row[2] or write
        if row[3]:
            row[3] = False
            self.hinted.remove(page)
        prefetched, row[4] = row[4], 0.0
        if prefetched > self.clock.now:  # arrived early: wait the rest out
            stats.miss_wait_ns += prefetched - self.clock.now
            self.clock.wait_until(prefetched, "miss_wait")
            stats.prefetch_hits += 1
            stats.misses += 1
            self.feedback.append((page, True, False))
            return
        stats.hits += 1
        if prefetched:
            self.feedback.append((page, True, True))

    def prefetch(self, page: int, obj_id: int) -> None:
        if self._row(page) is not None:
            return
        if len(self.rows) >= self.capacity:
            self.evict()
        ready = self.network.post(PAGE_SIZE)
        self.rows.append([page, obj_id, False, False, ready])
        self.stats.prefetches_issued += 1

    def plan(self, pages: list[int], obj_id: int, budget: int) -> None:
        issued = 0
        for page in pages:
            if issued >= budget:
                break
            if page >= 0 and self._row(page) is None:
                self.prefetch(page, obj_id)
                issued += 1

    def hint(self, page: int) -> None:
        row = self._row(page)
        if row is not None:
            row[3] = True
            if page not in self.hinted:
                self.hinted.append(page)

    def resize(self, capacity: int) -> None:
        self.capacity = capacity
        while len(self.rows) > capacity:
            self.evict()

    def evict(self) -> None:
        stats = self.stats
        if self.hinted:
            row = self._row(self.hinted.pop(0))
            stats.hinted_evictions += 1
        else:
            # the oldest page whose data has landed; if every page is
            # still in flight, the oldest page
            settled = [r for r in self.rows if not self._in_flight(r)]
            row = settled[0] if settled else self.rows[0]
        wasted = self._in_flight(row)
        self.rows.remove(row)
        self.victims.append(row[0])
        stats.prefetch_wasted += wasted
        stats.evictions += 1
        if row[2]:
            self.clock.advance(self.cost.page_writeback_ns, "eviction")
            self.network.post(PAGE_SIZE, write=True)
            stats.writebacks += 1
        if wasted:
            self.feedback.append((row[0], False, False))


def _pair(capacity: int):
    cost = CostModel()
    clock = VirtualClock()
    real = SwapSection(capacity * PAGE_SIZE, cost, clock, Network(cost, clock))
    real.feedback_policy = _Feedback()
    return real, ListLRU(capacity, cost)


def _apply(real: SwapSection, model: ListLRU, step) -> str | None:
    """One step on both; returns which ``_evict_one`` case it took, if it
    evicted exactly once (read off the model's state *before* the step)."""
    kind, arg = step[0], step[1]
    now = model.clock.now
    in_flight = [row[4] > now for row in model.rows]
    case = None
    if model.hinted:
        case = "hinted"
    elif in_flight and not in_flight[0]:
        case = "settled head"
    elif in_flight and not all(in_flight):
        case = "in-flight head, settled page behind"
    elif in_flight:
        case = "every page in flight"
    before = list(real._pages)
    evictions = model.stats.evictions
    victims = len(model.victims)
    issued_before = model.stats.prefetches_issued
    if kind == "access":
        obj_id = arg % 3
        real.access(arg * PAGE_SIZE + 8, 8, step[2], obj_id)
        model.access(arg, step[2], obj_id)
    elif kind == "prefetch":
        real.prefetch(arg, arg % 3)
        model.prefetch(arg, arg % 3)
    elif kind == "plan":
        booked, calls = real._book, []
        real._book = lambda *args: calls.append(args) or booked(*args)
        issued = real.prefetch_pages([(p, 1) for p in arg], step[2])
        del real._book
        assert len(calls) == 1  # one booking on a lent link
        model.plan(arg, 1, step[2])
        assert issued == model.stats.prefetches_issued - issued_before
    elif kind == "hint":
        real.evict_hint(OBJ, arg * PAGE_SIZE, 8)
        model.hint(arg)
    elif kind == "tick":
        real.clock.advance(arg, "compute")
        model.clock.advance(arg, "compute")
    else:
        real.resize(arg * PAGE_SIZE)
        model.resize(arg)
    _assert_same(real, model)
    # (a resize or a plan may evict several, a plan some of its own pages;
    # the section shows which of the pages it held are gone, not the order)
    gone = {p for p in before if p not in real._pages}
    assert gone == set(model.victims[victims:]) & gone
    return case if model.stats.evictions == evictions + 1 else None


def _assert_same(real: SwapSection, model: ListLRU) -> None:
    assert [
        [e.page, e.obj_id, e.dirty, e.evictable, e.ready_at]
        for e in real._pages.values()
    ] == model.rows
    assert list(real._pages) == [row[0] for row in model.rows]
    assert list(real._evictable) == model.hinted
    assert real.capacity_pages == model.capacity
    assert vars(real.stats) == vars(model.stats)
    assert vars(real.network.stats) == vars(model.network.stats)
    assert real.network._link_free_at == model.network._link_free_at
    assert real.clock.now == model.clock.now
    assert real.clock.breakdown() == model.clock.breakdown()
    assert real.feedback_policy.log == model.feedback


_page = st.integers(0, NUM_PAGES - 1)
_step = st.one_of(
    st.tuples(st.just("access"), _page, st.booleans()),
    # twice: in-flight pages are what the eviction cases differ on
    st.tuples(st.just("prefetch"), _page),
    st.tuples(st.just("prefetch"), _page),
    # a policy's plan: negative, resident and repeated pages, and pages
    # past its budget
    st.tuples(
        st.just("plan"),
        st.lists(st.integers(-2, NUM_PAGES - 1), max_size=8),
        st.integers(0, 4),
    ),
    st.tuples(st.just("hint"), _page),
    # a page read's wire time is ~3.66 us: short of it, and well past it
    st.tuples(st.just("tick"), st.sampled_from([40.0, 900.0, 50_000.0])),
    st.tuples(st.just("resize"), st.integers(1, 4)),
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 4), steps=st.lists(_step, min_size=1, max_size=60))
def test_swap_section_matches_list_lru(capacity, steps):
    real, model = _pair(capacity)
    for step in steps:
        _apply(real, model, step)


def test_every_eviction_case_is_reached():
    """The four ways ``_evict_one`` picks a victim, on one fixed sequence
    (so the property above is known to mean something for each)."""
    real, model = _pair(3)
    seen = []
    for step in [
        ("access", 0, True),
        ("access", 1, False),
        ("access", 2, False),
        ("access", 3, False),      # full, nothing in flight: page 0, dirty
        ("hint", 2),
        ("prefetch", 4),           # hinted: page 2 goes, not LRU page 1
        ("access", 1, False),
        ("access", 3, False),      # page 4 (in flight) is now the LRU head
        ("prefetch", 5),           # ... so settled page 1 goes in its place
        ("prefetch", 6),           # head 4 still in flight; page 3 goes
        ("prefetch", 7),           # 4, 5, 6 all in flight: 4 is wasted
        ("tick", 50_000.0),
        ("access", 5, False),      # landed long ago: a timely prefetch
        ("resize", 1),             # two evictions in one step
    ]:
        seen.append(_apply(real, model, step))
    assert [case for case in seen if case] == [
        "settled head",
        "hinted",
        "in-flight head, settled page behind",
        "in-flight head, settled page behind",
        "every page in flight",
    ]
    assert model.victims == [0, 2, 1, 3, 4, 6, 7]
    assert real.stats.prefetch_wasted == 1 and real.stats.hinted_evictions == 1
    assert real.stats.writebacks == 1
    assert real.feedback_policy.log == [(4, False, False), (5, True, True)]


@pytest.mark.parametrize("capacity", [1, 2])
def test_in_flight_head_keeps_its_place(capacity):
    """The head that is spared goes back to the *front*: the next
    eviction, once everything has landed, takes it first."""
    real, model = _pair(capacity + 1)
    steps = [("access", 9 + i, False) for i in range(capacity)]
    steps += [("prefetch", 0)]
    steps += [("access", 9 + i, False) for i in range(capacity)]  # 0 is head
    steps += [("prefetch", 1)]  # spares in-flight page 0, evicts page 9
    steps += [("tick", 50_000.0), ("prefetch", 2)]  # all settled: 0 goes
    for step in steps:
        _apply(real, model, step)
    assert model.victims == [9, 0]


def test_every_eviction_case_is_reached_by_a_plan():
    """The same cases, each victim taken by a policy's plan booked on one
    lent link (``SwapSection._book``): a dirty settled head, a hinted
    page, a settled page behind an in-flight head, and an in-flight head
    when every page is in flight -- wasted, and reported so."""
    real, model = _pair(3)
    seen = []
    for step in [
        ("access", 0, True),
        ("access", 1, False),
        ("access", 2, False),
        ("plan", [3], 4),            # dirty head 0: write-back, then read
        ("hint", 1),
        ("plan", [-1, 3, 4, 4], 4),  # hinted 1 goes; -1, 3 and a repeat skip
        ("access", 2, False),        # in-flight 3 is now the LRU head
        ("plan", [5], 4),            # ... so settled page 2 goes instead
        ("plan", [6, 7], 1),         # 3, 4, 5 in flight: 3 wasted; 7 past budget
    ]:
        seen.append(_apply(real, model, step))
    assert [case for case in seen if case] == [
        "settled head",
        "hinted",
        "in-flight head, settled page behind",
        "every page in flight",
    ]
    assert model.victims == [0, 1, 2, 3]
    assert real.stats.writebacks == 1 and real.stats.hinted_evictions == 1
    assert real.stats.prefetch_wasted == 1
    assert real.feedback_policy.log == [(3, False, False)]
    assert list(real._pages) == [4, 5, 6]
