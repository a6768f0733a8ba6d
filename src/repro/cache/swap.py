"""Page-granularity swap cache section.

This is Mira's *universal swap section* (paper section 5.3): a user-space
swap system (userfaultfd in the paper) that transparently runs unmodified
code.  Lines are 4 KB OS pages; hits cost nothing extra (the MMU resolves
them), misses pay the kernel fault path plus a one-sided page fetch, and
eviction follows an approximate global LRU with optional compiler hints.

The FastSwap and Leap baselines reuse this machinery -- they are exactly
"a swap section covering the whole heap", with Leap adding a
majority-stride prefetcher.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.cache.stats import SectionStats
from repro.errors import ConfigError
from repro.memsim.address import PAGE_SIZE
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel, grid
from repro.memsim.network import Network


@dataclass(slots=True)
class PageEntry:
    page: int
    obj_id: int
    dirty: bool = False
    evictable: bool = False
    ready_at: float = 0.0


class SwapSection:
    """A pool of physical pages fronting far memory, keyed by page number."""

    def __init__(
        self,
        size_bytes: int,
        cost: CostModel,
        clock: VirtualClock,
        network: Network,
        extra_fault_ns: float = 0.0,
        fault_lock=None,
    ) -> None:
        if size_bytes < PAGE_SIZE:
            raise ConfigError("swap section needs at least one page")
        self.cost = cost
        self.clock = clock
        self.network = network
        self.extra_fault_ns = extra_fault_ns
        #: optional SerialResource modelling the kernel swap lock that
        #: serializes concurrent faults (multi-threading, Fig. 24/25)
        self.fault_lock = fault_lock
        self.capacity_pages = size_bytes // PAGE_SIZE
        self._pages: OrderedDict[int, PageEntry] = OrderedDict()
        self._evictable: OrderedDict[int, None] = OrderedDict()
        self.stats = SectionStats()
        #: attached :class:`repro.obs.Tracer`, or None (tracing disabled)
        self.tracer = None
        #: attached telemetry collector (miss-wait observations), or None
        self.telemetry = None
        #: pre-bound per-kind emitters for the per-access emission sites
        #: (None when detached); cold sites go through ``tracer.emit``
        self._emit_hit = None
        self._emit_fault = None
        self._emit_prefetch_hit = None
        #: attached :class:`repro.prefetch.PrefetchPolicy` receiving
        #: used/wasted feedback for its prefetches (None: no policy)
        self.feedback_policy = None
        #: fault-path constants, resolved once (per-miss path); the swap
        #: lock is held for half the kernel path
        self._fault_ns = cost.page_fault_ns + extra_fault_ns
        self._lock_hold_ns = grid(cost.page_fault_ns * 0.5)

    def set_tracer(self, tracer) -> None:
        """Attach/detach a tracer, pre-binding the per-access emitters
        (the hit and fault sites fire once per program access)."""
        self.tracer = tracer
        if tracer is None:
            self._emit_hit = None
            self._emit_fault = None
            self._emit_prefetch_hit = None
        else:
            self._emit_hit = tracer.emitter("cache.hit")
            self._emit_fault = tracer.emitter("swap.fault")
            self._emit_prefetch_hit = tracer.emitter("cache.prefetch_hit")

    # -- geometry ------------------------------------------------------------

    @staticmethod
    def pages_of(va: int, size: int) -> range:
        if size <= 0:
            size = 1
        return range(va // PAGE_SIZE, (va + size - 1) // PAGE_SIZE + 1)

    # -- data path ----------------------------------------------------------

    def access(self, va: int, size: int, is_write: bool, obj_id: int = 0) -> bool:
        """Touch ``[va, va+size)``; returns True iff all pages were hits."""
        if size <= 0:
            size = 1
        first = va // PAGE_SIZE
        last = (va + size - 1) // PAGE_SIZE
        if first == last:  # fine-grained accesses touch a single page
            return self._access_page(first, is_write, obj_id)
        all_hit = True
        for page in range(first, last + 1):
            hit = self._access_page(page, is_write, obj_id)
            all_hit = all_hit and hit
        return all_hit

    def _access_page(self, page: int, is_write: bool, obj_id: int) -> bool:
        stats = self.stats
        stats.accesses += 1
        pages = self._pages
        # (two operators, not ``pages.get``: no call on the fault path)
        if page in pages:
            entry = pages[page]
            pages.move_to_end(page)
            if is_write:
                entry.dirty = True
            if entry.evictable:
                entry.evictable = False
                self._evictable.pop(page, None)
            ready_at = entry.ready_at
            timely = False
            if ready_at:
                clock = self.clock
                if ready_at > clock.now:
                    wait = ready_at - clock.now
                    clock.wait_until(ready_at, "miss_wait")
                    stats.miss_wait_ns += wait
                    tel = self.telemetry
                    if tel is not None:
                        tel.observe_miss_wait(wait)
                    stats.prefetch_hits += 1
                    stats.misses += 1
                    entry.ready_at = 0.0
                    em = self._emit_prefetch_hit
                    if em is not None:
                        em(
                            clock.now,
                            sec="swap",
                            obj=obj_id,
                            line=page,
                            wait=wait,
                        )
                    self._feedback(page, True, False)
                    return False
                # prefetch settled: clear the marker so eviction sees a
                # plain resident page, not a stale in-flight one
                entry.ready_at = 0.0
                timely = True
            stats.hits += 1
            em = self._emit_hit
            if em is not None:
                em(self.clock.now, sec="swap", obj=obj_id, line=page)
            if timely:
                self._feedback(page, True, True)
            return True
        # page fault: kernel path, then a one-sided page read (recorded
        # on the network so traffic accounting sees the amplification)
        stats.misses += 1
        lock = self.fault_lock
        if lock is not None:
            lock.acquire(self.clock, self._lock_hold_ns)
        if len(pages) >= self.capacity_pages:
            self._evict_one()
        fault_ns = self._fault_ns
        self.clock.advance(fault_ns, "page_fault")
        wire_ns = self.network.read(PAGE_SIZE)
        stats.miss_wait_ns += fault_ns + wire_ns
        tel = self.telemetry
        if tel is not None:
            tel.observe_miss_wait(fault_ns + wire_ns)
        pages[page] = PageEntry(page, obj_id, is_write)
        em = self._emit_fault
        if em is not None:
            em(
                self.clock.now,
                obj=obj_id,
                line=page,
                wait=fault_ns + wire_ns,
                write=is_write,
                kern=fault_ns,
            )
        return False

    def fold(self, pairs, base_va: int, size: int, record=None, obj_id=None):
        """Consume ``(offset, write)`` pairs, folding every plain event.

        The one fold loop of the swap path (``bulk_access`` of FastSwap,
        Leap and the manager's swap branch).  A plain hit lands inside one
        resident page that is settled (``ready_at`` clear) and un-hinted:
        its recency and dirty bit are updated in place.  A plain fault,
        folded only for a caller that passes ``obj_id``, lands inside an
        absent page while the link is idle, and a full pool's victim, clean
        or dirty, is settled: ``_evict_one`` + ``_access_page`` are done in
        place, the clock untouched.  Yields ``(hits, faults, dirty,
        offset, write)`` at every other pair -- a stamped victim, a booked
        link, a stamped or hinted page, a straddle -- with the events
        folded since the last yield (``dirty`` of the faults wrote their
        victim back), counted in ``stats`` but owed their clock charges,
        reads, write-backs and ``miss_wait_ns`` by the caller, who then
        takes the pair down its per-access path.  Events that end the
        stream come as a last ``(hits, faults, dirty, None, None)``.

        ``record`` is the ``record`` of a prefetch policy whose repeats
        are no-ops (or None, as it must be when faults fold: a policy
        plans on every fault).  Only a repeat *within* a run skips it and
        the recency move: a run's first hit does both even on the page of
        the access just before the run, whose fault inserted its
        prefetches behind that page.  Tracing, telemetry, a fault plan and
        (for faults) a swap lock must be off.
        """
        pages = self._pages
        touch = pages.move_to_end
        hinted = self._evictable
        stats = self.stats
        room = PAGE_SIZE - size  # last in-page byte an access may start at
        hits = faults = dirty = 0
        last = entry = None  # the previous page of this run, and its entry
        # may a fault fold (the sync read cannot queue), and how many pages
        # are free: only the per-access path changes either, so they are
        # re-read after each yield
        network = self.network
        plain = obj_id is not None and not network._link_free_at
        free = self.capacity_pages - len(pages) if plain else 0
        for off, w in pairs:
            va = base_va + off
            if va % PAGE_SIZE <= room:  # else: straddles into the next page
                page = va // PAGE_SIZE
                if page == last:
                    if w:
                        entry.dirty = True
                    hits += 1
                    continue
                # (two operators, not ``pages.get``: no call on the miss path)
                if page in pages:
                    found = pages[page]
                    if not found.ready_at and not found.evictable:
                        last, entry = page, found
                        touch(page)
                        if record is not None:
                            record(page)
                        if w:
                            found.dirty = True
                        hits += 1
                        continue
                elif plain:
                    if free <= 0:
                        # ``_evict_one``'s victim -- the oldest hinted page,
                        # else the LRU head (a first key, read without a
                        # call) -- goes here only if settled (an in-flight
                        # fetch reads the clock)
                        for vpage in hinted or pages:
                            break
                        victim = pages[vpage]
                        if not victim.ready_at:
                            if hinted:
                                del hinted[vpage]
                                stats.hinted_evictions += 1
                            del pages[vpage]
                            stats.evictions += 1
                            if victim.dirty:
                                dirty += 1
                            free = 1
                    if free > 0:
                        free -= 1
                        last = page
                        entry = pages[page] = PageEntry(
                            page, obj_id, True if w else False
                        )
                        faults += 1
                        continue
            if hits or faults:
                stats.accesses += hits + faults
                stats.hits += hits
                stats.misses += faults
                stats.writebacks += dirty
            yield hits, faults, dirty, off, w
            hits = faults = dirty = 0
            last = None
            if obj_id is not None:
                plain = not network._link_free_at
                free = self.capacity_pages - len(pages) if plain else 0
        if hits or faults:
            stats.accesses += hits + faults
            stats.hits += hits
            stats.misses += faults
            stats.writebacks += dirty
            yield hits, faults, dirty, None, None

    def prefetch(self, page: int, obj_id: int = 0) -> None:
        """Asynchronously map a page ahead of demand."""
        pages = self._pages
        if page in pages:
            return
        if len(pages) >= self.capacity_pages:
            self._evict_one()
        ready = self.network.post(PAGE_SIZE)
        pages[page] = PageEntry(page, obj_id, False, False, ready)
        self.stats.prefetches_issued += 1
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "cache.prefetch",
                self.clock.now,
                sec="swap",
                obj=obj_id,
                line=page,
                ready=ready,
            )

    def contains(self, page: int) -> bool:
        return page in self._pages

    def evict_hint(self, va: int, size: int) -> None:
        for page in self.pages_of(va, size):
            entry = self._pages.get(page)
            if entry is not None:
                entry.evictable = True
                self._evictable[page] = None

    def flush(self, va: int, size: int) -> None:
        for page in self.pages_of(va, size):
            entry = self._pages.get(page)
            if entry is not None and entry.dirty:
                self.network.post(PAGE_SIZE, write=True)
                entry.dirty = False
                self.stats.writebacks += 1
                tr = self.tracer
                if tr is not None:
                    tr.emit(
                        "cache.writeback",
                        self.clock.now,
                        sec="swap",
                        obj=entry.obj_id,
                        line=page,
                        flush=True,
                    )

    def drop_object(self, obj_id: int) -> None:
        """Unmap every page of an object (it moved to its own section or
        its lifetime ended); dirty pages are written back asynchronously."""
        doomed = [p for p, e in self._pages.items() if e.obj_id == obj_id]
        for page in doomed:
            entry = self._pages.pop(page)
            self._evictable.pop(page, None)
            if entry.ready_at and entry.ready_at > self.clock.now:
                # an in-flight prefetch discarded with the object: wasted
                # (the eviction path counts its own; this is close/migrate)
                self.stats.prefetch_wasted += 1
                self._feedback(page, False)
            if entry.dirty:
                self.network.post(PAGE_SIZE, write=True)
                self.stats.writebacks += 1
                tr = self.tracer
                if tr is not None:
                    tr.emit(
                        "cache.writeback",
                        self.clock.now,
                        sec="swap",
                        obj=entry.obj_id,
                        line=page,
                    )

    def resize(self, size_bytes: int) -> None:
        """Grow or shrink the page pool; shrinking evicts LRU pages."""
        if size_bytes < PAGE_SIZE:
            raise ConfigError("swap section needs at least one page")
        self.capacity_pages = size_bytes // PAGE_SIZE
        while len(self._pages) > self.capacity_pages:
            self._evict_one()

    # -- internals ----------------------------------------------------------

    def _evict_one(self) -> None:
        """Evict one page: the oldest hinted one, else the LRU head --
        unless the head's prefetch is still in flight and some settled
        page can go in its place.  Callers test for a full pool."""
        pages = self._pages
        wasted = False
        if self._evictable:
            page = self._evictable.popitem(last=False)[0]
            entry = pages.pop(page)
            self.stats.hinted_evictions += 1
            hinted = True
            if entry.ready_at and entry.ready_at > self.clock.now:
                wasted = True
        else:
            page, entry = pages.popitem(last=False)
            if entry.ready_at and entry.ready_at > self.clock.now:
                # the LRU head's prefetch is still in flight: prefer a
                # settled victim so the fetch is not thrown away unread.
                # The head goes back at the front first, so a head that
                # stays keeps its place in the LRU order
                pages[page] = entry
                pages.move_to_end(page, last=False)
                now = self.clock.now
                for p, e in pages.items():
                    if not e.ready_at or e.ready_at <= now:
                        page, entry = p, e
                        break
                else:
                    wasted = True  # every page is in flight: one must go
                del pages[page]
            hinted = False
        if wasted:
            self.stats.prefetch_wasted += 1
        self.stats.evictions += 1
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "cache.evict",
                self.clock.now,
                sec="swap",
                obj=entry.obj_id,
                line=page,
                dirty=entry.dirty,
                hinted=hinted,
                wb=self.cost.page_writeback_ns if entry.dirty else 0.0,
            )
        if entry.dirty:
            self.clock.advance(self.cost.page_writeback_ns, "eviction")
            self.network.post(PAGE_SIZE, write=True)
            self.stats.writebacks += 1
        if wasted:
            self._feedback(page, False)

    def _feedback(self, page: int, useful: bool, timely: bool = False) -> None:
        """Report a prefetched page's fate to the attached policy."""
        fp = self.feedback_policy
        if fp is None:
            return
        fp.feedback(page, useful, timely)
        if fp.traced and self.tracer is not None:
            self.tracer.emit(
                "prefetch.feedback",
                self.clock.now,
                pol=fp.name,
                line=page,
                useful=useful,
                timely=timely,
            )

    # -- reporting -----------------------------------------------------------

    def metadata_bytes(self) -> int:
        """Page-table-like bookkeeping: 8 bytes per resident page."""
        return len(self._pages) * 8

    def resident_pages(self) -> int:
        return len(self._pages)
