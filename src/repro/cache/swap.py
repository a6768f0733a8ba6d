"""Page-granularity swap cache section.

This is Mira's *universal swap section* (paper section 5.3): a user-space
swap system (userfaultfd in the paper) that transparently runs unmodified
code.  Lines are 4 KB OS pages; hits cost nothing extra (the MMU resolves
them), misses pay the kernel fault path plus a one-sided page fetch, and
eviction follows an approximate global LRU with optional compiler hints.

The FastSwap and Leap baselines are exactly "a swap section covering the
whole heap": a :class:`~repro.cache.manager.CacheManager` that never opens
a cache section, with Leap adding a slower fault path and a prefetch
policy.  This class is the per-access path; the manager's walker
(``CacheManager.fold_chunk``) folds plain hits, faults and arrived
prefetches over its pages.
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

    def prefetch_pages(self, plan, budget: int) -> int:
        """Prefetch the absent, non-negative pages of ``plan`` -- pairs
        ``(page, obj_id)``, each page labelled with the object that owns
        it -- at most ``budget``; returns how many.  Booked in one loop on
        a lent link (:meth:`_book`) when no tracer or telemetry listens,
        else page by page (:meth:`prefetch`)."""
        listened = self.tracer is not None or self.telemetry is not None
        link = None if listened else self.network.link(PAGE_SIZE, True)
        if link is not None:
            free_at, reads, writes = self._book(plan, budget, *link)
            if writes:
                self.clock.advance(writes * self.cost.page_writeback_ns, "eviction")
            self.network.posted(PAGE_SIZE, True, reads, writes, free_at)
            return reads
        issued = 0
        for p, obj_id in plan:
            if issued >= budget:
                break
            if p >= 0 and p not in self._pages:
                self.prefetch(p, obj_id)
                issued += 1
        return issued

    def _book(self, plan, budget, now, free_at, wire, base, issue):
        """:meth:`prefetch_pages` on a lent link: each read, behind its
        dirty victim's write-back, booked by :meth:`Network.post`'s rule on
        a local ``now`` and ``free_at``, in the victim's entry.  The caller
        owes the clock ``writes`` write-backs and :meth:`Network.posted`."""
        pages = self._pages
        wb = self.cost.page_writeback_ns
        reads = writes = heads = 0
        for p, obj_id in plan:
            if reads >= budget:
                break
            if p < 0 or p in pages:
                continue
            if len(pages) >= self.capacity_pages:
                for page in pages:  # the LRU head, read without a call
                    break
                entry = pages[page]
                if self._evictable or entry.ready_at > now:
                    page, entry, _, wasted = self._victim(now)
                    if wasted:
                        self._feedback(page, False)
                else:  # a settled head and no hint: the victim
                    del pages[page]
                    heads += 1
                if entry.dirty:
                    now += wb
                    writes += 1
                    free_at = (free_at if free_at > now else now) + wire
                    now += issue
                entry.page, entry.obj_id = p, obj_id
                entry.dirty = entry.evictable = False
            else:
                entry = PageEntry(p, obj_id)
            free_at = (free_at if free_at > now else now) + wire
            entry.ready_at = free_at + base
            pages[p] = entry
            now += issue
            reads += 1
        self.stats.prefetches_issued += reads
        self.stats.evictions += heads
        self.stats.writebacks += writes
        return free_at, reads, writes

    def contains(self, page: int) -> bool:
        return page in self._pages

    def _pages_in(self, obj, offset: int, size: int) -> list[int]:
        """The resident pages ``[offset, offset+size)`` of ``obj`` touches
        (objects are page-aligned, a guard page apart: a page's number
        names its owner), ascending, from one pass over the smaller of the
        range and the pool.  An ``offset`` outside the object raises."""
        va = obj.va_of(offset)
        first = va // PAGE_SIZE
        last = (va + (size if size > 0 else 1) - 1) // PAGE_SIZE
        pages = self._pages
        if last - first < len(pages):
            return [p for p in range(first, last + 1) if p in pages]
        return sorted(p for p in pages if first <= p <= last)

    def evict_hint(self, obj, offset: int, size: int) -> None:
        pages = self._pages
        for page in self._pages_in(obj, offset, size):
            pages[page].evictable = True
            self._evictable[page] = None

    def flush(self, obj, offset: int, size: int) -> None:
        pages = self._pages
        for page in self._pages_in(obj, offset, size):
            entry = pages[page]
            if entry.dirty:
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

    def drop(self, obj, offset: int, size: int) -> None:
        """Unmap the pages of the range (as :meth:`_pages_in`) in LRU
        order, from one pass over the pool: the object moved to its own
        section or its lifetime ended.  Dirty pages are written back."""
        va = obj.va_of(offset)
        first = va // PAGE_SIZE
        last = (va + (size if size > 0 else 1) - 1) // PAGE_SIZE
        pages = self._pages
        for page in [p for p in pages if first <= p <= last]:
            entry = pages.pop(page)
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
        """Evict :meth:`_victim`'s page.  Callers test for a full pool."""
        page, entry, hinted, wasted = self._victim()
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

    def _victim(self, now=None):
        """Take the victim out of the pool, counted: the oldest hinted
        page, else the LRU head -- unless its prefetch is in flight at
        ``now`` (None: the clock's, read only then) and a settled page can
        go instead.  Returns ``(page, entry, hinted, wasted)``."""
        pages = self._pages
        stats = self.stats
        stats.evictions += 1
        hinted = wasted = False
        if self._evictable:
            page = self._evictable.popitem(last=False)[0]
            entry = pages.pop(page)
            stats.hinted_evictions += 1
            hinted = True
        else:
            page, entry = pages.popitem(last=False)
        if entry.ready_at:
            if now is None:
                now = self.clock.now
            wasted = entry.ready_at > now
            if wasted and not hinted:
                # a settled page goes instead, so the fetch is not thrown
                # away; the head keeps its place at the front
                pages[page] = entry
                pages.move_to_end(page, last=False)
                for p, e in pages.items():
                    if e.ready_at <= now:
                        page, entry, wasted = p, e, False
                        break
                del pages[page]  # (every page in flight: the head goes)
        if wasted:
            stats.prefetch_wasted += 1
        return page, entry, hinted, wasted

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
