"""FastSwap baseline (Amaro et al., EuroSys'20).

A Linux kernel swap system over RDMA with an optimized fault datapath and
polling.  Characteristics the paper's comparisons exercise:

* 4 KB page granularity -> read/write amplification for fine accesses;
* no program knowledge -> demand paging only, global LRU eviction;
* zero per-access overhead on hits (pages are MMU-mapped);
* the swap datapath serializes under multi-threading (Fig. 24/25).
"""

from __future__ import annotations

from repro.cache.interface import MemorySystem
from repro.cache.swap import SwapSection
from repro.memsim.address import PAGE_SIZE
from repro.memsim.clock import VirtualClock
from repro.memsim.resources import SerialResource
from repro.prefetch import make_policy


class FastSwap(MemorySystem):
    """Whole-heap page swapping with demand paging.

    ``policy`` attaches an optional :class:`~repro.prefetch.PrefetchPolicy`
    (instance or name): the policy observes every touched page, proposes
    prefetches on demand misses, and receives used/wasted feedback from
    the swap section.  FastSwap itself defaults to no policy.
    """

    name = "fastswap"

    def __init__(
        self, cost, local_mem_bytes, clock=None, num_threads=1, policy=None
    ) -> None:
        super().__init__(cost, local_mem_bytes, clock)
        self.fault_lock = SerialResource("swap-lock") if num_threads > 1 else None
        self.swap = SwapSection(
            local_mem_bytes,
            cost,
            self.clock,
            self.network,
            extra_fault_ns=self._extra_fault_ns(),
            fault_lock=self.fault_lock,
        )
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy
        if policy is not None:
            policy.bind(self)
            self.swap.feedback_policy = policy
        #: obj_id -> (ObjectInfo, ObjectStats, base_va, size limit); ids are
        #: never reused, so entries stay valid for the system's lifetime
        self._obj_cache: dict[int, tuple] = {}
        #: skip the per-access hook unless a policy is attached or a
        #: subclass overrides it
        self._has_after_hook = (
            policy is not None
            or type(self)._after_access is not FastSwap._after_access
        )

    def _extra_fault_ns(self) -> float:
        return 0.0

    def set_clock(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.network.clock = clock
        self.far_node.clock = clock
        self.swap.clock = clock

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        self.network.tracer = tracer
        self._bind_access_log(tracer)
        self.swap.set_tracer(tracer)

    def set_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self.swap.telemetry = telemetry

    def access(
        self,
        obj_id: int,
        offset: int,
        size: int,
        is_write: bool,
        native: bool = False,
    ) -> None:
        rec = self._rec_access
        if rec is not None:
            rec(self.clock.now, obj=obj_id, off=offset, size=size, w=is_write)
        entry = self._obj_cache.get(obj_id)
        if entry is None:
            obj = self.address_space.get(obj_id)
            entry = (obj, self.stats.object(obj_id), obj.base_va, obj.size)
            self._obj_cache[obj_id] = entry
        obj, ostats, base_va, limit = entry
        sz = size if size > 0 else 1
        if offset < 0 or offset + sz > limit:
            raise obj.out_of_bounds(offset, size)
        ostats.accesses += 1
        # single-page fast path (most accesses are fine-grained and land
        # on one page)
        va = base_va + offset
        first = va // PAGE_SIZE
        if (va + sz - 1) // PAGE_SIZE == first:
            hit = self.swap._access_page(first, is_write, obj_id)
        else:
            hit = self.swap.access(va, size, is_write, obj_id)
        if not hit:
            ostats.misses += 1
        if self._has_after_hook:
            self._after_access(obj, offset, size, hit)

    def _after_access(self, obj, offset: int, size: int, hit: bool) -> None:
        """Drive the attached prefetch policy (record stream + plan on miss)."""
        policy = self.policy
        if policy is None:
            return
        va = obj.va_of(offset)
        swap = self.swap
        for page in swap.pages_of(va, size):
            policy.record(page)
        if hit:
            return
        # a demand miss: ask the policy for future pages
        plan = policy.plan(va // PAGE_SIZE)
        if not plan:
            return
        tracer = self.tracer
        if tracer is not None and policy.traced:
            tracer.emit(
                "prefetch.plan",
                self.clock.now,
                pol=policy.name,
                line=va // PAGE_SIZE,
                n=len(plan),
            )
        # cap issuance below the section capacity: a plan longer than the
        # cache would evict the page just faulted in (and then each other),
        # turning an aggressive window into guaranteed thrashing
        budget = swap.capacity_pages - 1
        for p in plan:
            if budget <= 0:
                break
            if p >= 0 and not swap.contains(p):
                swap.prefetch(p, obj.obj_id)
                policy.issued += 1
                budget -= 1

    # -- bulk path (codegen engine, trace replay) ---------------------------

    def _fold_ok(self) -> bool:
        """May hits be counted in aggregate right now?  The
        eligibility test of the bulk path, mirror of
        :meth:`CacheManager._fold_ok`.  No: when anything observes single
        accesses (tracer and its access log, telemetry windows, a
        prefetch policy whose ``record`` counts repeats, a subclass's own
        ``_after_access``) or under a fault plan."""
        policy = self.policy
        return (
            self.tracer is None
            and self.telemetry is None
            and self.network.faults is None
            and (policy is None or policy.repeat_is_noop)
            and type(self)._after_access is FastSwap._after_access
        )

    def _entry(self, obj_id: int) -> tuple:
        """``_obj_cache`` lookup for the bulk path (``access`` inlines it)."""
        entry = self._obj_cache.get(obj_id)
        if entry is None:
            obj = self.address_space.get(obj_id)
            entry = (obj, self.stats.object(obj_id), obj.base_va, obj.size)
            self._obj_cache[obj_id] = entry
        return entry

    def bulk_access(
        self, obj_id, offsets, writes, size, dram_ns, before_ns, after_ns
    ) -> bool:
        """The bulk path (contract: :meth:`MemorySystem.bulk_access`):
        :meth:`SwapSection.fold` takes each run of plain page hits -- and,
        with no policy to plan on a fault and no swap lock to queue on, of
        plain faults, dirty victims included -- settled here in one step
        immediately before the pair that stopped it, which takes the
        unchanged fault path and policy hook."""
        if len(offsets) != len(writes):
            raise ValueError(
                f"bulk_access: {len(offsets)} offsets for {len(writes)} write flags"
            )
        if size <= 0 or not self._fold_ok():
            return False
        if not offsets:
            return True
        obj, ostats, base_va, limit = self._entry(obj_id)
        if min(offsets) < 0 or max(offsets) + size > limit:
            return False  # the per-element path raises the canonical error
        clock = self.clock
        swap = self.swap
        policy = self.policy
        record = None if policy is None else policy.record
        folds_faults = policy is None and self.fault_lock is None
        fault_ns = swap._fault_ns
        room = PAGE_SIZE - size
        for hits, faults, dirty, off, w in swap.fold(
            zip(offsets, writes), base_va, size, record,
            obj_id if folds_faults else None,
        ):
            n = hits + faults
            if n:  # swap hits themselves are free
                # in per-element order: a fault's eviction, kernel path
                # and read come between its ``before_ns`` and its
                # ``after_ns`` (a write-back goes out ``fault_ns`` ahead
                # of the read behind it)
                clock.advance(n * dram_ns, "dram")
                clock.charge(n * before_ns)
                if faults:
                    if dirty:
                        clock.advance(dirty * swap.cost.page_writeback_ns, "eviction")
                    clock.advance(faults * fault_ns, "page_fault")
                    stall = self.network.read(PAGE_SIZE, True, faults, dirty, fault_ns)
                    swap.stats.miss_wait_ns += faults * fault_ns + stall
                    ostats.misses += faults
                if after_ns:
                    clock.charge(n * after_ns)
                ostats.accesses += n
                if off is None:
                    break
            # ``advance``, not ``charge``: the ``dram`` advance leaves the
            # buffer empty, so the flush a fault's first advance would pay
            # adds exactly ``before_ns``; adding it here saves that call
            clock.advance(dram_ns, "dram")
            if before_ns:
                clock.advance(before_ns, "compute")
            va = base_va + off
            if va % PAGE_SIZE > room:
                self.access(obj_id, off, size, bool(w))
            else:
                # the chunk already paid access()'s object lookup and
                # bounds check; an all-miss stream would pay them again
                # per element
                ostats.accesses += 1
                hit = swap._access_page(va // PAGE_SIZE, True if w else False, obj_id)
                if not hit:
                    ostats.misses += 1
                if policy is not None:
                    self._after_access(obj, off, size, hit)
            if after_ns:
                clock.charge(after_ns)
        return True

    def metadata_bytes(self) -> int:
        return self.swap.metadata_bytes()

    def collect_section_stats(self) -> dict[str, dict]:
        """Per-section stats in the CacheManager shape (one swap section),
        so metrics collection and the prefetch benchmark treat baselines
        and Mira uniformly."""
        return {"swap": vars(self.swap.stats).copy()}
