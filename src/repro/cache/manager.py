"""Mira's run-time memory system: a set of cache sections plus the swap
section, with dynamic section lifetimes.

The controller opens a section for a group of objects with similar access
patterns, assigns them, and closes the section when lifetime analysis says
the scope ended -- immediately returning its budget (this is what lets
GPT-2 run at 4.5% local memory: each layer's section dies as the layer
finishes).
"""

from __future__ import annotations

from repro.cache.config import SectionConfig
from repro.cache.interface import MemorySystem
from repro.cache.section import CacheSection, make_section
from repro.cache.swap import SwapSection
from repro.errors import ConfigError
from repro.memsim.address import PAGE_SIZE, ObjectInfo
from repro.memsim.clock import VirtualClock

#: the kinds of a chunk plan's event slots (:meth:`CacheManager.fold_chunk`):
#: a load or store, a ``touch``, a prefetch, a trailing eviction hint, a
#: range eviction hint, a flush
ACCESS, TOUCH, PREFETCH, TRAIL, HINT, FLUSH = range(6)


class CacheManager(MemorySystem):
    """Routes each object's accesses to its section (or the swap section)."""

    name = "mira"

    def __init__(
        self, cost, local_mem_bytes, clock=None, fault_lock=None, policy=None
    ) -> None:
        super().__init__(cost, local_mem_bytes, clock)
        self._sections: dict[str, CacheSection] = {}
        self._assignment: dict[int, str] = {}
        self._native_objs: set[int] = set()
        self.fault_lock = fault_lock
        self.swap = SwapSection(
            local_mem_bytes,
            cost,
            self.clock,
            self.network,
            extra_fault_ns=self._extra_fault_ns(),
            fault_lock=fault_lock,
        )
        if isinstance(policy, str):
            from repro.prefetch import make_policy

            policy = make_policy(policy)
        #: optional prefetch policy driving the swap path (objects inside
        #: cache sections are prefetched by the compiler's explicit
        #: prefetch ops; the policy covers what stays on the swap path)
        self.policy = policy
        if policy is not None:
            policy.bind(self)
            self.swap.feedback_policy = policy
        #: peak metadata observed, for Fig. 20
        self.peak_metadata_bytes = 0
        #: current virtual thread id (set by the interpreter inside
        #: scf.parallel); selects per-thread private sections
        self.current_thread = 0
        #: allocation-name -> section-name assignments to apply when the
        #: object is allocated (plans are made before the program runs)
        self.pending_assignment: dict[str, str] = {}
        self._access_counter = 0
        #: breaker trips observed but not yet acted on; the callback fires
        #: mid network op, so degradation is deferred to the next access
        self._degrade_pending = 0
        #: record of applied degradation actions, for reporting
        self.degrade_log: list[dict] = []
        #: memoized (obj_id, thread) -> (ObjectInfo, section, ObjectStats,
        #: native?) for the per-access path: object lookup, the f-string
        #: per-thread section probe, and the native-promise set test are
        #: all costly per access.  Invalidated whenever sections,
        #: assignments, native promises, or object lifetimes change.
        self._resolved: dict[tuple[int, int], tuple] = {}
        #: optional callback ``(obj_id, size, n, misses)`` observed after
        #: every ``access`` (``n == 1``) and after every run of ``n``
        #: events ``bulk_access`` settles; the hybrid manager uses it to
        #: window miss/amplification signals.  None here, so plain Mira
        #: runs pay one attribute load + None test per access and nothing
        #: else.
        self._path_hook = None

    def _extra_fault_ns(self) -> float:
        """Kernel fault-path time on top of ``page_fault_ns`` (Leap's
        slower datapath overrides it)."""
        return 0.0

    # -- clock plumbing (thread simulation swaps the active clock) -----------

    def set_clock(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.network.clock = clock
        self.far_node.clock = clock
        self.swap.clock = clock
        for sec in self._sections.values():
            sec.clock = clock

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        self.network.tracer = tracer
        self._bind_access_log(tracer)
        self.swap.set_tracer(tracer)
        for sec in self._sections.values():
            sec.set_tracer(tracer)

    def set_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self.swap.telemetry = telemetry
        for sec in self._sections.values():
            sec.telemetry = telemetry

    # -- fault handling / graceful degradation --------------------------------

    def enable_faults(self, plan) -> None:
        super().enable_faults(plan)
        self.network.on_persistent_failure = (
            None if plan is None else self._note_persistent_failure
        )

    def _note_persistent_failure(self, op: str) -> None:
        """Circuit breaker tripped: queue one degradation step.  The
        callback fires inside a network op, possibly mid-way through a
        section's miss path, so the response is deferred until the next
        ``access`` call rather than reconfiguring sections re-entrantly."""
        self._degrade_pending += 1

    def _apply_degradation(self) -> None:
        pending, self._degrade_pending = self._degrade_pending, 0
        for _ in range(pending):
            self._degrade_step()

    def _degrade_step(self) -> None:
        """One graceful-degradation action, mildest first.

        A persistent network failure indicts the message path (far-node
        CPU involvement), so first demote a two-sided section to one-sided
        communication; once every section is one-sided, remap the worst
        section's objects onto the swap path and return its budget --
        switching data paths instead of failing, per A Tale of Two Paths.
        """
        tr = self.tracer
        flt = self.network.faults
        for name in sorted(self._sections):
            sec = self._sections[name]
            if not sec._one_sided:
                # runtime-only demotion: the shared SectionConfig (which
                # plans reuse across runs) stays untouched.  One-sided
                # transfers cannot do selective transmission, so the whole
                # line travels from now on.
                sec._one_sided = True
                sec._transfer_bytes = sec._line_size
                if flt is not None:
                    flt.stats.degrades += 1
                self.degrade_log.append({"action": "demote_comm", "sec": name})
                if tr is not None:
                    tr.emit(
                        "degrade.section",
                        self.clock.now,
                        sec=name,
                        action="demote_comm",
                    )
                return
        if not self._sections:
            return  # already fully on the swap path; nothing left to shed
        # victim choice is explicitly tie-broken: highest miss count first,
        # then lexicographically-first name, so the degradation order is
        # deterministic (and documented) when two sections score equal
        worst = min(
            self._sections, key=lambda n: (-self._sections[n].stats.misses, n)
        )
        base = worst.split("@t")[0]
        for alloc_name in [
            a for a, s in self.pending_assignment.items() if s == base
        ]:
            del self.pending_assignment[alloc_name]
        self.close_section(base)
        if flt is not None:
            flt.stats.degrades += 1
        self.degrade_log.append({"action": "remap_swap", "sec": base})
        if tr is not None:
            tr.emit("degrade.section", self.clock.now, sec=base, action="remap_swap")

    # -- section lifecycle ----------------------------------------------------

    def open_section(
        self, config: SectionConfig, obj_ids: list[int], per_thread: int = 0
    ) -> CacheSection:
        """Create a section and move the given objects into it.

        ``per_thread=T`` creates T private clones named ``name@t0..`` each
        with 1/T of the budget (read-only multi-threading, section 4.6);
        accesses route to the clone of the interpreter's current thread.
        """
        alog = self._alog
        if alog is not None:
            alog.emit(
                "mem.open",
                self.clock.now,
                sec=config.name,
                cfg=config.to_fields(),
                ids=list(obj_ids),
                pt=per_thread,
            )
        return self._open_section_impl(config, obj_ids, per_thread)

    def _open_section_impl(
        self, config: SectionConfig, obj_ids: list[int], per_thread: int = 0
    ) -> CacheSection:
        """``open_section`` minus the op-log entry: internal reconfiguration
        (hybrid path switches) opens sections here, so a replayed trace
        never re-issues them as top-level ops."""
        if per_thread > 1:
            from dataclasses import replace as _replace

            share = max(config.line_size, config.size_bytes // per_thread)
            for t in range(per_thread):
                clone = _replace(config, name=f"{config.name}@t{t}", size_bytes=share)
                self._open_one(clone)
            self._register(config.name, obj_ids)
            self._resize_swap()
            return self._sections[f"{config.name}@t0"]
        section = self._open_one(config)
        self._register(config.name, obj_ids)
        self._resize_swap()
        return section

    def _open_one(self, config: SectionConfig) -> CacheSection:
        self._resolved.clear()
        if config.name in self._sections:
            raise ConfigError(f"section {config.name!r} already open")
        committed = sum(s.config.size_bytes for s in self._sections.values())
        if committed + config.size_bytes > self.local_mem_bytes:
            raise ConfigError(
                f"section {config.name!r} ({config.size_bytes} B) does not fit: "
                f"{committed} B already committed of {self.local_mem_bytes} B"
            )
        section = make_section(config, self.cost, self.clock, self.network)
        section.set_tracer(self.tracer)
        section.telemetry = self.telemetry
        self._sections[config.name] = section
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "sec.open",
                self.clock.now,
                sec=config.name,
                size=config.size_bytes,
                line=config.line_size,
                structure=config.structure.value,
                ways=config.ways,
                # per-access overhead constants, carried so trace analysis
                # (repro.obs.analyze) can attribute hit/insert/evict time
                # without reaching back into the cost model
                hit_ov=section._hit_overhead,
                ins_ov=section._insert_overhead,
                ev_ov=section._evict_overhead,
            )
        return section

    def _register(self, base_name: str, obj_ids: list[int]) -> None:
        for obj_id in obj_ids:
            self.assign(obj_id, base_name)

    def close_section(self, name: str) -> None:
        """End a section's lifetime: flush dirty lines, free its budget.

        ``name`` may be a base name covering per-thread clones; all clones
        are closed together.
        """
        alog = self._alog
        if alog is not None:
            alog.emit("mem.close", self.clock.now, sec=name)
        self._close_section_impl(name)

    def _close_section_impl(self, name: str) -> None:
        """``close_section`` minus the op-log entry (see
        ``_open_section_impl``)."""
        self._resolved.clear()
        names = self._resolve_group(name)
        if not names:
            raise ConfigError(f"no open section named {name!r}")
        tr = self.tracer
        tel = self.telemetry
        for n in names:
            sec = self._sections.pop(n)
            sec.close()
            if tel is not None:
                # the section vanishes from collect_section_stats(); fold
                # its totals into the collector so cumulative series
                # counters stay monotone across section lifetimes
                tel.retire(sec.stats)
            if tr is not None:
                tr.emit(
                    "sec.close",
                    self.clock.now,
                    sec=n,
                    accesses=sec.stats.accesses,
                    misses=sec.stats.misses,
                )
        for obj_id in [o for o, s in self._assignment.items() if s == name]:
            del self._assignment[obj_id]
            self._native_objs.discard(obj_id)
        self._resize_swap()

    def _resolve_group(self, base: str) -> list[str]:
        if base in self._sections:
            return [base]
        return [n for n in self._sections if n.startswith(base + "@t")]

    def assign(self, obj_id: int, section_name: str) -> None:
        """Move an object into a section (out of swap or another section).

        ``section_name`` may be the base name of a per-thread group.
        """
        if not self._resolve_group(section_name):
            raise ConfigError(f"no open section named {section_name!r}")
        old = self._assignment.get(obj_id)
        if old == section_name:
            return
        self._resolved.clear()
        obj = self.address_space.get(obj_id)
        self.swap.drop_object(obj_id)
        if old is not None:
            for n in self._resolve_group(old):
                sec = self._sections[n]
                for key in sec.line_keys(obj_id, 0, obj.size):
                    sec.drop_clean(key)
        self._assignment[obj_id] = section_name
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "sec.assign",
                self.clock.now,
                sec=section_name,
                obj=obj_id,
                prev=old if old is not None else "",
            )

    def section_of(self, obj_id: int) -> CacheSection | None:
        entry = self._resolved.get((obj_id, self.current_thread))
        if entry is None:
            entry = self._resolve(obj_id)
        return entry[1]

    def _resolve(self, obj_id: int) -> tuple:
        entry = (
            self.address_space.get(obj_id),
            self._resolve_section(obj_id),
            self.stats.object(obj_id),
            obj_id in self._native_objs,
        )
        self._resolved[(obj_id, self.current_thread)] = entry
        return entry

    def _resolve_section(self, obj_id: int) -> CacheSection | None:
        name = self._assignment.get(obj_id)
        if name is None:
            return None
        per_thread = f"{name}@t{self.current_thread}"
        if per_thread in self._sections:
            return self._sections[per_thread]
        if name in self._sections:
            return self._sections[name]
        # per-thread group accessed outside a parallel region: use clone 0
        return self._sections[f"{name}@t0"]

    def sections(self) -> dict[str, CacheSection]:
        return dict(self._sections)

    def _resize_swap(self) -> None:
        committed = sum(s.config.size_bytes for s in self._sections.values())
        self.swap.resize(max(PAGE_SIZE, self.local_mem_bytes - committed))

    # -- MemorySystem data path ----------------------------------------------

    def access(
        self,
        obj_id: int,
        offset: int,
        size: int,
        is_write: bool,
        native: bool = False,
    ) -> None:
        """One program access.  A plain hit -- one resident, un-hinted,
        settled line or page (an arrived prefetch's stamp is cleared), no
        tracer -- settles in this frame; the rest takes ``_access_line`` /
        ``_access_page``."""
        rec = self._rec_access
        if rec is not None:
            rec(
                self.clock.now,
                obj=obj_id,
                off=offset,
                size=size,
                w=is_write,
                **({"nat": True} if native else {}),
            )
        if self._degrade_pending:
            self._apply_degradation()
        entry = self._resolved.get((obj_id, self.current_thread))
        if entry is None:
            entry = self._resolve(obj_id)
        obj, section, ostats, obj_native = entry
        sz = size if size > 0 else 1
        if offset < 0 or offset + sz > obj.size:
            raise obj.out_of_bounds(offset, size)
        ostats.accesses += 1
        if section is None:
            va = obj.base_va + offset  # ``va_of``, bounds tested above
            page = va // PAGE_SIZE
            swap = self.swap
            pages = swap._pages
            if (va + sz - 1) // PAGE_SIZE != page:
                hit = swap.access(va, size, is_write, obj_id)
            elif (
                page in pages
                and not (pe := pages[page]).ready_at
                and not pe.evictable
                and swap._emit_hit is None
            ):
                pages.move_to_end(page)
                if is_write:
                    pe.dirty = True
                stats = swap.stats
                stats.accesses += 1
                stats.hits += 1
                hit = True
            else:
                hit = swap._access_page(page, is_write, obj_id)
            if self.policy is not None:
                self._drive_policy(obj, va, sz, hit)
        else:
            ls = section._line_size
            first = offset // ls
            resident = section._resident
            key = (obj_id, first)
            if (offset + sz - 1) // ls != first:
                hit = section.access(
                    obj_id, offset, size, is_write, native=native or obj_native
                )
            elif (
                key in resident
                and not (line := resident[key]).evictable
                and section._emit_hit is None
                and (not line.ready_at or line.ready_at <= self.clock.now)
            ):
                order = line.order
                if order is not None:
                    order.move_to_end(key)
                if is_write:
                    line.dirty = True
                line.ready_at = 0.0
                stats = section.stats
                stats.accesses += 1
                stats.hits += 1
                if native or obj_native:
                    stats.native_accesses += 1
                else:
                    overhead = section._hit_overhead
                    self.clock.advance(overhead, "hit_overhead")
                    stats.overhead_ns += overhead
                hit = True
            else:
                hit = section._access_line(key, is_write, native or obj_native)
        if not hit:
            ostats.misses += 1
        # peak-metadata tracking is O(sections); sample it
        self._access_counter += 1
        if not self._access_counter % 256:
            self._track_metadata()
        hook = self._path_hook
        if hook is not None:
            hook(obj_id, sz, 1, 0 if hit else 1)

    def _drive_policy(self, obj, va: int, size: int, hit: bool) -> None:
        """Feed one swap-path access to the prefetch policy: every page it
        touches is recorded, and a demand miss asks for a plan."""
        policy = self.policy
        first = va // PAGE_SIZE
        policy.record(first)
        last = (va + size - 1) // PAGE_SIZE
        if last != first:  # a straddle: the pages after the first, in order
            for page in range(first + 1, last + 1):
                policy.record(page)
        if hit:
            return
        plan = policy.plan(first)
        if not plan:
            return
        tracer = self.tracer
        if tracer is not None and policy.traced:
            tracer.emit(
                "prefetch.plan",
                self.clock.now,
                pol=policy.name,
                line=first,
                n=len(plan),
            )
        # cap issuance below the section capacity: a plan longer than the
        # pool would evict the page just faulted in (and then each other),
        # turning an aggressive window into guaranteed thrashing
        swap = self.swap
        pages = swap._pages
        budget = swap.capacity_pages - 1
        for p in plan:
            if budget <= 0:
                break
            if p >= 0 and p not in pages:
                swap.prefetch(p, obj.obj_id)
                policy.issued += 1
                budget -= 1

    def bulk_access(
        self, obj_id, offsets, writes, size, dram_ns, before_ns, after_ns
    ) -> bool:
        """The bulk path (contract: :meth:`MemorySystem.bulk_access`).

        A hit on a resident line or swap page that is settled
        (``ready_at`` clear) and un-hinted changes nothing but its recency
        and dirty bit, so those are updated in place and the hit is only
        counted.  A plain miss is placed in place too, and its charges are
        closed form: on a cache section one that evicts a settled line on
        an idle link (:meth:`CacheSection.fold`); on the swap path, with
        no prefetch policy to plan on it and no swap lock to queue on, a
        fault whose victim, if the pool is full, is settled, on an idle
        link (:meth:`SwapSection.fold`).  The counters and the clock
        charges of a run of such events are settled immediately before
        the next event that is anything else -- an in-flight or stale
        ``ready_at``, a hinted line, a straddle, any other miss -- and
        that event takes the per-access path.  Everything that reads
        ``clock.now`` (a booked link, ``wait_until``) is such an event, so
        it sees the clock the per-element loop would show it.

        The path hook is told of a settled run once, with its length and
        misses, ahead of the ``after_ns`` of the run's last event: per
        element it fires inside that event's ``access``, and a switch it
        decides on reads the clock.
        """
        if len(offsets) != len(writes):
            raise ValueError(
                f"bulk_access: {len(offsets)} offsets for {len(writes)} write flags"
            )
        entry = self._resolved.get((obj_id, self.current_thread))
        if entry is None:
            entry = self._resolve(obj_id)
        obj, section, ostats, obj_native = entry
        if obj_native or size <= 0 or not self._fold_ok(section):
            return False
        if not offsets:
            return True
        if min(offsets) < 0 or max(offsets) + size > obj.size:
            return False  # the per-element path raises the canonical error
        pairs = zip(offsets, writes)
        policy = self.policy
        swap = self.swap
        base_va = obj.base_va
        count = self._access_counter  # kept local; stored when it is read
        if section is None:
            folds = swap.fold(
                pairs,
                base_va,
                size,
                None if policy is None else policy.record,
                obj_id if policy is None and self.fault_lock is None else None,
                count,
            )
            settle = swap._settle
        else:
            folds = section.fold(pairs, obj_id, size)
            settle = section._settle
        room = PAGE_SIZE - size  # else: a swap pair straddles two pages
        clock = self.clock
        hook = self._path_hook
        try:
            for hits, misses, dirty, off, w in folds:
                run = hits + misses
                if run:
                    clock.advance(run * dram_ns, "dram")
                    clock.charge(run * before_ns + (run - 1) * after_ns)
                    settle(hits, misses, dirty)
                    ostats.accesses += run
                    if misses:
                        ostats.misses += misses
                    # one metadata sample if the run passes a multiple of
                    # 256: past the run's first sample point no folded
                    # event changes a residency count (a folded miss evicts
                    # one line or page for the one it places, and a fault
                    # into a free page never folds past a sample point), so
                    # the value at the run's end is what the skipped
                    # samples would see
                    if count % 256 + run >= 256:
                        self._track_metadata()
                    count += run
                    if hook is not None:
                        hook(obj_id, size, run, misses)
                    if after_ns:
                        clock.charge(after_ns)
                    if off is None:
                        break
                clock.advance(dram_ns, "dram")
                if section is None and (va := base_va + off) % PAGE_SIZE <= room:
                    # one page: ``access``'s swap branch, minus what the
                    # chunk already paid (lookup, bounds) and the hit path
                    # it has just declined.  ``advance``, not ``charge``:
                    # the ``dram`` advance left the buffer empty, so the
                    # flush a fault's first advance would pay adds exactly
                    # ``before_ns``
                    if before_ns:
                        clock.advance(before_ns, "compute")
                    ostats.accesses += 1
                    hit = swap._access_page(
                        va // PAGE_SIZE, True if w else False, obj_id
                    )
                    if not hit:
                        ostats.misses += 1
                    if policy is not None:
                        self._drive_policy(obj, va, size, hit)
                    count += 1
                    if not count % 256:
                        self._track_metadata()
                    if hook is not None:
                        hook(obj_id, size, 1, 0 if hit else 1)
                else:
                    clock.charge(before_ns)
                    self._access_counter = count
                    self.access(obj_id, off, size, bool(w))
                    count = self._access_counter
                if after_ns:
                    clock.charge(after_ns)
        finally:
            self._access_counter = count
        return True

    def _fold_ok(self, section) -> bool:
        """May a run of hits be counted in aggregate right now?

        The eligibility test of the bulk path.  No: when anything
        observes single accesses (tracer and its access log, telemetry
        windows, a prefetch policy -- unless the object is on the swap
        path, which alone feeds it, and its ``record`` ignores repeats)
        or when sections can be reconfigured mid-run (a fault plan,
        pending degradation).  The path hook is no such observer: it
        takes a run's length and misses, and its owner cuts chunks where
        it may act.
        """
        policy = self.policy
        return (
            self.tracer is None
            and self.telemetry is None
            and (policy is None or (section is None and policy.repeat_is_noop))
            and not self._degrade_pending
            and self.network.faults is None
        )

    # -- chunked straight-line loops (codegen's far-memory fast tier) --------
    #
    # A plan is ``(slots, tail_ns)``, one per loop: a slot per
    # memory event of the body in IR order, ``(kind, ref, nbytes, write,
    # native, compute_ns, mem_ns)`` -- ``ref`` indexes the ``objs`` tuple
    # of each call, ``nbytes`` is an access's size or a range's cap
    # (count x element size), ``compute_ns``/``mem_ns`` the compute and
    # the ``dram`` (a load or store) or ``dram_stream`` (a touch) charged
    # since the previous event; ``tail_ns`` is the compute after the last
    # event, back-edge included.

    def chunk_ok(self) -> bool:
        """May the next chunk of a loop run as a tape?  Not while anything
        observes single events -- a tracer (which an op log needs),
        telemetry (which arms the clock's only tick hook), a policy, a path
        hook -- or sections can change under a chunk (a fault plan,
        pending degradation)."""
        return (
            self.tracer is None
            and self.telemetry is None
            and self.policy is None
            and self._path_hook is None
            and not self._degrade_pending
            and self.network.faults is None
        )

    def fold_chunk(self, plan, objs, tape, start: int, end: bool) -> int:
        """Settle a chunk whose data movement has run: ``tape`` holds each
        memory event's byte offset in program order (None where a range
        guard skipped the event), the first at slot ``start`` (``n``: the
        tail of the iteration before is owed first).  ``end``: the tape
        closes its last iteration, whose tail is charged too.  Empties
        the tape; returns the slot the next entry is at.

        Bit-identical to the per-element loop.  ``now`` is the clock plus
        every charge the fold holds: the static ones (per category, summed
        in closed form from the slots and wraps a span covers), the plain
        hits' ``hit_overhead``, and the held link's ``evict_overhead`` and
        ``net_issue``; every ``ready_at`` is compared with it.  A plain
        event settles in place under exactly the conditions of the
        one-frame paths of :meth:`access` (on a section and on the swap
        path), :meth:`prefetch` (a resident range is one probe) and
        :meth:`evict_hint_trailing` (a clean line); a plain access is
        counted per slot, on its counters when the fold ends
        (``_count_plain``).  A prefetch's absent lines are booked by
        :meth:`CacheSection._book` on a link :meth:`Network.link` lends
        and the fold holds across consecutive fills.  Any other event
        releases the link, settles the clock (``_settle_fold``) and takes
        the unchanged verb."""
        slots, tail = plan
        clock = self.clock
        clock.flush()
        now = clock._now
        rows, info = [], []
        # the static charges of slots ``0..j-1``, per category, at ``[j]``
        sums = ([0.0], [0.0], [0.0])
        for k, (kind, ref, nbytes, write, native, compute, mem) in enumerate(slots):
            oid = objs[ref]
            entry = self._resolved.get((oid, self.current_thread))
            if entry is None:
                entry = self._resolve(oid)
            obj, section, ostats, obj_native = entry
            nat = native or obj_native
            if section is None:  # the swap path: pages of the object's VAs
                where, resident, ov = obj.base_va, None, 0.0
            else:
                where, resident = section._line_size, section._resident
                ov = 0.0 if nat else section._hit_overhead
            rows.append((
                k, kind, oid, obj.size, section, where, resident, compute + mem,
                nbytes, nbytes if nbytes > 0 else 1, write, ov,
            ))
            info.append((ostats, section, nat, ov))
            for total, ns in zip(sums, (
                compute, mem if kind == ACCESS else 0.0, mem if kind == TOUCH else 0.0
            )):
                total.append(total[-1] + ns)
        n = len(rows)
        plain = [0] * n  # plain accesses per slot, not yet counted
        network = self.network
        pages = self.swap._pages
        count = self._access_counter
        hit = evict = 0.0
        held = None  # the section a lent link books fills for
        free_at = wire = base = issue = 0.0
        reads = writes = 0
        wraps = 0
        s = settled = start
        try:  # counted even when a verb raises (an out-of-bounds access)
            for off in tape:
                if s == n:
                    now += tail
                    wraps += 1
                    s = 0
                (k, kind, oid, size, section, where, resident, pre,
                 nbytes, span, w, ov) = rows[s]
                s += 1
                now += pre
                if off is None:
                    continue
                if kind <= TOUCH:
                    if 0 <= off and off + span <= size:
                        if resident is None:
                            va = where + off
                            page = va // PAGE_SIZE
                            if (
                                (va + span - 1) // PAGE_SIZE == page
                                and page in pages
                                and not (pe := pages[page]).ready_at
                                and not pe.evictable
                            ):
                                pages.move_to_end(page)
                                if w:
                                    pe.dirty = True
                                plain[k] += 1
                                count += 1
                                if not count % 256:
                                    self._track_metadata()
                                continue
                        else:
                            key = (oid, off // where)
                            line = resident.get(key)
                            if (
                                line is not None
                                and (off + span - 1) // where == key[1]
                                and not line.evictable
                                and (not line.ready_at or line.ready_at <= now)
                            ):
                                order = line.order
                                if order is not None:
                                    order.move_to_end(key)
                                if w:
                                    line.dirty = True
                                line.ready_at = 0.0
                                plain[k] += 1
                                now += ov
                                hit += ov
                                count += 1
                                if not count % 256:
                                    self._track_metadata()
                                continue
                elif section is not None and kind == PREFETCH:
                    last = off + nbytes if off + nbytes <= size else size
                    first = off // where
                    last = (last - 1) // where
                    if last - first >= section._prefetch_window:
                        last = first + section._prefetch_window - 1
                    for first in range(first, last + 1):
                        if (oid, first) not in resident:
                            break
                    else:
                        continue  # resident: one probe
                    if held is not section:  # the link is lent per section
                        if held is not None:
                            network.posted(
                                held._transfer_bytes, held._one_sided,
                                reads, writes, free_at,
                            )
                        held = section
                        lent = network.link(
                            section._transfer_bytes, section._one_sided
                        )
                        if lent is None:
                            held = None
                        else:
                            _, free_at, wire, base, issue = lent
                            reads = writes = 0
                    if held is not None:
                        now, free_at, r, wr, e = section._book(
                            oid, first, last, now, free_at, wire, base, issue
                        )
                        reads += r
                        writes += wr
                        evict += e * section._evict_overhead
                        continue
                elif section is not None and kind == TRAIL:
                    prev = off - where
                    line = resident.get((oid, prev // where)) if prev >= 0 else None
                    if line is None:
                        continue
                    if not line.dirty:
                        if not line.evictable and not section.config.shared:
                            section._hint(line)
                        continue
                # anything else: release the link, settle, take the verb
                if held is not None:
                    network.posted(
                        held._transfer_bytes, held._one_sided, reads, writes, free_at
                    )
                    held = None
                self._access_counter = count
                self._settle_fold(now, sums, tail, wraps, settled, s, hit, evict)
                wraps, settled, hit, evict = 0, s, 0.0, 0.0
                if kind <= TOUCH:
                    self.access(oid, off, nbytes, w, info[k][2])
                elif kind == TRAIL:
                    self.evict_hint_trailing(oid, off)
                else:
                    cut = nbytes if off + nbytes <= size else size - off
                    if kind == PREFETCH:
                        self.prefetch(oid, off, cut)
                    elif kind == HINT:
                        self.evict_hint(oid, off, cut)
                    else:
                        self.flush(oid, off, cut)
                now = clock.now
                count = self._access_counter
            if end and s == n:
                now += tail
                wraps += 1
                s = 0
            if held is not None:
                network.posted(
                    held._transfer_bytes, held._one_sided, reads, writes, free_at
                )
            self._access_counter = count
            self._settle_fold(now, sums, tail, wraps, settled, s, hit, evict)
        finally:
            self._count_plain(info, plain)
        tape.clear()
        return s

    def _count_plain(self, info, plain) -> None:
        """Count a fold's plain accesses, per slot, on the counters the
        per-element loop would have bumped (no verb reads them)."""
        swap_stats = self.swap.stats
        for done, (ostats, section, nat, ov) in zip(plain, info):
            if done:
                ostats.accesses += done
                if section is None:
                    swap_stats.accesses += done
                    swap_stats.hits += done
                    continue
                stats = section.stats
                stats.accesses += done
                stats.hits += done
                if nat:
                    stats.native_accesses += done
                else:
                    stats.overhead_ns += done * ov

    def _settle_fold(self, now, sums, tail, wraps, first, last, hit, evict):
        """Put the clock where the per-element loop would have it: at
        ``now``, with each category the fold held added to the breakdown.
        The static charges of the span from slot ``first`` through
        ``wraps`` iterations to slot ``last`` are closed form on ``sums``
        (on the time grid every sum is exact).  ``chunk_ok`` saw to it
        that no tick hook listens."""
        clock = self.clock
        clock._now = now
        bd = clock._breakdown
        compute, dram, stream = sums
        n = len(compute) - 1
        bd["compute"] += wraps * (compute[n] + tail) + compute[last] - compute[first]
        bd["dram"] += wraps * dram[n] + dram[last] - dram[first]
        bd["dram_stream"] += wraps * stream[n] + stream[last] - stream[first]
        bd["hit_overhead"] += hit
        bd["evict_overhead"] += evict

    # The two hot hints override the ``MemorySystem`` wrappers: each logs
    # its op-log entry itself and does the work in the same frame.

    def prefetch(self, obj_id: int, offset: int, size: int) -> None:
        """A resident one-line range returns after one probe."""
        alog = self._alog
        if alog is not None:
            alog.emit(
                "mem.prefetch", self.clock.now, obj=obj_id, off=offset, size=size
            )
        entry = self._resolved.get((obj_id, self.current_thread))
        if entry is None:
            entry = self._resolve(obj_id)
        obj, section = entry[0], entry[1]
        if section is None:
            self._prefetch_pages(obj, offset, size)
            return
        # never let one prefetch call flood the section: cap the window at
        # half its capacity so in-flight lines cannot evict each other
        if size <= 0:
            size = 1
        ls = section._line_size
        first = offset // ls
        last = (offset + size - 1) // ls
        if first == last:
            if (obj_id, first) in section._resident:
                return
        elif last - first >= section._prefetch_window:
            last = first + section._prefetch_window - 1
        section.prefetch_range(obj_id, first, last)

    def _prefetch_pages(self, obj, offset: int, size: int) -> None:
        swap = self.swap
        for page in swap.pages_of(obj.va_of(offset), size):
            swap.prefetch(page, obj.obj_id)

    def _flush(self, obj_id: int, offset: int, size: int) -> None:
        obj = self.address_space.get(obj_id)
        section = self.section_of(obj_id)
        if section is None:
            self.swap.flush(obj.va_of(offset), size)
            return
        for key in section.line_keys(obj_id, offset, size):
            section.flush_line(key)

    def _evict_hint(self, obj_id: int, offset: int, size: int) -> None:
        obj = self.address_space.get(obj_id)
        section = self.section_of(obj_id)
        if section is None:
            self.swap.evict_hint(obj.va_of(offset), size)
            return
        for key in section.line_keys(obj_id, offset, size):
            section.evict_hint_line(key)

    def evict_hint_trailing(self, obj_id: int, offset: int) -> None:
        """Streaming hint: the line before ``offset`` will not be touched
        again; mark it evictable (``evict_hint_line``, inlined)."""
        alog = self._alog
        if alog is not None:
            alog.emit("mem.evict_trail", self.clock.now, obj=obj_id, off=offset)
        entry = self._resolved.get((obj_id, self.current_thread))
        if entry is None:
            entry = self._resolve(obj_id)
        obj, section = entry[0], entry[1]
        if section is None:
            va = obj.va_of(offset)
            prev = va - PAGE_SIZE
            if prev >= obj.base_va:
                self.swap.evict_hint(prev, 1)
            return
        ls = section._line_size
        prev = offset - ls
        resident = section._resident
        key = (obj_id, prev // ls)
        if prev >= 0 and key in resident:
            line = resident[key]
            if line.dirty:
                # flush first so the hinted line is clean when eviction
                # picks it (write-back leaves the critical path)
                section.flush_line(key)
            if not line.evictable and not section.config.shared:
                section._hint(line)

    def _discard(self, obj_id: int) -> None:
        obj = self.address_space.get(obj_id)
        section = self.section_of(obj_id)
        if section is None:
            self.swap.drop_object(obj_id)
            return
        for key in section.line_keys(obj_id, 0, obj.size):
            section.drop_clean(key)

    def _prefetch_batch(self, items: list[tuple[int, int, int]]) -> None:
        """Combine several prefetch ranges into one scatter-gather network
        message: one RTT, summed wire time (section 4.5, batching)."""
        missing: list[tuple[CacheSection, tuple[int, int]]] = []
        total_bytes = 0
        for obj_id, offset, size in items:
            section = self.section_of(obj_id)
            if section is None:
                # swap pages cannot join a scatter-gather rmem message
                self._prefetch_pages(self.address_space.get(obj_id), offset, size)
                continue
            keys = section.line_keys(obj_id, offset, size)
            for key in section.missing_keys(keys):
                missing.append((section, key))
                total_bytes += section._transfer_bytes
        if not missing:
            return
        ready = self.network.post(total_bytes)
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "net.batch",
                self.clock.now,
                lines=len(missing),
                bytes=total_bytes,
                ready=ready,
            )
        for section, key in missing:
            section.install_prefetched(key, ready)

    def _set_native(self, obj_id: int, native: bool) -> None:
        self._resolved.clear()
        if native:
            self._native_objs.add(obj_id)
        else:
            self._native_objs.discard(obj_id)

    def _on_allocate(self, obj: ObjectInfo) -> None:
        section = self.pending_assignment.get(obj.name)
        if section is not None:
            self.assign(obj.obj_id, section)

    def _on_free(self, obj: ObjectInfo) -> None:
        self.swap.drop_object(obj.obj_id)
        self._resolved.clear()
        name = self._assignment.get(obj.obj_id)
        if name is not None:
            for n in self._resolve_group(name):
                sec = self._sections[n]
                for key in sec.line_keys(obj.obj_id, 0, obj.size):
                    sec.drop_clean(key)
            del self._assignment[obj.obj_id]

    # -- reporting -----------------------------------------------------------

    def metadata_bytes(self) -> int:
        total = self.swap.metadata_bytes()
        for section in self._sections.values():
            total += section.metadata_bytes()
        return total

    def _track_metadata(self) -> None:
        md = self.metadata_bytes()
        if md > self.peak_metadata_bytes:
            self.peak_metadata_bytes = md

    def collect_section_stats(self) -> dict[str, dict]:
        """Snapshot per-section stats (including swap) for the profiler."""
        out = {"swap": vars(self.swap.stats).copy()}
        for name, sec in self._sections.items():
            out[name] = vars(sec.stats).copy()
        return out
