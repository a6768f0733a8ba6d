"""Mira's run-time memory system: a set of cache sections plus the swap
section.

The runner opens one section group per planned section before the program
runs (``core/runner.py``) and assigns objects to it by allocation name; a
group is one section, or ``T`` private clones ``name@t0..`` for a parallel
loop's threads (section 4.6).  Inside a parallel region an access goes to
its thread's clone; outside one (``current_thread`` is None) an access
goes to clone 0 and a flush, hint or discard acts on every clone, so a
verb after the join reaches every copy.  Only hybrid demotion and
degradation close a group, returning its budget to the swap section.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import cycle, repeat

from repro.cache.config import SectionConfig
from repro.cache.interface import MemorySystem
from repro.cache.section import CacheSection, Line, make_section
from repro.cache.swap import PageEntry, SwapSection
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
        #: open section groups by name: one section, or a per-thread
        #: group's clones in thread order
        self._open: dict[str, list[CacheSection]] = {}
        #: object -> the name of its group
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
        #: current virtual thread id, set by the interpreter inside
        #: scf.parallel and None outside one; selects per-thread clones
        self.current_thread: int | None = None
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
        #: native?) for the per-access path: object lookup, the group's
        #: clone, and the native-promise set test are all costly per
        #: access.  Invalidated whenever sections, assignments, native
        #: promises, or object lifetimes change.
        self._resolved: dict[tuple[int, int | None], tuple] = {}
        #: optional callback ``(obj_id, size, n, misses)`` observed after
        #: every ``access`` (``n == 1``) and after every run of ``n``
        #: events ``fold_chunk`` settles; the hybrid manager uses it to
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
        for sec in self.sections().values():
            sec.clock = clock

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        self.network.tracer = tracer
        self._bind_access_log(tracer)
        self.swap.set_tracer(tracer)
        for sec in self.sections().values():
            sec.set_tracer(tracer)

    def set_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self.swap.telemetry = telemetry
        for sec in self.sections().values():
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
        sections = self.sections()
        for name in sorted(sections):
            sec = sections[name]
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
        if not self._open:
            return  # already fully on the swap path; nothing left to shed
        # victim choice is explicitly tie-broken: the group of the section
        # with the highest miss count first, then of the lexicographically-
        # first section name, so the degradation order is deterministic
        # (and documented) when two sections score equal
        base = min(
            (-sec.stats.misses, sec.config.name, group)
            for group, secs in self._open.items()
            for sec in secs
        )[2]
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
        """Open a section group and move the given objects into it.

        ``per_thread=T`` opens T private clones named ``name@t0..`` each
        with 1/T of the budget (section 4.6); the group opens whole or not
        at all.
        """
        name = config.name
        if name in self._open:
            raise ConfigError(f"section {name!r} already open")
        configs = [config]
        if per_thread > 1:
            share = max(config.line_size, config.size_bytes // per_thread)
            configs = [
                replace(config, name=f"{name}@t{t}", size_bytes=share)
                for t in range(per_thread)
            ]
        size = sum(c.size_bytes for c in configs)
        committed = sum(s.config.size_bytes for s in self.sections().values())
        if committed + size > self.local_mem_bytes:
            raise ConfigError(
                f"section {name!r} ({size} B) does not fit: "
                f"{committed} B already committed of {self.local_mem_bytes} B"
            )
        self._resolved.clear()
        group = self._open[name] = [self._open_one(c) for c in configs]
        for obj_id in obj_ids:
            self.assign(obj_id, name)
        self._resize_swap()
        return group[0]

    def _open_one(self, config: SectionConfig) -> CacheSection:
        section = make_section(config, self.cost, self.clock, self.network)
        section.set_tracer(self.tracer)
        section.telemetry = self.telemetry
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

    def close_section(self, name: str) -> None:
        """End a section group's lifetime: flush dirty lines, free its
        budget; a per-thread group closes every clone."""
        self._resolved.clear()
        group = self._open.pop(name, None)
        if group is None:
            raise ConfigError(f"no open section named {name!r}")
        tr = self.tracer
        tel = self.telemetry
        for sec in group:
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
                    sec=sec.config.name,
                    accesses=sec.stats.accesses,
                    misses=sec.stats.misses,
                )
        for obj_id in [o for o, s in self._assignment.items() if s == name]:
            del self._assignment[obj_id]
            self._native_objs.discard(obj_id)
        self._resize_swap()

    def assign(self, obj_id: int, section_name: str) -> None:
        """Move an object into a section group (out of swap or another
        group)."""
        if section_name not in self._open:
            raise ConfigError(f"no open section named {section_name!r}")
        old = self._assignment.get(obj_id)
        if old == section_name:
            return
        self._resolved.clear()
        obj = self.address_space.get(obj_id)
        for pool in self._pools(obj_id, None):
            pool.drop(obj, 0, obj.size)
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
        """Memoize the access path's view of an object at the current
        thread: outside a parallel region an access goes to clone 0."""
        obj = self.address_space.get(obj_id)
        pool = self._pools(obj_id, self.current_thread or 0)[0]
        entry = (
            obj,
            None if pool is self.swap else pool,
            self.stats.object(obj_id),
            obj_id in self._native_objs,
        )
        self._resolved[(obj_id, self.current_thread)] = entry
        return entry

    def _pools(self, obj_id: int, thread: int | None) -> list:
        """The pools of an object: the swap section when no group holds
        it; else (``thread`` None) every section of its group, or that
        thread's clone -- clone 0 for a thread the group has none for."""
        group = self._open.get(self._assignment.get(obj_id))
        if group is None:
            return [self.swap]
        if thread is None:
            return group
        return [group[thread if thread < len(group) else 0]]

    def section_group(self, name: str) -> list[CacheSection]:
        """The sections of the open group ``name`` in thread order, or []."""
        return self._open.get(name, [])

    def sections(self) -> dict[str, CacheSection]:
        """Every open section by its own name (a clone's is ``name@tK``)."""
        return {sec.config.name: sec for group in self._open.values() for sec in group}

    def _resize_swap(self) -> None:
        committed = sum(s.config.size_bytes for s in self.sections().values())
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
        touches is recorded; a miss's plan, less the pages no live object
        on the swap path owns, goes to ``swap.prefetch_pages``, each page
        labelled with its owner."""
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
        # a plan may run past its object (a stride extrapolated beyond the
        # end) into pages no live object owns, or into an object a section
        # holds: those are not fetched.  Issuance is capped below the
        # section capacity: a plan longer than the pool would evict the
        # page just faulted in (and then each other), turning an
        # aggressive window into guaranteed thrashing.  A page past the
        # object is labelled by the last owner lookup while it falls in
        # that lookup's run (an object's range, or a gap), so a run of
        # such pages costs one lookup
        lo = obj.base_va // PAGE_SIZE
        hi = (obj.end_va - 1) // PAGE_SIZE
        run_of, held = self.address_space.live_run, self._assignment
        run = (None, 0, 0)  # (owner or None, start va, end va)
        owned = [
            (p, obj.obj_id if lo <= p <= hi else run[0].obj_id)
            for p in plan
            if lo <= p <= hi
            or (run[1] <= p * PAGE_SIZE < run[2] or (run := run_of(p * PAGE_SIZE)))
            and run[0] is not None
            and run[0].obj_id not in held
        ]
        swap = self.swap
        policy.issued += swap.prefetch_pages(owned, swap.capacity_pages - 1)

    def stream_access(self, obj_id, ops, size, dram_ns, before_ns, after_ns):
        """The stream path (contract: :meth:`MemorySystem.stream_access`),
        a one-slot plan for :meth:`fold_chunk` while ``fold_ok`` holds."""
        entry = self._resolved.get((obj_id, self.current_thread))
        if entry is None:
            entry = self._resolve(obj_id)
        if entry[3] or size <= 0 or not self.fold_ok((obj_id,)):
            return None
        return self._stream_walk(obj_id, ops, size, dram_ns, before_ns, after_ns)

    def _stream_walk(self, obj_id, ops, size, dram_ns, before_ns, after_ns):
        """The access with ``before_ns`` of compute and ``dram_ns`` of dram
        ahead of it is the one slot, ``after_ns`` the tail."""
        slot = (ACCESS, 0, size, False, False, before_ns, dram_ns)
        return self.fold_chunk(((slot,), after_ns), (obj_id,), ops, 0, True, True)

    def fold_ok(self, objs) -> bool:
        """May :meth:`fold_chunk` take the events of the objects ``objs``?
        Not under a tracer (an op log needs one), telemetry (its tick
        hook), a fault plan, pending degradation, or a prefetch policy
        unless it ignores repeats and every object is on the swap path,
        which alone feeds it.  The path hook takes runs."""
        policy = self.policy
        return (
            self.tracer is None
            and self.telemetry is None
            and not self._degrade_pending
            and self.network.faults is None
            and (
                policy is None
                or policy.repeat_is_noop
                and all(self.section_of(oid) is None for oid in objs)
            )
        )

    # A plan is ``(slots, tail_ns)``: a slot per memory event of a loop
    # body in IR order, ``(kind, ref, nbytes, write, native, compute_ns,
    # mem_ns)`` -- ``ref`` indexes ``objs``, ``nbytes`` is an access's size
    # or a range's cap (count x element size), ``compute_ns``/``mem_ns`` the
    # compute and the ``dram`` (a load or store) or ``dram_stream`` (a
    # touch) charged since the event before; ``tail_ns`` is the compute
    # after the last event, back-edge included.

    def fold_chunk(self, plan, objs, tape, start: int, end: bool, stream=False):
        """The one fold loop, bit-identical to the per-element loop.
        ``tape`` holds each memory event's byte offset in program order
        (None where a range guard skipped the event), the first at slot
        ``start`` (``n``: the tail of the iteration before is owed first);
        ``end``: its last iteration's tail is charged too.  A chunk takes
        each write flag from its slot, has its accesses' bounds checked
        per slot and is emptied; it returns the slot the next entry is at.
        A ``stream`` (one slot, :meth:`stream_access`) is an iterator of
        ``(offset, write)`` pairs; its walk ends where the stream does or
        at the first op that leaves the object, and returns how many ops
        it took and that op (None at the stream's end).  Its bounds are
        checked where an op can leave the object: on a page change, on a
        miss, at a verb, and at every op to a section object whose last
        line is partial; any other hit on a resident line needs none.

        In place, under exactly the conditions of the one-frame verbs: a
        plain hit (an arrived prefetch too: a page's policy is told
        ``feedback``, then ``record``), a resident prefetch probe, a clean
        trailing hint; on an idle link a miss that ``_admit`` places, in
        free room or onto a settled line, and a swap fault into a free page
        or onto a settled victim while no policy plans and no swap lock
        queues (booked at the next settle, :meth:`_book_misses`); a
        prefetch's absent lines, booked by :meth:`CacheSection._book` on a
        link :meth:`Network.link` lends.  A victim's object is reused for
        the next newcomer: a page's for the next fault, a line's -- a
        miss's or a fill's, the walk's ``spare`` -- for the next miss or
        fill.  Any other event settles the walk and takes the verb.  A
        chunk's event unpacks only what a hit reads (its slim row), the
        full row off the hit path.

        Every access is taken for a plain hit, so the walk's charges ahead
        of event ``a`` are closed form in ``a`` (``vb``, ``w_all``), plus
        ``off_``: what else moved the clock.  ``now`` is derived where it
        is read, the breakdown settled at the end.  Residency grows only by
        a free page or line, a fill or a verb: the metadata is sampled
        ahead of them and at the end, once if the accesses since passed a
        multiple of 256.  The path hook is told of each settled run (of
        slot 0's object)."""
        slots, tail = plan
        n = len(slots)
        clock = self.clock
        clock.flush()
        network = self.network
        swap = self.swap
        pages = swap._pages
        hinted = swap._evictable
        swap_stats = swap.stats
        record = None if self.policy is None else self.policy.record
        feedback = swap.feedback_policy and swap.feedback_policy.feedback
        fault_ok = self.policy is None and self.fault_lock is None
        hook = self._path_hook
        # ``at[j]``: the compute, dram and dram_stream slots ``0..j-1`` of an
        # iteration charge and their accesses; ``vb[j]``: all they charge,
        # every access a plain hit
        rows, at, vb = [], [(0.0, 0.0, 0.0, 0)], [0.0]
        slim = []  # what a chunk's hit reads of each row, the row, the write flag
        caps = {}  # each section of the plan: how many lines it holds
        for k, (kind, ref, nbytes, write, native, compute, mem) in enumerate(slots):
            oid = objs[ref]
            entry = self._resolved.get((oid, self.current_thread))
            if entry is None:
                entry = self._resolve(oid)
            obj, section, ostats, obj_native = entry
            nat = native or obj_native
            span = nbytes if nbytes > 0 else 1
            dram = mem if kind == ACCESS else 0.0
            flow = mem if kind == TOUCH else 0.0
            if section is None:  # the swap path: pages of the object's VAs
                where, resident, room, ov = obj.base_va, None, PAGE_SIZE - span, 0.0
            else:
                where, resident = section._line_size, section._resident
                room = where - span
                caps[section] = section.config.num_lines
                ov = 0.0 if nat or kind > TOUCH else section._hit_overhead
            # None an access on the swap path, 0 one to a section (each a
            # one-operator test), -1 a stream's access to a section object
            # whose last line is partial (an offset past the object can
            # land in a resident line: a hit checks its bounds), PREFETCH or
            # TRAIL on a section, 4 anything else (the verb, which raises at
            # a chunk's access outside its object)
            if kind <= TOUCH:
                mode = None if resident is None else 0
                if stream:
                    if resident is not None and obj.size % where:
                        mode = -1
                elif evs := tape[(k - start) % n :: n]:
                    if min(evs) < 0 or max(evs) > obj.size - span:
                        mode = 4
            else:
                mode = kind if resident is not None and kind <= TRAIL else 4
            c, d, s, acc = at[-1]
            pre = compute + dram + flow
            rows.append((
                k, kind, mode, oid, obj.size, obj.size - span, section, where,
                resident, span, room, nbytes, nat, ov, vb[-1] + pre, acc,
                ostats,
            ))
            slim.append((
                mode, oid, where, room, None if resident is None else resident.get,
                vb[-1] + pre, rows[-1], write,
            ))
            at.append((c + compute, d + dram, s + flow, acc + (kind <= TOUCH)))
            vb.append(vb[-1] + pre + ov)
        tc, td, ts, na = at[n]
        tc += tail
        w_all = vb[n] + tail  # one iteration
        chunk = not stream
        taken = [0] * n  # accesses per slot that were no plain hit
        mis = [0] * n  # folded misses per slot, not yet booked...
        dty = [0] * n  # ...how many of them evicted a dirty line...
        fre = [0] * n  # ...and how many took free room

        def static(p: int):
            """Compute, dram and dram_stream ahead of event ``p``."""
            q = p // n
            c, d, s, _ = at[p - q * n]
            if p and p == q * n:  # the last iteration's tail is owed
                c -= tail
            return c + q * tc, d + q * td, s + q * ts

        def close(stop: int) -> None:
            """Settle the breakdown, and count the plain accesses on the
            counters the per-element loop bumps, of events before
            ``stop``."""
            hit = 0.0
            for row in rows:
                k, kind, section, nat, ov, ostats = (
                    row[0], row[1], row[6], row[12], row[13], row[16]
                )
                done = (stop - k - 1) // n - (start - k - 1) // n - taken[k]
                if kind > TOUCH or not done:
                    continue
                ostats.accesses += done
                stats = swap_stats if section is None else section.stats
                stats.accesses += done
                stats.hits += done
                if section is None:
                    continue
                if nat:
                    stats.native_accesses += done
                else:
                    stats.overhead_ns += done * ov
                    hit += done * ov
            c, d, s = static(stop)
            bd = clock._breakdown
            bd["compute"] += c - c0
            bd["dram"] += d - d0
            bd["dram_stream"] += s - s0
            bd["hit_overhead"] += hit
            bd["evict_overhead"] += evict

        def settle(now, counter, pending, sampled, reported) -> None:
            """Put the clock at ``now`` -- less the ``pending`` folded
            misses' hit overhead, plus their booked charges -- and the
            access counter at ``counter``; sample, tell the hook."""
            clock._now = now
            if pending:
                if n == 1:  # (a one-slot plan counts them in ``pending`` only)
                    mis[0] = pending
                for row in rows:
                    k = row[0]
                    if mis[k]:
                        clock._now -= mis[k] * row[13]
                        self._book_misses(row[6], row[16], mis[k], dty[k], fre[k])
                        taken[k] += mis[k]
                        mis[k] = dty[k] = fre[k] = 0
            self._access_counter = counter
            if counter // 256 > sampled // 256:
                self._track_metadata()
            if hook is not None and counter > reported:
                hook(rows[0][3], rows[0][9], counter - reported, pending)

        def release() -> None:
            """Settle the lent link, if any."""
            nonlocal held
            if held is not None:
                network.posted(
                    held._transfer_bytes, held._one_sided, reads, wbacks, free_at
                )
                held = None

        j = start % n
        c0, d0, s0 = static(start)
        off_ = clock._now - (start // n * w_all + vb[j] - (tail if start == n else 0.0))
        # the access counter at ``a`` is ``cbase + a // n * na + at[a % n][3]``
        cbase = self._access_counter - (start // n * na + at[j][3])
        # the counter as of the last metadata sample and the last hook call
        sampled = reported = self._access_counter
        pending = 0  # folded misses not yet booked
        held = None  # the section a lent link books fills for
        free_at = wire = base = issue = evict = 0.0
        reads = wbacks = 0
        # the swap page the event before settled, ``entry``, and once an
        # access of the current row landed in it again, the object offsets
        # ``lo..hi`` it may start at to land there too; forgotten whenever
        # anything else may have run
        last, lo, hi, entry = None, 0, -1, None
        # may a miss read on the link now, and a fault fold too; how many
        # pages are free, and at most how many lines (``num_lines`` bounds
        # what a section's sets hold); the last victim line, the next miss's
        # or fill's
        idle = not network._link_free_at
        faulting = idle and fault_ok
        free = swap.capacity_pages - len(pages)
        lines = 0
        for sec in caps:
            lines += caps[sec] - len(sec._resident)
        spare = None
        # ``a`` is the position of the event in hand.  A chunk pairs each
        # offset with its event's slim row -- the write flag its last field
        # -- and reads the full ``row`` only off the hit path (``if chunk``);
        # a stream's row is taken once
        a = start - 1
        src = zip(tape, cycle(slim[j:] + slim[:j])) if chunk else tape
        stop = None  # the op a stream's walk ends at
        (k, kind, mode, oid, size, lim, section, where, resident, span, room,
         nbytes, nat, ov, mid, ab, _) = row = rows[j]
        get = slim[j][4]
        try:
            for off, w in src:
                a += 1
                if chunk:
                    mode, oid, where, room, get, mid, row, w = w
                    if n > 1:  # another slot's event may have run
                        last, hi = None, -1
                if mode is None:  # an access on the swap path
                    if off <= hi and lo <= off:
                        if w:
                            entry.dirty = True
                        continue
                    if (va := where + off) % PAGE_SIZE <= room and (
                        chunk or 0 <= off <= lim
                    ):
                        page = va // PAGE_SIZE
                        if page == last:  # from here on, one compare
                            lo = page * PAGE_SIZE - where
                            hi = lo + PAGE_SIZE - span
                            if hi > lim:
                                hi = lim
                            if w:
                                entry.dirty = True
                            continue
                        # (two operators, not ``pages.get``: no call on the
                        # miss path)
                        if page in pages:
                            pe = pages[page]
                            if not pe.evictable and (
                                not pe.ready_at
                                or not pending
                                and pe.ready_at <= a // n * w_all + mid + off_
                            ):
                                pages.move_to_end(page)
                                if pe.ready_at:  # a prefetch has arrived
                                    pe.ready_at = 0.0
                                    if feedback is not None:
                                        feedback(page, True, True)
                                if record is not None:
                                    record(page)
                                if w:
                                    pe.dirty = True
                                last, entry, hi = page, pe, -1
                                continue
                        elif faulting:
                            if chunk:
                                (k, kind, mode, oid, size, lim, section, where,
                                 resident, span, room, nbytes, nat, ov, mid, ab,
                                 _) = row
                            if free <= 0:
                                # ``_evict_one``'s victim -- the oldest hinted
                                # page, else the LRU head (a first key, read
                                # without a call) -- goes here only if settled
                                for vpage in hinted or pages:
                                    break
                                victim = pages[vpage]
                                if not victim.ready_at:
                                    if hinted:
                                        del hinted[vpage]
                                        swap_stats.hinted_evictions += 1
                                    del pages[vpage]
                                    if victim.dirty:
                                        dty[k] += 1
                                    victim.page = page  # the newcomer's entry
                                    victim.obj_id = oid
                                    victim.dirty = True if w else False
                                    victim.evictable = False
                                    entry = pages[page] = victim
                                    last, hi = page, -1
                                    pending += 1
                                    if chunk:
                                        mis[k] += 1
                                    continue
                            else:  # residency grows: sample first
                                counter = cbase + ab + a // n * na
                                if counter // 256 > sampled // 256:
                                    self._track_metadata()
                                sampled = counter
                                free -= 1
                                fre[k] += 1
                                entry = pages[page] = PageEntry(
                                    page, oid, True if w else False
                                )
                                last, hi = page, -1
                                pending += 1
                                if chunk:
                                    mis[k] += 1
                                continue
                elif not mode or mode < 0 and 0 <= off <= lim:  # a section
                    if off % where <= room:
                        key = (oid, off // where)
                        line = get(key)
                        if line is not None:
                            if line.ready_at and (
                                line.evictable
                                or pending
                                or line.ready_at > a // n * w_all + mid + off_
                            ):
                                pass  # in flight, or anything else: the verb
                            elif not line.evictable:
                                line.ready_at = 0.0  # (a prefetch has arrived)
                                order = line.order
                                if order is not None:
                                    order.move_to_end(key)
                                if w:
                                    line.dirty = True
                                continue
                        elif idle and (chunk or 0 <= off <= lim):
                            if chunk:
                                (k, kind, mode, oid, size, lim, section, where,
                                 resident, span, room, nbytes, nat, ov, mid, ab,
                                 _) = row
                            if not (w and section._write_no_fetch):
                                if lines:  # residency may grow: sample first
                                    counter = cbase + ab + a // n * na
                                    if counter // 256 > sampled // 256:
                                        self._track_metadata()
                                    sampled = counter
                                if spare is None:
                                    spare = Line(key, True if w else False, False,
                                                 0.0, section._metadata_free)
                                else:  # (a direct-mapped ``_admit`` sets no ``order``)
                                    spare.key = key
                                    spare.dirty = True if w else False
                                    spare.evictable = False
                                    spare.ready_at = 0.0  # (a fill's victim's stamp)
                                    spare.metadata_free = section._metadata_free
                                    spare.order = None
                                victim = section._admit(spare, True)
                                if victim is not spare:  # (else declined)
                                    if victim is None:
                                        lines -= 1
                                        fre[k] += 1
                                    else:
                                        if victim.evictable:
                                            section._hinted -= 1
                                            section.stats.hinted_evictions += 1
                                        if victim.dirty:
                                            dty[k] += 1
                                    spare = victim
                                    pending += 1
                                    if chunk:
                                        mis[k] += 1
                                    continue
                elif off is None:
                    continue  # a range guard skipped the hint
                if chunk:  # off the hit path: the full row
                    (k, kind, mode, oid, size, lim, section, where, resident,
                     span, room, nbytes, nat, ov, mid, ab, _) = row
                if mode == PREFETCH:
                    stop = off + nbytes if off + nbytes <= size else size
                    first = off // where
                    stop = (stop - 1) // where
                    if stop == first:
                        if (oid, first) in resident:
                            continue  # resident: one probe
                    else:
                        if stop - first >= section._prefetch_window:
                            stop = first + section._prefetch_window - 1
                        for first in range(first, stop + 1):
                            if (oid, first) not in resident:
                                break
                        else:
                            continue  # resident
                    if not pending:
                        if held is not section:  # the link is lent per section
                            release()
                            held = section
                            lent = network.link(
                                section._transfer_bytes, section._one_sided
                            )
                            if lent is None:
                                held = None
                            else:
                                _, free_at, wire, base, issue = lent
                                reads = wbacks = 0
                        if held is not None:
                            # residency may grow: sample first
                            counter = cbase + a // n * na + ab
                            if counter // 256 > sampled // 256:
                                self._track_metadata()
                            sampled = counter
                            now = a // n * w_all + mid + off_
                            later, free_at, r, wr, e, spare = section._book(
                                oid, first, stop, now, free_at, wire, base, issue,
                                spare,
                            )
                            off_ += later - now
                            reads += r
                            wbacks += wr
                            evict += e * section._evict_overhead
                            idle = faulting = False
                            continue
                elif mode == TRAIL:
                    prev = off - where
                    line = get((oid, prev // where)) if prev >= 0 else None
                    if line is None:
                        continue
                    if not line.dirty:
                        if not line.evictable and not section.config.shared:
                            section._hint(line)
                        continue
                if not chunk and not 0 <= off <= lim:
                    stop = off, w  # a stream's op leaves the object: done
                    a -= 1
                    break
                # anything else: settle the walk so far, take the verb
                q = a // n
                if held is not None:
                    release()
                now = q * w_all + mid
                settle(now + off_, cbase + q * na + ab, pending, sampled, reported)
                pending = 0
                if kind <= TOUCH:
                    taken[k] += 1
                    self.access(oid, off, nbytes, True if w else False, nat)
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
                off_ = clock.now - now - ov  # (the access was no plain hit)
                sampled = reported = self._access_counter
                idle = not network._link_free_at
                faulting = idle and fault_ok
                free = swap.capacity_pages - len(pages)
                lines = 0
                for sec in caps:
                    lines += caps[sec] - len(sec._resident)
                last, hi = None, -1
        except BaseException:
            # a verb raised (an out-of-bounds access): the clock is where
            # the event met it, and so is the breakdown
            close(a + 1)
            raise
        release()
        p = a + 1
        owed = tail if p and not p % n else 0.0
        settle(
            p // n * w_all + vb[p % n] + off_ - owed,
            cbase + p // n * na + at[p % n][3],
            pending, sampled, reported,
        )
        close(p)
        if p and not p % n and end:
            if tail:
                clock.advance(tail, "compute")
        if stream:
            return p - start, stop
        tape.clear()
        if p and not p % n and end:
            return 0
        return p - (p - 1) // n * n if p else 0

    def _book_misses(self, section, ostats, misses: int, dirty: int, free: int) -> None:
        """Book ``misses`` folded misses of one slot, already in place:
        ``free`` of them took free room, the rest evicted, ``dirty`` of
        those a dirty victim.  Counters, then the clock in per-element
        category order -- on a section the victims' ``evict_overhead``,
        one :meth:`Network.read` of the run, ``insert_overhead``; on the
        swap path the victims' write-backs (``eviction``), the kernel path
        (``page_fault``), one read, a write-back's ``_fault_ns`` ahead."""
        ostats.accesses += misses
        ostats.misses += misses
        clock = self.clock
        if section is None:
            swap = self.swap
            stats = swap.stats
            if dirty:
                clock.advance(dirty * self.cost.page_writeback_ns, "eviction")
            fault_ns = swap._fault_ns
            clock.advance(misses * fault_ns, "page_fault")
            stats.miss_wait_ns += misses * fault_ns + self.network.read(
                PAGE_SIZE, True, misses, dirty, fault_ns
            )
        else:
            stats = section.stats
            ev = (misses - free) * section._evict_overhead
            clock.advance(ev, "evict_overhead")
            stats.miss_wait_ns += self.network.read(
                section._transfer_bytes, section._one_sided, misses, dirty
            )
            ins = misses * section._insert_overhead
            clock.advance(ins, "insert_overhead")
            stats.overhead_ns += ev + ins
        stats.accesses += misses
        stats.misses += misses
        stats.evictions += misses - free
        stats.writebacks += dirty

    def prefetch(self, obj_id: int, offset: int, size: int) -> None:
        """A resident one-line range returns after one probe."""
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
        if offset + size > obj.size:  # no page past the object
            size = obj.size - offset
        va = obj.va_of(offset)
        pages = range(va // PAGE_SIZE, (va + max(size, 1) - 1) // PAGE_SIZE + 1)
        self.swap.prefetch_pages(zip(pages, repeat(obj.obj_id)), len(pages))

    # The range and object verbs: the object's pools answer each -- the
    # swap section, its section, its thread's clone inside a parallel
    # region, or every clone of its group outside one.

    def flush(self, obj_id: int, offset: int, size: int) -> None:
        obj = self.address_space.get(obj_id)
        for pool in self._pools(obj_id, self.current_thread):
            pool.flush(obj, offset, size)

    def evict_hint(self, obj_id: int, offset: int, size: int) -> None:
        obj = self.address_space.get(obj_id)
        for pool in self._pools(obj_id, self.current_thread):
            pool.evict_hint(obj, offset, size)

    def discard(self, obj_id: int) -> None:
        obj = self.address_space.get(obj_id)
        for pool in self._pools(obj_id, self.current_thread):
            pool.drop(obj, 0, obj.size)

    def evict_hint_trailing(self, obj_id: int, offset: int) -> None:
        """Streaming hint: the line before ``offset`` will not be touched
        again; mark it evictable (``evict_hint_line``, inlined)."""
        entry = self._resolved.get((obj_id, self.current_thread))
        if entry is None:
            entry = self._resolve(obj_id)
        obj, section = entry[0], entry[1]
        if section is None:
            va = obj.va_of(offset)
            prev = va - PAGE_SIZE
            if prev >= obj.base_va:
                self.swap.evict_hint(obj, offset - PAGE_SIZE, 1)
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

    def prefetch_batch(self, items: list[tuple[int, int, int]]) -> None:
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
            ls = section._line_size
            resident = section._resident
            for i in range(offset // ls, (offset + max(size, 1) - 1) // ls + 1):
                if (obj_id, i) not in resident:
                    missing.append((section, (obj_id, i)))
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

    def set_native(self, obj_id: int, native: bool) -> None:
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
        self._resolved.clear()
        pools = self._pools(obj.obj_id, None)
        self._assignment.pop(obj.obj_id, None)
        for pool in pools:
            pool.drop(obj, 0, obj.size)

    # -- reporting -----------------------------------------------------------

    def metadata_bytes(self) -> int:
        total = self.swap.metadata_bytes()
        for group in self._open.values():
            for section in group:
                total += section.metadata_bytes()
        return total

    def _track_metadata(self) -> None:
        md = self.metadata_bytes()
        if md > self.peak_metadata_bytes:
            self.peak_metadata_bytes = md

    def collect_section_stats(self) -> dict[str, dict]:
        """Snapshot per-section stats (including swap) for the profiler."""
        out = {"swap": vars(self.swap.stats).copy()}
        for name, sec in self.sections().items():
            out[name] = vars(sec.stats).copy()
        return out
