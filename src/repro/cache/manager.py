"""Mira's run-time memory system: a set of cache sections plus the swap
section, with dynamic section lifetimes.

The controller opens a section for a group of objects with similar access
patterns, assigns them, and closes the section when lifetime analysis says
the scope ended -- immediately returning its budget (this is what lets
GPT-2 run at 4.5% local memory: each layer's section dies as the layer
finishes).
"""

from __future__ import annotations

from itertools import cycle
from operator import length_hint

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
        """The bulk path (contract: :meth:`MemorySystem.bulk_access`), a
        one-slot plan for :meth:`fold_chunk` once its checks pass."""
        if len(offsets) != len(writes):
            raise ValueError(
                f"bulk_access: {len(offsets)} offsets for {len(writes)} write flags"
            )
        entry = self._resolved.get((obj_id, self.current_thread))
        if entry is None:
            entry = self._resolve(obj_id)
        if entry[3] or size <= 0 or not self.fold_ok((obj_id,)):
            return False
        if offsets and (min(offsets) < 0 or max(offsets) + size > entry[0].size):
            return False  # the per-element path raises the canonical error
        self._bulk_walk(obj_id, offsets, writes, size, dram_ns, before_ns, after_ns)
        return True

    def _bulk_walk(self, obj_id, offsets, writes, size, dram_ns, before_ns, after_ns):
        """The access with ``before_ns`` of compute and ``dram_ns`` of dram
        ahead of it is the one slot, ``after_ns`` the tail."""
        slot = (ACCESS, 0, size, False, False, before_ns, dram_ns)
        self.fold_chunk(((slot,), after_ns), (obj_id,), offsets, 0, True, writes)

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

    def fold_chunk(self, plan, objs, tape, start: int, end: bool, writes=None) -> int:
        """The one fold loop, bit-identical to the per-element loop.
        ``tape`` holds each memory event's byte offset in program order
        (None where a range guard skipped the event), the first at slot
        ``start`` (``n``: the tail of the iteration before is owed first);
        ``end``: its last iteration's tail is charged too.  A chunk takes
        each write flag from its slot, has its accesses' bounds checked
        per slot and is emptied; ``bulk_access`` passes ``writes`` and
        offsets it checked.  Returns the slot the next entry is at.

        In place, under exactly the conditions of the one-frame verbs: a
        plain hit, a resident prefetch probe, a clean trailing hint; on an
        idle link a miss that ``_admit`` places, in free room or onto a
        settled line, and a swap fault into a free page or onto a settled
        victim while no policy plans and no swap lock queues (booked at
        the next settle, :meth:`_book_misses`), a victim's object reused
        for the next newcomer; a prefetch's absent lines, booked
        by :meth:`CacheSection._book` on a link :meth:`Network.link`
        lends.  Any other event settles the walk and takes the verb.

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
        fault_ok = self.policy is None and self.fault_lock is None
        hook = self._path_hook
        # ``at[j]``: the compute, dram and dram_stream slots ``0..j-1`` of an
        # iteration charge and their accesses; ``vb[j]``: all they charge,
        # every access a plain hit
        rows, at, vb = [], [(0.0, 0.0, 0.0, 0)], [0.0]
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
            stream = mem if kind == TOUCH else 0.0
            if section is None:  # the swap path: pages of the object's VAs
                where, resident, room, ov = obj.base_va, None, PAGE_SIZE - span, 0.0
            else:
                where, resident = section._line_size, section._resident
                room = where - span
                caps[section] = section.config.num_lines
                ov = 0.0 if nat or kind > TOUCH else section._hit_overhead
            # None an access on the swap path, 0 one to a section (each a
            # one-operator test), PREFETCH or TRAIL on a section, 4 anything
            # else (the verb, which raises at a chunk's access outside its
            # object)
            if kind <= TOUCH:
                mode = None if resident is None else 0
                if writes is None and (evs := tape[(k - start) % n :: n]):
                    if min(evs) < 0 or max(evs) > obj.size - span:
                        mode = 4
            else:
                mode = kind if resident is not None and kind <= TRAIL else 4
            c, d, s, acc = at[-1]
            pre = compute + dram + stream
            rows.append((
                k, kind, mode, oid, obj.size, obj.size - span, section, where,
                resident, span, room, nbytes, nat, ov, vb[-1] + pre, acc,
                ostats, write,
            ))
            at.append((c + compute, d + dram, s + stream, acc + (kind <= TOUCH)))
            vb.append(vb[-1] + pre + ov)
        tc, td, ts, na = at[n]
        tc += tail
        w_all = vb[n] + tail  # one iteration
        chunk = writes is None  # else the bulk plan: one slot, checked offsets
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
                if n == 1:  # (a bulk plan counts them in ``pending`` only)
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
        idle = not network._link_free_at
        faulting = idle and fault_ok
        free = swap.capacity_pages - len(pages)
        lines = 0
        for sec in caps:
            lines += caps[sec] - len(sec._resident)
        spare = None
        # a chunk takes each event's row -- its write flag the last field --
        # in place of ``writes`` and counts its position ``a``; the bulk
        # plan's row is taken once, and a slow path reads the position off
        # the tape's iterator
        it = iter(tape)
        past = start + len(tape) - 1  # the last event's position
        a = start - 1 if chunk else None
        if chunk:
            writes = cycle(rows[j:] + rows[:j])
        (k, kind, mode, oid, size, lim, section, where, resident, span, room,
         nbytes, nat, ov, mid, ab, _, _) = rows[j]
        get = None if resident is None else resident.get
        try:
            for off, w in zip(it, writes):
                if chunk:
                    a += 1
                    (k, kind, mode, oid, size, lim, section, where, resident,
                     span, room, nbytes, nat, ov, mid, ab, _, w) = w
                    if resident is not None:
                        get = resident.get
                    last, hi = None, -1
                if mode is None:  # an access on the swap path
                    if off <= hi and lo <= off:
                        if w:
                            entry.dirty = True
                        continue
                    if (va := where + off) % PAGE_SIZE <= room:
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
                            if not pe.ready_at and not pe.evictable:
                                pages.move_to_end(page)
                                if record is not None:
                                    record(page)
                                if w:
                                    pe.dirty = True
                                last, entry, hi = page, pe, -1
                                continue
                        elif faulting:
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
                                counter = cbase + ab + na * (
                                    (past - length_hint(it) if a is None else a) // n
                                )
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
                elif not mode:  # an access to a section
                    if off % where <= room:
                        key = (oid, off // where)
                        line = get(key)
                        if line is not None:
                            if line.ready_at and (
                                line.evictable
                                or pending
                                or line.ready_at
                                > (past - length_hint(it) if a is None else a)
                                // n * w_all + mid + off_
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
                        elif idle and not (w and section._write_no_fetch):
                            if lines:  # residency may grow: sample first
                                counter = cbase + ab + na * (
                                    (past - length_hint(it) if a is None else a) // n
                                )
                                if counter // 256 > sampled // 256:
                                    self._track_metadata()
                                sampled = counter
                            if spare is None:
                                spare = Line(key, True if w else False, False, 0.0,
                                             section._metadata_free)
                            else:  # (``order``: a direct-mapped ``_admit`` sets none)
                                spare.key = key
                                spare.dirty = True if w else False
                                spare.evictable = False
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
                elif mode == PREFETCH:
                    stop = off + nbytes if off + nbytes <= size else size
                    first = off // where
                    stop = (stop - 1) // where
                    if stop - first >= section._prefetch_window:
                        stop = first + section._prefetch_window - 1
                    for first in range(first, stop + 1):
                        if (oid, first) not in resident:
                            break
                    else:
                        continue  # resident: one probe
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
                            later, free_at, r, wr, e = section._book(
                                oid, first, stop, now, free_at, wire, base, issue
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
                # anything else: settle the walk so far, take the verb
                q = (past - length_hint(it) if a is None else a) // n
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
            close((past - length_hint(it) if a is None else a) + 1)
            raise
        release()
        p = past + 1
        owed = tail if p and not p % n else 0.0
        settle(
            p // n * w_all + vb[p % n] + off_ - owed,
            cbase + p // n * na + at[p % n][3],
            pending, sampled, reported,
        )
        close(p)
        if chunk:
            tape.clear()
        if p and not p % n and end:
            if tail:
                clock.advance(tail, "compute")
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
