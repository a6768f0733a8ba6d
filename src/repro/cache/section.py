"""Cache-section machinery shared by all three structures.

A section caches fixed-size *lines* keyed by ``(obj_id, line_index)``.
Subclasses provide the placement policy (where a line may live and which
line to evict); this base class provides the timed data path: lookup
overhead, miss fetch over the network, prefetch overlap, eviction hints,
write-back, and statistics.  It is the per-access path; runs of plain
hits, misses and prefetch fills are folded over its tag store by the
manager's walker (``CacheManager.fold_chunk``), through ``_admit`` and
``_book``.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.cache.config import SectionConfig, Structure
from repro.cache.stats import SectionStats
from repro.errors import ConfigError
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.network import Network

#: a cache line's key: (object id, line index within the object)
LineKey = tuple[int, int]


@dataclass(slots=True)
class Line:
    """State of one resident cache line."""

    key: LineKey
    dirty: bool = False
    evictable: bool = False
    #: virtual time the line's data arrives (async prefetch); 0 = resident
    ready_at: float = 0.0
    #: metadata-free lines are compiler-managed (section 4.4)
    metadata_free: bool = False
    #: the ordered dict of keys whose order encodes this line's recency
    #: (its set's bucket, or the fully-associative list; None when the
    #: geometry keeps no recency, i.e. direct-mapped), set by ``_admit``
    order: OrderedDict | None = field(default=None, repr=False, compare=False)


class CacheSection(abc.ABC):
    """One configured cache section (abstract over placement policy)."""

    def __init__(
        self,
        config: SectionConfig,
        cost: CostModel,
        clock: VirtualClock,
        network: Network,
    ) -> None:
        self.config = config
        self.cost = cost
        self.clock = clock
        self.network = network
        self.stats = SectionStats()
        #: attached :class:`repro.obs.Tracer`, or None (tracing disabled)
        self.tracer = None
        #: attached telemetry collector (miss-wait observations), or None
        self.telemetry = None
        #: pre-bound per-kind emitters for the per-access emission sites
        #: (None when detached); cold sites go through ``tracer.emit``
        self._emit_hit = None
        self._emit_miss = None
        self._emit_prefetch_hit = None
        self._name = config.name
        #: the tag store: every resident line by key, whatever the
        #: geometry.  Written by the geometry's ``_admit`` (the newcomer
        #: in, its victim out) and by ``remove``, each time together with
        #: the geometry's own structures for victim choice.
        self._resident: dict[LineKey, Line] = {}
        #: resident lines carrying an eviction hint (``Line.evictable``):
        #: a set-associative victim choice scans its set for one only
        #: when this is non-zero
        self._hinted = 0
        # hot-path constants, resolved once (the access path runs per
        # program memory access)
        self._hit_overhead = cost.hit_overhead_ns(config.structure.value)
        self._insert_overhead = cost.insert_overhead_ns
        self._evict_overhead = cost.evict_overhead_ns
        self._line_size = config.line_size
        self._write_no_fetch = config.write_no_fetch
        self._transfer_bytes = config.transfer_bytes
        self._one_sided = config.one_sided
        self._metadata_free = config.metadata_free
        #: prefetch window the manager caps a single hint at (half the
        #: capacity so in-flight lines cannot evict each other)
        self._prefetch_window = max(1, config.num_lines // 2)

    # -- placement policy (subclass responsibility) --------------------------

    @abc.abstractmethod
    def _admit(self, line: Line, settled: bool = False) -> Line | None:
        """Make an absent line resident: put it where the geometry keeps
        it and in the tag store, set ``line.order`` (a geometry that keeps
        no recency leaves it), and return the line that had to leave for
        it -- already out of both -- or None if there was room.  Structure
        only: the caller owes a returned victim :meth:`_evicted`.

        The walker (:meth:`CacheManager.fold_chunk`) passes ``settled``: then
        a line whose victim is in flight (``ready_at`` set) is declined --
        nothing is touched and ``line`` itself is returned."""

    @abc.abstractmethod
    def _unplace(self, line: Line) -> None:
        """Take a line back out of the geometry's structures."""

    @abc.abstractmethod
    def resident_lines(self) -> list[Line]:
        """All resident lines in the geometry's own order, which is the
        order ``close`` writes dirty lines back in (visible in traces)."""

    def _hint(self, line: Line) -> None:
        """Mark a resident, un-hinted line evictable."""
        line.evictable = True
        self._hinted += 1

    def _unhint(self, line: Line) -> None:
        """A touch cancels the line's evictable mark."""
        line.evictable = False
        self._hinted -= 1

    # -- tag store -------------------------------------------------------------

    def peek(self, key: LineKey) -> Line | None:
        """Find a resident line without updating recency (touches no
        geometry structure, so probing absent keys leaves no trace)."""
        return self._resident.get(key)

    def remove(self, key: LineKey) -> Line | None:
        """Drop a line without write-back bookkeeping (caller handles it)."""
        line = self._resident.pop(key, None)
        if line is not None:
            self._unplace(line)
            if line.evictable:
                self._hinted -= 1
        return line

    def resident_count(self) -> int:
        """Number of resident lines (O(1); hot path)."""
        return len(self._resident)

    # -- tracing --------------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Attach/detach a tracer, pre-binding the per-access emitters
        (hit/miss/prefetch-hit fire once per program access; a
        pre-validated closure skips the schema check on every event)."""
        self.tracer = tracer
        if tracer is None:
            self._emit_hit = None
            self._emit_miss = None
            self._emit_prefetch_hit = None
        else:
            self._emit_hit = tracer.emitter("cache.hit")
            self._emit_miss = tracer.emitter("cache.miss")
            self._emit_prefetch_hit = tracer.emitter("cache.prefetch_hit")

    # -- geometry ------------------------------------------------------------

    def line_keys(self, obj_id: int, offset: int, size: int) -> list[LineKey]:
        """Keys of every line a ``[offset, offset+size)`` access touches."""
        if size <= 0:
            size = 1
        ls = self._line_size
        first = offset // ls
        last = (offset + size - 1) // ls
        if first == last:
            return [(obj_id, first)]
        return [(obj_id, i) for i in range(first, last + 1)]

    # -- timed data path ------------------------------------------------------

    def access(
        self, obj_id: int, offset: int, size: int, is_write: bool, native: bool = False
    ) -> bool:
        """One program access; returns True iff every touched line hit.

        ``native=True`` means the compiler proved line residency and elided
        the dereference: no lookup overhead is charged on hits (section
        4.4), though a genuinely absent line still faults and fetches.
        """
        if size <= 0:
            size = 1
        ls = self._line_size
        first = offset // ls
        last = (offset + size - 1) // ls
        if first == last:  # element accesses touch a single line
            return self._access_line((obj_id, first), is_write, native)
        all_hit = True
        for i in range(first, last + 1):
            hit = self._access_line((obj_id, i), is_write, native)
            all_hit = all_hit and hit
        return all_hit

    def _access_line(self, key: LineKey, is_write: bool, native: bool) -> bool:
        stats = self.stats
        stats.accesses += 1
        line = self._resident.get(key)
        if line is not None:
            order = line.order
            if order is not None:
                order.move_to_end(key)
            if line.evictable:
                self._unhint(line)
            if is_write:
                line.dirty = True
            ready_at = line.ready_at
            if ready_at:
                clock = self.clock
                if ready_at > clock.now:
                    # prefetched but still in flight: wait the remainder
                    wait = ready_at - clock.now
                    clock.wait_until(ready_at, "miss_wait")
                    stats.miss_wait_ns += wait
                    tel = self.telemetry
                    if tel is not None:
                        tel.observe_miss_wait(wait)
                    stats.prefetch_hits += 1
                    stats.misses += 1
                    line.ready_at = 0.0
                    em = self._emit_prefetch_hit
                    if em is not None:
                        em(
                            clock.now,
                            sec=self._name,
                            obj=key[0],
                            line=key[1],
                            wait=wait,
                        )
                    return False
                # prefetch settled: clear the marker (as the swap path
                # does), or every later hit re-reads the clock here
                line.ready_at = 0.0
            if native:
                stats.native_accesses += 1
            else:
                overhead = self._hit_overhead
                self.clock.advance(overhead, "hit_overhead")
                stats.overhead_ns += overhead
            stats.hits += 1
            em = self._emit_hit
            if em is not None:
                if native:
                    # flagged so trace analysis knows no lookup overhead
                    # was charged for this hit (compiler-elided deref)
                    em(
                        self.clock.now,
                        sec=self._name,
                        obj=key[0],
                        line=key[1],
                        nat=True,
                    )
                else:
                    em(
                        self.clock.now,
                        sec=self._name,
                        obj=key[0],
                        line=key[1],
                    )
            return True
        # miss: synchronous fetch (skipped for whole-line writes in
        # write-no-fetch sections, section 4.5)
        stats.misses += 1
        victim = self._admit(Line(key, is_write, False, 0.0, self._metadata_free))
        if victim is not None:
            self._evicted(victim)
        if is_write and self._write_no_fetch:
            fetch_ns = 0.0
        else:
            fetch_ns = self.network.read(self._transfer_bytes, self._one_sided)
        stats.miss_wait_ns += fetch_ns
        tel = self.telemetry
        if tel is not None:
            tel.observe_miss_wait(fetch_ns)
        ins = self._insert_overhead
        self.clock.advance(ins, "insert_overhead")
        stats.overhead_ns += ins
        em = self._emit_miss
        if em is not None:
            em(
                self.clock.now,
                sec=self._name,
                obj=key[0],
                line=key[1],
                wait=fetch_ns,
                write=is_write,
            )
        return False

    def prefetch_range(self, obj_id: int, first: int, last: int) -> None:
        """Prefetch line indices ``first..last`` inclusive.  With no tracer
        or telemetry, on a link :meth:`Network.link` lends, the absent
        lines settle in one loop (:meth:`_book`), counters and clock
        settled once; otherwise line by line (:meth:`_prefetch_absent`)."""
        resident = self._resident
        for first in range(first, last + 1):
            if (obj_id, first) not in resident:
                break
        else:
            return  # all resident: hot, most hinted lines already are
        link = None
        if self.tracer is None and self.telemetry is None:
            link = self.network.link(self._transfer_bytes, self._one_sided)
        if link is None:
            for i in range(first, last + 1):
                key = (obj_id, i)
                if key not in resident:
                    self._prefetch_absent(key)
            return
        now, free_at, wire, base, issue = link
        _, free_at, reads, writes, evictions = self._book(
            obj_id, first, last, now, free_at, wire, base, issue
        )
        if evictions:
            self.clock.advance(evictions * self._evict_overhead, "evict_overhead")
        self.network.posted(
            self._transfer_bytes, self._one_sided, reads, writes, free_at
        )

    def _book(self, obj_id, first, last, now, free_at, wire, base, issue):
        """Admit the absent lines among ``first..last``, booking each read
        -- behind its dirty victim's write-back -- on a link
        :meth:`Network.link` lent, by :meth:`Network.post`'s rule on a
        local ``now`` and ``free_at``.  Each line learns ``ready_at``
        before the next ``_admit``, so a later line evicting an earlier
        one finds it in flight, as line by line.  Counts the section's
        counters; the caller owes the clock ``evictions`` evict charges
        and the link :meth:`Network.posted`.  Returns ``(now, free_at,
        reads, writes, evictions)``."""
        resident = self._resident
        admit = self._admit
        metadata_free = self._metadata_free
        ev = self._evict_overhead
        stats = self.stats
        reads = writes = evictions = 0
        for i in range(first, last + 1):
            key = (obj_id, i)
            if key in resident:
                continue
            line = Line(key, False, False, 0.0, metadata_free)
            victim = admit(line)
            if victim is not None:
                evictions += 1
                if victim.evictable:
                    stats.hinted_evictions += 1
                    self._hinted -= 1
                if victim.ready_at > now:
                    stats.prefetch_wasted += 1  # (see ``_evicted``)
                now += ev
                if victim.dirty:
                    writes += 1
                    free_at = (free_at if free_at > now else now) + wire
                    now += issue
            free_at = (free_at if free_at > now else now) + wire
            line.ready_at = free_at + base
            now += issue
            reads += 1
        stats.prefetches_issued += reads
        if evictions:
            stats.evictions += evictions
            stats.writebacks += writes
            stats.overhead_ns += evictions * ev
        return now, free_at, reads, writes, evictions

    def _prefetch_absent(self, key: LineKey) -> None:
        line = Line(key, False, False, 0.0, self._metadata_free)
        victim = self._admit(line)
        if victim is not None:
            self._evicted(victim)
        # the read goes out after the victim's write-back (the link books
        # them in that order), so the placed line learns ``ready_at`` here
        line.ready_at = ready = self.network.post(
            self._transfer_bytes, self._one_sided
        )
        self.stats.prefetches_issued += 1
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "cache.prefetch",
                self.clock.now,
                sec=self._name,
                obj=key[0],
                line=key[1],
                ready=ready,
            )

    def missing_keys(self, keys: list[LineKey]) -> list[LineKey]:
        """Subset of ``keys`` not resident (for batched prefetch)."""
        resident = self._resident
        return [k for k in keys if k not in resident]

    def install_prefetched(self, key: LineKey, ready_at: float) -> None:
        """Install a line arriving as part of a batched prefetch message
        (the caller already issued the combined network read)."""
        if key in self._resident:
            return
        victim = self._admit(Line(key, False, False, ready_at, self._metadata_free))
        if victim is not None:
            self._evicted(victim)
        self.stats.prefetches_issued += 1
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "cache.prefetch",
                self.clock.now,
                sec=self._name,
                obj=key[0],
                line=key[1],
                ready=ready_at,
                batch=True,
            )

    def flush_line(self, key: LineKey) -> None:
        """Asynchronously write back a dirty line (keeps it resident)."""
        line = self._resident.get(key)
        if line is not None and line.dirty:
            self.network.post(self._transfer_bytes, self._one_sided, write=True)
            line.dirty = False
            self.stats.writebacks += 1
            tr = self.tracer
            if tr is not None:
                tr.emit(
                    "cache.writeback",
                    self.clock.now,
                    sec=self._name,
                    obj=key[0],
                    line=key[1],
                    flush=True,
                )

    def evict_hint_line(self, key: LineKey) -> None:
        """Mark a line evictable (last access passed)."""
        if self.config.shared:
            # shared sections ignore hints (section 4.6)
            return
        line = self._resident.get(key)
        if line is not None and not line.evictable:
            self._hint(line)

    def drop_clean(self, key: LineKey) -> None:
        """Discard a line without write-back (read-only loop epilogue)."""
        line = self.remove(key)
        if line is not None and line.dirty:
            # unexpected dirty data must still reach far memory
            self._writeback(line)

    def close(self) -> None:
        """Flush everything; used when a section's lifetime ends."""
        now = self.clock.now
        for line in self.resident_lines():
            if line.dirty:
                self._writeback(line)
            if line.ready_at and line.ready_at > now:
                # the section died before its in-flight prefetch landed
                self.stats.prefetch_wasted += 1
        for key in list(self._resident):
            self.remove(key)

    # -- helpers ----------------------------------------------------------

    def _evicted(self, victim: Line) -> None:
        """Account the eviction of the line ``_admit`` just took out:
        counters, the evict charge, the trace event, the write-back."""
        stats = self.stats
        stats.evictions += 1
        if victim.evictable:
            stats.hinted_evictions += 1
            self._hinted -= 1
        if victim.ready_at and victim.ready_at > self.clock.now:
            # evicted before the prefetched data ever arrived: wasted
            # (mirrors SwapSection's accounting, so the waste-ratio gauge
            # means the same thing on both paths)
            stats.prefetch_wasted += 1
        ev = self._evict_overhead
        self.clock.advance(ev, "evict_overhead")
        stats.overhead_ns += ev
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "cache.evict",
                self.clock.now,
                sec=self._name,
                obj=victim.key[0],
                line=victim.key[1],
                dirty=victim.dirty,
                hinted=victim.evictable,
            )
        if victim.dirty:
            if tr is not None:
                self._writeback(victim)
            else:  # the same, minus the event nobody is listening for
                self.network.post(self._transfer_bytes, self._one_sided, write=True)
                stats.writebacks += 1

    def _writeback(self, line: Line) -> None:
        self.network.post(self._transfer_bytes, self._one_sided, write=True)
        self.stats.writebacks += 1
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "cache.writeback",
                self.clock.now,
                sec=self._name,
                obj=line.key[0],
                line=line.key[1],
            )

    # -- reporting -----------------------------------------------------------

    def metadata_bytes(self) -> int:
        if self.config.metadata_free:
            return 0
        return self.resident_count() * self.config.metadata_per_line

    def occupancy(self) -> int:
        return self.resident_count() * self.config.line_size


def make_section(
    config: SectionConfig,
    cost: CostModel,
    clock: VirtualClock,
    network: Network,
) -> CacheSection:
    """Factory: build the right section subclass for a config."""
    from repro.cache.direct_mapped import DirectMappedSection
    from repro.cache.fully_associative import FullyAssociativeSection
    from repro.cache.set_associative import SetAssociativeSection

    if config.structure is Structure.DIRECT:
        return DirectMappedSection(config, cost, clock, network)
    if config.structure is Structure.SET_ASSOCIATIVE:
        return SetAssociativeSection(config, cost, clock, network)
    if config.structure is Structure.FULLY_ASSOCIATIVE:
        return FullyAssociativeSection(config, cost, clock, network)
    raise ConfigError(f"unknown structure {config.structure!r}")
