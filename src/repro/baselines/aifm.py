"""AIFM baseline (Ruan et al., OSDI'20).

AIFM is a far-memory *programming model*: the programmer (or a library)
wraps data in remotable pointers; the runtime swaps whole remotable
objects and intercepts every dereference.  The paper's comparisons exercise
three AIFM characteristics (sections 2.1, 6.1):

* **per-dereference overhead** -- every access of a remotable pointer runs
  the library hot path (dereference-scope bookkeeping), even when the
  object is local; this is why AIFM trails the others at 100% local memory
  (Fig. 16, 18, 19);
* **per-object metadata** -- each remotable object carries a header; for
  fine-grained objects (AIFM's array library over 8-byte elements in MCF)
  the metadata rivals the data and starves the cache, to the point where
  AIFM cannot run below full memory (Fig. 18, 20);
* **whole-object fetches** -- a dereference moves the entire remotable
  object even if one field is needed (motivates Mira's selective
  transmission, section 4.5).

The remotable-object granularity is per allocation: workloads set
``attrs["aifm_obj_bytes"]`` to the granularity the AIFM port of that
application would use (array library: per element; DataFrame: per vector
chunk).  Default is one element.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.interface import MemorySystem
from repro.cache.stats import SectionStats
from repro.errors import AllocationError
from repro.memsim.address import ObjectInfo


class AIFM(MemorySystem):
    """Object-granularity remotable-pointer runtime."""

    name = "aifm"

    def __init__(self, cost, local_mem_bytes, clock=None) -> None:
        super().__init__(cost, local_mem_bytes, clock)
        #: resident remotable objects, LRU order: (obj_id, chunk) -> dirty
        self._resident: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self._resident_bytes = 0
        self._metadata_bytes = 0
        self._chunk_bytes: dict[int, int] = {}
        self.swap_stats = SectionStats()
        self.failed: bool = False
        #: obj_id -> (ObjectInfo, chunk_bytes, ObjectStats); ids are never
        #: reused, so entries stay valid (per-dereference path)
        self._obj_cache: dict[int, tuple] = {}
        self._deref_ns = cost.aifm_deref_ns
        self._miss_extra_ns = cost.aifm_miss_extra_ns

    # -- allocation: metadata is charged up front ----------------------------

    def _on_allocate(self, obj: ObjectInfo) -> None:
        granularity = int(obj.attrs.get("aifm_obj_bytes", obj.elem_size))
        granularity = max(1, min(granularity, obj.size))
        self._chunk_bytes[obj.obj_id] = granularity
        num_chunks = (obj.size + granularity - 1) // granularity
        self._metadata_bytes += num_chunks * self.cost.aifm_object_metadata_bytes
        if self._metadata_bytes >= self.local_mem_bytes:
            # AIFM cannot even hold its remotable-pointer metadata; the
            # paper observes exactly this for MCF below full memory
            self.failed = True
            raise AllocationError(
                f"AIFM metadata ({self._metadata_bytes} B) exceeds local "
                f"memory ({self.local_mem_bytes} B)"
            )

    def _on_free(self, obj: ObjectInfo) -> None:
        doomed = [k for k in self._resident if k[0] == obj.obj_id]
        chunk = self._chunk_bytes[obj.obj_id]
        for key in doomed:
            del self._resident[key]
            self._resident_bytes -= chunk

    # -- data path ----------------------------------------------------------

    def access(
        self,
        obj_id: int,
        offset: int,
        size: int,
        is_write: bool,
        native: bool = False,
    ) -> None:
        entry = self._obj_cache.get(obj_id)
        if entry is None:
            entry = (
                self.address_space.get(obj_id),
                self._chunk_bytes[obj_id],
                self.stats.object(obj_id),
            )
            self._obj_cache[obj_id] = entry
        obj, chunk_size, ostats = entry
        first = offset // chunk_size
        last = (offset + max(size, 1) - 1) // chunk_size
        for chunk in range(first, last + 1):
            ostats.accesses += 1
            self._deref(obj, chunk, chunk_size, is_write, ostats)

    def _deref(self, obj, chunk: int, chunk_size: int, is_write: bool, ostats):
        stats = self.swap_stats
        stats.accesses += 1
        # hot path: every dereference pays the library overhead
        deref_ns = self._deref_ns
        self.clock.advance(deref_ns, "aifm_deref")
        stats.overhead_ns += deref_ns
        key = (obj.obj_id, chunk)
        resident = self._resident
        if key in resident:
            resident.move_to_end(key)
            if is_write:
                resident[key] = True
            stats.hits += 1
            tr = self.tracer
            if tr is not None:
                tr.emit(
                    "cache.hit",
                    self.clock.now,
                    sec="aifm",
                    obj=obj.obj_id,
                    line=chunk,
                    ov=deref_ns,
                )
            return
        # miss: evict until the whole object fits, then fetch it entirely
        stats.misses += 1
        ostats.misses += 1
        budget = self.local_bytes_available()
        if budget < chunk_size:
            self.failed = True
            raise AllocationError(
                f"AIFM cannot fit a {chunk_size}-byte remotable object in "
                f"{budget} bytes of post-metadata local memory"
            )
        while self._resident_bytes + chunk_size > budget:
            self._evict_one()
        wait = self.network.read(chunk_size, one_sided=True)
        miss_extra = self._miss_extra_ns
        self.clock.advance(miss_extra, "aifm_miss")
        stats.miss_wait_ns += wait + miss_extra
        tel = self.telemetry
        if tel is not None:
            tel.observe_miss_wait(wait + miss_extra)
        resident[key] = is_write
        self._resident_bytes += chunk_size
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "cache.miss",
                self.clock.now,
                sec="aifm",
                obj=obj.obj_id,
                line=chunk,
                wait=wait + miss_extra,
                write=is_write,
                ov=self._deref_ns,
            )

    def _evict_one(self) -> None:
        key, dirty = self._resident.popitem(last=False)
        chunk_size = self._chunk_bytes[key[0]]
        self._resident_bytes -= chunk_size
        self.swap_stats.evictions += 1
        # eviction handler runs for every evicted object
        self.clock.advance(self.cost.evict_overhead_ns, "eviction")
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "cache.evict",
                self.clock.now,
                sec="aifm",
                obj=key[0],
                line=key[1],
                dirty=dirty,
                hinted=False,
                ov=self.cost.evict_overhead_ns,
            )
        if dirty:
            self.network.post(chunk_size, write=True)
            self.swap_stats.writebacks += 1

    # -- reporting -----------------------------------------------------------

    def metadata_bytes(self) -> int:
        return self._metadata_bytes

    def collect_section_stats(self) -> dict[str, dict]:
        """Per-section stats in the CacheManager shape (one pseudo-section
        for the remotable-object pool), so metrics collection and the
        windowed telemetry collector treat AIFM uniformly."""
        return {"aifm": vars(self.swap_stats).copy()}
