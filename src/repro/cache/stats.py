"""Per-section and per-object cache statistics."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SectionStats:
    """Counters a section accumulates; read by the profiler and figures."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    #: misses satisfied by an in-flight prefetch (partially hidden latency)
    prefetch_hits: int = 0
    prefetches_issued: int = 0
    #: evictions that threw away a prefetch still in flight (the fetched
    #: bytes crossed the wire but were never read)
    prefetch_wasted: int = 0
    evictions: int = 0
    #: evictions that picked a compiler-hinted evictable line
    hinted_evictions: int = 0
    writebacks: int = 0
    #: accesses compiled to native loads (no lookup overhead charged)
    native_accesses: int = 0
    #: virtual ns spent waiting on fetches (sync misses + early arrivals)
    miss_wait_ns: float = 0.0
    #: virtual ns of lookup/insert/evict overhead
    overhead_ns: float = 0.0

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def prefetch_waste_ratio(self) -> float:
        """Share of issued prefetches discarded before their data was
        read (evicted in flight, or dropped at section close/resize)."""
        if self.prefetches_issued == 0:
            return 0.0
        return self.prefetch_wasted / self.prefetches_issued

    def merge(self, other: "SectionStats") -> None:
        for f in (
            "accesses",
            "hits",
            "misses",
            "prefetch_hits",
            "prefetches_issued",
            "prefetch_wasted",
            "evictions",
            "hinted_evictions",
            "writebacks",
            "native_accesses",
        ):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        self.miss_wait_ns += other.miss_wait_ns
        self.overhead_ns += other.overhead_ns

    def publish(self, registry, prefix: str) -> None:
        """Publish every counter into a :class:`repro.obs.MetricsRegistry`
        under ``{prefix}.{field}`` (e.g. ``cache.main.hits``)."""
        for fname, value in vars(self).items():
            registry.gauge(f"{prefix}.{fname}").set(value)
        registry.gauge(f"{prefix}.miss_rate").set(self.miss_rate)
        registry.gauge(f"{prefix}.prefetch_waste_ratio").set(
            self.prefetch_waste_ratio
        )


@dataclass
class ObjectStats:
    """Per-object access/miss counters (Fig. 8 reports per-array miss
    rates even when arrays share a cache)."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class MemoryStats:
    """System-wide rollup for a whole run."""

    per_section: dict[str, SectionStats] = field(default_factory=dict)
    per_object: dict[int, ObjectStats] = field(default_factory=dict)
    metadata_bytes: int = 0

    def section(self, name: str) -> SectionStats:
        # .get + conditional insert: setdefault would construct a throwaway
        # SectionStats on every call of this per-access path
        s = self.per_section.get(name)
        if s is None:
            s = self.per_section[name] = SectionStats()
        return s

    def object(self, obj_id: int) -> ObjectStats:
        """An allocated object's counters (``MemorySystem.allocate`` makes
        them, so ``per_object`` is in allocation order)."""
        return self.per_object[obj_id]

    def total(self) -> SectionStats:
        out = SectionStats()
        for s in self.per_section.values():
            out.merge(s)
        return out
