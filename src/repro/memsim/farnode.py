"""The far-memory node.

Holds the remote allocator (paper section 5.2.1: a low-level allocator at
far memory fronted by a buffering local allocator) and a weak CPU able to
execute offloaded functions (section 4.8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError
from repro.memsim.cost_model import CostModel, grid

#: granularity at which the local allocator requests address ranges from
#: the remote allocator (amortizes the allocation round trip)
REMOTE_ALLOC_CHUNK = 16 * 1024 * 1024


@dataclass
class _Extent:
    base: int
    size: int


class RemoteAllocator:
    """Low-level bump allocator in the far node's virtual address space."""

    def __init__(self, capacity: int, base: int = 0x7F00_0000_0000) -> None:
        self.capacity = capacity
        self._base = base
        self._brk = base

    def allocate(self, size: int) -> int:
        if self._brk + size > self._base + self.capacity:
            raise AllocationError(
                f"far memory exhausted: need {size} bytes, "
                f"{self._base + self.capacity - self._brk} remain"
            )
        addr = self._brk
        self._brk += size
        return addr

    @property
    def used(self) -> int:
        return self._brk - self._base


class LocalAllocator:
    """Buffers far-memory address ranges locally (``remotable.alloc``).

    Works like a library malloc over the remote allocator's mmap: it asks
    the remote side for large chunks and carves allocations out of them
    without a network round trip.  ``round_trips`` counts how often the
    remote allocator had to be contacted.
    """

    def __init__(self, remote: RemoteAllocator) -> None:
        self._remote = remote
        self._extents: list[_Extent] = []
        self.round_trips = 0

    def allocate(self, size: int) -> int:
        for ext in self._extents:
            if ext.size >= size:
                addr = ext.base
                ext.base += size
                ext.size -= size
                return addr
        chunk = max(size, REMOTE_ALLOC_CHUNK)
        base = self._remote.allocate(chunk)
        self.round_trips += 1
        self._extents.append(_Extent(base + size, chunk - size))
        return base


class FarMemoryNode:
    """Far-memory node: capacity, allocators, and offload compute."""

    def __init__(self, cost: CostModel, capacity: int = 1 << 40) -> None:
        self.cost = cost
        self.remote_allocator = RemoteAllocator(capacity)
        self.local_allocator = LocalAllocator(self.remote_allocator)
        #: per-run :class:`repro.faults.FaultInjector` (slowdown windows
        #: scale offload compute); None when healthy
        self.faults = None
        #: the owning system's virtual clock, used only to locate the
        #: current time inside fault windows
        self.clock = None

    def allocate(self, size: int) -> int:
        """Allocate ``size`` bytes of far memory; returns the far VA."""
        return self.local_allocator.allocate(size)

    def compute_ns(self, local_equiv_ns: float) -> float:
        """Time for the far node's weaker CPU to do work that would take
        ``local_equiv_ns`` on the compute node."""
        ns = local_equiv_ns * self.cost.far_cpu_slowdown
        flt = self.faults
        if flt is not None and self.clock is not None:
            ns *= flt.far_scale(self.clock.now)
        return grid(ns)

    @property
    def used_bytes(self) -> int:
        return self.remote_allocator.used

    def publish_metrics(self, registry) -> None:
        """Publish allocator state into a :class:`repro.obs.MetricsRegistry`."""
        registry.gauge("far.used_bytes").set(self.used_bytes)
        registry.gauge("far.alloc_round_trips").set(self.local_allocator.round_trips)
