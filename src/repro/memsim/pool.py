"""Far-memory pooling: multiple memory nodes behind a placement layer.

Paper section 5: "Supporting multiple memory nodes, or memory pooling,
can be done via the integration of Mira and a distributed memory
management layer such as the one used in LegoOS, where Mira decides what
objects and functions to offload and the distributed memory manager
decides which memory node to offload them to."

:class:`FarMemoryPool` is that layer: it owns N :class:`FarMemoryNode`
instances and places each allocation on one of them under a pluggable
policy.  :class:`PooledCacheManager` plugs the pool under Mira's cache
manager -- sections and compilation are unchanged (exactly the division
of labor the paper describes); the pool adds per-node capacity limits and
traffic attribution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cache.manager import CacheManager
from repro.errors import AllocationError, ConfigError
from repro.memsim.address import ObjectInfo
from repro.memsim.cost_model import CostModel
from repro.memsim.farnode import FarMemoryNode


class PlacementPolicy(enum.Enum):
    ROUND_ROBIN = "round_robin"
    #: place on the node with the most free capacity (LegoOS-style)
    CAPACITY = "capacity"
    #: fill one node before spilling to the next
    FIRST_FIT = "first_fit"


@dataclass
class NodeStats:
    allocated_bytes: int = 0
    objects: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class FarMemoryPool:
    """N far-memory nodes and the placement decisions across them."""

    def __init__(
        self,
        cost: CostModel,
        num_nodes: int,
        capacity_per_node: int,
        policy: PlacementPolicy = PlacementPolicy.CAPACITY,
    ) -> None:
        if num_nodes <= 0:
            raise ConfigError(f"pool needs >= 1 node, got {num_nodes}")
        self.nodes = [
            FarMemoryNode(cost, capacity_per_node) for _ in range(num_nodes)
        ]
        self.capacity_per_node = capacity_per_node
        self.policy = policy
        self.stats = [NodeStats() for _ in range(num_nodes)]
        self._placement: dict[int, int] = {}
        self._next_rr = 0

    # -- placement -------------------------------------------------------

    def place(self, obj: ObjectInfo) -> int:
        """Choose a node for the object and allocate there."""
        node_id = self._choose(obj.size)
        # capacity accounting lives in the pool (a bump allocator cannot
        # reuse freed ranges; a real distributed manager tracks extents)
        st = self.stats[node_id]
        st.allocated_bytes += obj.size
        st.objects += 1
        self._placement[obj.obj_id] = node_id
        return node_id

    def _choose(self, size: int) -> int:
        candidates = [
            i for i, st in enumerate(self.stats)
            if st.allocated_bytes + size <= self.capacity_per_node
        ]
        if not candidates:
            raise AllocationError(
                f"far-memory pool exhausted: no node can fit {size} bytes"
            )
        if self.policy is PlacementPolicy.ROUND_ROBIN:
            for _ in range(len(self.nodes)):
                i = self._next_rr % len(self.nodes)
                self._next_rr += 1
                if i in candidates:
                    return i
            return candidates[0]
        if self.policy is PlacementPolicy.CAPACITY:
            return min(candidates, key=lambda i: self.stats[i].allocated_bytes)
        return candidates[0]  # FIRST_FIT

    def node_of(self, obj_id: int) -> int:
        try:
            return self._placement[obj_id]
        except KeyError:
            raise AllocationError(f"object {obj_id} not placed in pool") from None

    def release(self, obj: ObjectInfo) -> None:
        node_id = self._placement.pop(obj.obj_id, None)
        if node_id is not None:
            st = self.stats[node_id]
            st.allocated_bytes -= obj.size
            st.objects -= 1

    # -- reporting --------------------------------------------------------

    def record_traffic(self, obj_id: int, nbytes: int, is_write: bool) -> None:
        node_id = self._placement.get(obj_id)
        if node_id is None:
            return
        st = self.stats[node_id]
        if is_write:
            st.bytes_written += nbytes
        else:
            st.bytes_read += nbytes

    def imbalance(self) -> float:
        """max/mean allocated bytes across nodes (1.0 = perfectly even)."""
        sizes = [st.allocated_bytes for st in self.stats]
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean else 1.0


class PooledCacheManager(CacheManager):
    """Mira's cache manager over a far-memory pool.

    Mira decides *what* is remote and how it is cached (unchanged); the
    pool decides *where* each object lives and enforces per-node
    capacity.  All nodes sit behind the same rack switch, so the timing
    model (one link from the compute node) is unchanged; the pool adds
    placement, capacity, and per-node traffic accounting.
    """

    name = "mira-pooled"

    def __init__(
        self,
        cost: CostModel,
        local_mem_bytes: int,
        pool: FarMemoryPool,
        clock=None,
        fault_lock=None,
    ) -> None:
        super().__init__(cost, local_mem_bytes, clock, fault_lock)
        self.pool = pool

    def _on_allocate(self, obj: ObjectInfo) -> None:
        self.pool.place(obj)
        super()._on_allocate(obj)

    def _on_free(self, obj: ObjectInfo) -> None:
        super()._on_free(obj)
        self.pool.release(obj)

    def access(self, obj_id, offset, size, is_write, native=False) -> None:
        super().access(obj_id, offset, size, is_write, native=native)
        self.pool.record_traffic(obj_id, size, is_write)

    def _fold_ok(self, section) -> bool:
        return False  # record_traffic observes every access
