"""FastSwap baseline (Amaro et al., EuroSys'20).

A Linux kernel swap system over RDMA with an optimized fault datapath and
polling.  Characteristics the paper's comparisons exercise:

* 4 KB page granularity -> read/write amplification for fine accesses;
* no program knowledge -> demand paging only, global LRU eviction;
* zero per-access overhead on hits (pages are MMU-mapped);
* the swap datapath serializes under multi-threading (Fig. 24/25).

That is Mira's swap section covering the whole heap, so FastSwap is
Mira's cache manager with no cache sections: every object stays on the
swap path, and the manager's access and fold paths are its data path.
Baselines run the unconverted program, which opens no section and sends
no hint.
"""

from __future__ import annotations

from repro.cache.manager import CacheManager
from repro.memsim.resources import SerialResource


class FastSwap(CacheManager):
    """Whole-heap page swapping with demand paging.

    ``num_threads > 1`` serializes faults on the kernel swap lock.
    ``policy`` attaches an optional :class:`~repro.prefetch.PrefetchPolicy`
    (instance or name): the policy observes every touched page, proposes
    prefetches on demand misses, and receives used/wasted feedback from
    the swap section.  FastSwap itself defaults to no policy.
    """

    name = "fastswap"

    def __init__(
        self, cost, local_mem_bytes, clock=None, num_threads=1, policy=None
    ) -> None:
        super().__init__(
            cost,
            local_mem_bytes,
            clock,
            fault_lock=SerialResource("swap-lock") if num_threads > 1 else None,
            policy=policy,
        )

    @property
    def assign(self):
        """FastSwap opens no cache section, so there is nothing to assign
        an object to: every object stays on the swap path.  No ``assign``
        at all, so callers that probe a system with ``hasattr(system,
        "assign")`` for somewhere to move an object see none."""
        raise AttributeError(f"{type(self).__name__} has no cache sections")
