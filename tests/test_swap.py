"""Swap-section tests (the page-granularity universal section)."""

import pytest

from repro.cache.swap import SwapSection
from repro.errors import ConfigError
from repro.memsim.address import PAGE_SIZE, ObjectInfo
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.network import Network
from repro.memsim.resources import SerialResource


#: an object at address 0 covering every page the tests touch
OBJ = ObjectInfo(obj_id=7, size=16 * PAGE_SIZE, elem_size=8, base_va=0)


def _swap(pages=4, extra_fault=0.0, lock=None):
    cost = CostModel()
    clock = VirtualClock()
    net = Network(cost, clock)
    return SwapSection(pages * PAGE_SIZE, cost, clock, net, extra_fault, lock), clock


def test_needs_at_least_one_page():
    cost = CostModel()
    clock = VirtualClock()
    with pytest.raises(ConfigError):
        SwapSection(100, cost, clock, Network(cost, clock))


def test_fault_then_hit():
    swap, clock = _swap()
    assert swap.access(0x1000, 8, False) is False
    t = clock.now
    assert t >= CostModel().page_fault_ns
    assert swap.access(0x1000, 8, False) is True
    assert clock.now == t  # page hits are free (MMU-resolved)


def test_page_spanning_access():
    swap, _ = _swap()
    swap.access(PAGE_SIZE - 4, 8, False)
    assert swap.stats.accesses == 2
    assert swap.stats.misses == 2


def test_lru_eviction_at_capacity():
    swap, _ = _swap(pages=2)
    swap.access(0 * PAGE_SIZE, 8, False)
    swap.access(1 * PAGE_SIZE, 8, False)
    swap.access(2 * PAGE_SIZE, 8, False)  # evicts page 0
    assert not swap.contains(0)
    assert swap.contains(1)
    assert swap.contains(2)


def test_dirty_eviction_writes_back():
    swap, _ = _swap(pages=1)
    swap.access(0, 8, True)
    before = swap.network.stats.bytes_written
    swap.access(PAGE_SIZE, 8, False)
    assert swap.network.stats.bytes_written == before + PAGE_SIZE
    assert swap.stats.writebacks == 1


def test_prefetch_async_then_hit():
    swap, clock = _swap()
    swap.prefetch(5)
    clock.advance(1e7, "compute")
    t0 = clock.now
    assert swap.access(5 * PAGE_SIZE, 8, False) is True
    assert clock.now == t0


def test_prefetch_early_access_waits():
    swap, clock = _swap()
    swap.prefetch(5)
    swap.access(5 * PAGE_SIZE, 8, False)
    assert swap.stats.prefetch_hits == 1


def test_evict_hint_preferred():
    swap, _ = _swap(pages=2)
    swap.access(0, 8, False)
    swap.access(PAGE_SIZE, 8, False)
    swap.evict_hint(OBJ, PAGE_SIZE, 8)  # hint page 1, even though page 0 is LRU
    swap.access(2 * PAGE_SIZE, 8, False)
    assert swap.contains(0)
    assert not swap.contains(1)
    assert swap.stats.hinted_evictions == 1


def test_flush_cleans_dirty_pages():
    swap, _ = _swap()
    swap.access(0, 8, True)
    swap.flush(OBJ, 0, 8)
    assert swap.stats.writebacks == 1
    # evicting a clean page writes nothing further
    before = swap.network.stats.bytes_written
    swap.resize(PAGE_SIZE)
    swap.access(PAGE_SIZE, 8, False)
    assert swap.network.stats.bytes_written == before + 0


def test_drop_object_unmaps_pages():
    swap, _ = _swap()
    swap.access(0, 8, True, obj_id=7)
    swap.drop(OBJ, 0, OBJ.size)
    assert not swap.contains(0)
    assert swap.stats.writebacks == 1  # dirty page written back


def test_resize_shrink_evicts():
    swap, _ = _swap(pages=4)
    for i in range(4):
        swap.access(i * PAGE_SIZE, 8, False)
    swap.resize(2 * PAGE_SIZE)
    assert swap.resident_pages() == 2


def test_fault_lock_serializes_threads():
    lock = SerialResource()
    swap, clock = _swap(lock=lock)
    swap.access(0, 8, False)
    assert lock.acquisitions == 1


def test_extra_fault_cost():
    slow, clock_slow = _swap(extra_fault=10_000.0)
    fast, clock_fast = _swap()
    slow.access(0, 8, False)
    fast.access(0, 8, False)
    assert clock_slow.now == pytest.approx(clock_fast.now + 10_000.0)


def test_eviction_prefers_settled_victim():
    # regression (S3): the LRU head's prefetch is still in flight; eviction
    # must pick a settled page instead of throwing the fetch away unread
    swap, _ = _swap(pages=2)
    swap.access(1 * PAGE_SIZE, 8, False)  # settled resident page
    swap.prefetch(0)                      # fetch in flight
    swap.access(1 * PAGE_SIZE, 8, False)  # hit: page 0 becomes the LRU head
    swap.access(2 * PAGE_SIZE, 8, False)  # forces an eviction
    assert swap.contains(0)               # the in-flight prefetch survived
    assert not swap.contains(1)
    assert swap.stats.prefetch_wasted == 0


def test_evicting_inflight_page_counts_wasted():
    swap, _ = _swap(pages=2)
    swap.prefetch(0)
    swap.prefetch(1)
    swap.access(2 * PAGE_SIZE, 8, False)  # every page in flight: one must go
    assert not swap.contains(0)
    assert swap.stats.prefetch_wasted == 1


def test_hinted_eviction_of_inflight_page_counts_wasted():
    swap, _ = _swap(pages=2)
    swap.prefetch(0)
    swap.prefetch(1)
    swap.evict_hint(OBJ, 0, 8)  # hint the page whose fetch is still in flight
    swap.resize(PAGE_SIZE)    # shrink while both fetches are airborne
    assert swap.stats.hinted_evictions == 1
    assert swap.stats.prefetch_wasted == 1


def test_settled_prefetch_not_counted_wasted():
    swap, clock = _swap(pages=2)
    swap.prefetch(0)
    clock.advance(1e7, "compute")         # the prefetch lands
    swap.access(0, 8, False)              # touch clears the in-flight marker
    swap.access(1 * PAGE_SIZE, 8, False)
    swap.access(2 * PAGE_SIZE, 8, False)  # evicts page 0 (plain LRU)
    assert not swap.contains(0)
    assert swap.stats.prefetch_wasted == 0


def test_resize_below_page_size_raises():
    # regression (S4): resize must validate like __init__, not quietly
    # zero the capacity
    swap, _ = _swap()
    with pytest.raises(ConfigError):
        swap.resize(100)
    with pytest.raises(ConfigError):
        swap.resize(0)
    assert swap.capacity_pages == 4  # the failed resize changed nothing


def test_metadata_scales_with_resident_pages():
    swap, _ = _swap()
    assert swap.metadata_bytes() == 0
    swap.access(0, 8, False)
    assert swap.metadata_bytes() == 8
