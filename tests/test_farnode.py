"""Far-memory node / allocator tests."""

import pytest

from repro.errors import AllocationError
from repro.memsim.cost_model import CostModel
from repro.memsim.farnode import REMOTE_ALLOC_CHUNK, FarMemoryNode, RemoteAllocator
from repro.memsim.resources import SerialResource
from repro.memsim.clock import VirtualClock


def test_remote_allocator_bump():
    ra = RemoteAllocator(capacity=1000)
    a = ra.allocate(100)
    b = ra.allocate(100)
    assert b == a + 100
    assert ra.used == 200


def test_remote_allocator_exhaustion():
    ra = RemoteAllocator(capacity=100)
    ra.allocate(100)
    with pytest.raises(AllocationError):
        ra.allocate(1)


def test_local_allocator_buffers_round_trips(cost):
    node = FarMemoryNode(cost)
    for _ in range(100):
        node.allocate(1024)
    # 100 small allocations are carved from one remote chunk
    assert node.local_allocator.round_trips == 1


def test_local_allocator_large_allocation(cost):
    node = FarMemoryNode(cost)
    addr = node.allocate(2 * REMOTE_ALLOC_CHUNK)
    assert addr > 0
    assert node.used_bytes >= 2 * REMOTE_ALLOC_CHUNK


def test_far_compute_slowdown(cost):
    node = FarMemoryNode(cost)
    assert node.compute_ns(100.0) == pytest.approx(100.0 * cost.far_cpu_slowdown)


def test_serial_resource_serializes():
    lock = SerialResource()
    c1 = VirtualClock()
    c2 = VirtualClock()
    lock.acquire(c1, 100.0)
    lock.acquire(c2, 100.0)  # c2 starts at 0 but must wait until 100
    assert c2.now == pytest.approx(200.0)
    assert lock.contended_ns == pytest.approx(100.0)
    assert lock.acquisitions == 2


def test_serial_resource_no_contention_when_spaced():
    lock = SerialResource()
    c = VirtualClock()
    lock.acquire(c, 50.0)
    c.advance(1000.0)
    lock.acquire(c, 50.0)
    assert lock.contended_ns == 0.0


def test_serial_resource_under_contention_queues_behind_the_other_threads():
    """Inside a parallel region of T threads each acquisition waits out
    T-1 other holders, then holds the lock -- a steady-state queue that
    leaves the shared busy timeline alone."""
    lock = SerialResource()
    lock.contention = 3
    c = VirtualClock()
    c.advance(10.0)
    for _ in range(2):
        lock.acquire(c, 100.0)
    # the wait is charged first, then the hold
    assert list(c.breakdown().items()) == [
        ("other", 10.0), ("lock_wait", 400.0), ("lock_hold", 200.0)
    ]
    assert c.now == 610.0
    assert lock.contended_ns == 400.0
    assert lock.acquisitions == 2
    assert lock.free_at == 0.0
