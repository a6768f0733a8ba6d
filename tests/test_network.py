"""Network simulator tests."""

import pytest

from repro.errors import MemoryError_
from repro.faults import FarWindow, FaultInjector, FaultPlan, LinkWindow
from repro.faults.inject import FaultStats
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.network import Network, TransferKind

#: no link constant of this model is on the time grid before it is snapped
ODD = CostModel(
    cpu_op_ns=1.5001,
    net_rtt_ns=2999.9,
    net_bandwidth_bpns=6.1,
    two_sided_copy_bpns=11.3,
    far_cpu_slowdown=3.3,
)


def test_sync_read_advances_clock(network, clock, cost):
    ns = network.read(4096)
    assert ns == pytest.approx(cost.one_sided_ns(4096))
    assert clock.now == pytest.approx(ns)


def test_two_sided_read_costs_more(cost, clock):
    net = Network(cost, clock)
    one = net.read(1024, one_sided=True)
    two = net.read(1024, one_sided=False)
    assert two > one


def test_stats_accumulate(network):
    network.read(100)
    network.post(50, write=True)
    assert network.stats.bytes_read == 100
    assert network.stats.bytes_written == 50
    assert network.stats.messages == 2
    assert network.stats.total_bytes == 150
    assert network.stats.by_kind[TransferKind.ONE_SIDED_READ] == 100


def test_async_read_returns_future_time(network, clock, cost):
    ready = network.post(4096)
    # only the issue cost is charged now
    assert clock.now == pytest.approx(cost.cpu_op_ns)
    assert ready >= cost.one_sided_ns(4096)


def test_async_reads_share_link_bandwidth(network, cost):
    r1 = network.post(1 << 20)
    r2 = network.post(1 << 20)
    # the second transfer queues behind the first on the wire
    assert r2 >= r1 + cost.transfer_ns(1 << 20) * 0.99


def test_async_write_counts_as_written(network):
    network.post(256, write=True)
    assert network.stats.bytes_written == 256


def test_rpc_charges_round_trip(network, clock, cost):
    ns = network.rpc(128, 64)
    assert ns >= cost.rpc_ns
    assert clock.now == pytest.approx(ns)
    assert network.stats.by_kind[TransferKind.RPC] == 192


def test_rpc_splits_direction_counters(network):
    # regression (S2): the request travels out, the response travels back
    network.rpc(128, 64)
    assert network.stats.bytes_written == 128
    assert network.stats.bytes_read == 64
    assert network.stats.messages == 1


def test_sync_read_waits_for_booked_link(network, clock, cost):
    # regression (S1): a sync op must queue behind wire time booked by an
    # earlier async transfer, not teleport past it
    network.post(1 << 20)
    stall = network.read(4096)
    expected_end = cost.transfer_ns(1 << 20) + cost.one_sided_ns(4096)
    assert clock.now == pytest.approx(expected_end)
    # the return value includes the queue wait, not just the transfer
    assert stall == pytest.approx(expected_end - cost.cpu_op_ns)
    assert clock.breakdown().get("net_wait", 0.0) > 0.0


def test_sync_write_waits_for_booked_link(network, clock, cost):
    # a write-back books the same wire a sync read then queues behind
    network.post(1 << 20, write=True)
    network.read(4096)
    assert clock.now == pytest.approx(
        cost.transfer_ns(1 << 20) + cost.one_sided_ns(4096)
    )


def test_sync_op_on_idle_link_pays_no_wait(network, clock, cost):
    # the drained link resets: a later sync op on an idle wire is unchanged
    network.post(1 << 20)
    network.read(4096)
    t = clock.now
    ns = network.read(4096)
    assert ns == pytest.approx(cost.one_sided_ns(4096))
    assert clock.now == pytest.approx(t + ns)


def test_by_kind_is_a_plain_dict_of_ints_after_mixed_traffic(network):
    """``by_kind`` is bumped in place on the transfer path: it must stay a
    plain dict of ints, keyed from the start in ``TransferKind`` order
    (a kind with no traffic holds 0)."""
    network.read(100)
    network.read(7, one_sided=False)
    network.post(30)
    network.post(5, one_sided=False)
    network.post(11, write=True)
    network.post(2, one_sided=False, write=True)
    network.post(50, write=True)
    network.read(1)
    by_kind = network.stats.by_kind
    assert type(by_kind) is dict
    assert by_kind == {
        TransferKind.ONE_SIDED_READ: 131,
        TransferKind.ONE_SIDED_WRITE: 61,
        TransferKind.TWO_SIDED: 14,
        TransferKind.RPC: 0,
    }
    assert all(type(v) is int for v in by_kind.values())
    assert list(by_kind) == list(TransferKind)
    assert network.stats.messages == 8
    assert sum(by_kind.values()) == network.stats.total_bytes


@pytest.mark.parametrize("one_sided", [True, False])
@pytest.mark.parametrize("contention", [1, 3])
def test_inlined_latency_and_booking_match_their_definitions(
    cost, one_sided, contention
):
    """Both verbs index one per-size table; what they charge and book is
    what :class:`CostModel` defines (``one_sided_ns``/``two_sided_ns``,
    the wire time ``contention`` times on a shared link) -- exactly, on an
    idle link, behind a booked one, and after the clock has passed the
    booking.  ``read(nbytes, n=k)`` on an idle link is ``k`` single reads
    to the bit, and returns their summed stall."""
    net = Network(cost, VirtualClock())
    net.contention = contention
    latency = cost.one_sided_ns if one_sided else cost.two_sided_ns

    def stall(nbytes):
        return latency(nbytes) + (contention - 1) * cost.transfer_ns(nbytes)

    free_at = 0.0
    for step, nbytes in enumerate([4096, 256, 1 << 16, 8, 4096, 64]):
        start = max(free_at, net.clock.now)
        assert net.post(nbytes, one_sided, step % 2 == 1) == start + stall(nbytes)
        free_at = start + contention * cost.transfer_ns(nbytes)
        assert net._link_free_at == free_at
        if step == 3:  # let the link drain before the next booking
            net.clock.advance(1e6, "compute")
    assert net.clock.now == 1e6 + 6 * cost.cpu_op_ns
    net._link_free_at = 0.0
    assert net.read(777, one_sided) == stall(777)
    assert set(net._sizes) == {4096, 256, 1 << 16, 8, 64, 777}

    k = 5
    singles, run = Network(cost, VirtualClock()), Network(cost, VirtualClock())
    singles.contention = run.contention = contention
    returned = {singles.read(777, one_sided) for _ in range(k)}
    assert returned == {stall(777)}
    assert run.read(777, one_sided, n=k) == k * stall(777)
    assert run.clock.now == singles.clock.now == k * stall(777)
    assert run.clock.breakdown() == singles.clock.breakdown()
    assert vars(run.stats) == vars(singles.stats)


@pytest.mark.parametrize("cost", [CostModel(), ODD], ids=["default", "odd"])
@pytest.mark.parametrize("one_sided", [True, False])
@pytest.mark.parametrize("contention", [1, 2])
@pytest.mark.parametrize("gap", [0.0, 3500.0])
def test_run_behind_write_backs_is_the_pairs_it_books(cost, one_sided, contention, gap):
    """``read(nbytes, n, behind=d, gap=g)`` on an idle link is, to the bit,
    ``n`` sync reads of which ``d`` each follow ``post(write=True)`` and
    ``g`` ns of clock (what a fold of misses with dirty victims books):
    the clock, its breakdown in order, the traffic, the summed stall, and
    an idle link after."""
    pairs, run = Network(cost, VirtualClock()), Network(cost, VirtualClock())
    pairs.contention = run.contention = contention
    for net in (pairs, run):  # a write-back and the read queued behind it
        net.post(64, one_sided, write=True)
        net.read(64, one_sided)
    stalls = []
    for i in range(7):
        if i % 3:  # reads 1, 2, 4, 5 queue behind a write-back
            pairs.post(64, one_sided, write=True)
            if gap:
                pairs.clock.advance(gap, "page_fault")
        stalls.append(pairs.read(64, one_sided))
    if gap:
        run.clock.advance(4 * gap, "page_fault")
    assert run.read(64, one_sided, 7, behind=4, gap=gap) == sum(stalls)
    assert run.clock.now == pairs.clock.now
    assert list(run.clock.breakdown().items()) == list(pairs.clock.breakdown().items())
    assert vars(run.stats) == vars(pairs.stats)
    assert list(run.stats.by_kind) == list(pairs.stats.by_kind)
    assert run._link_free_at == pairs._link_free_at == 0.0
    # the set-up pair queued; behind a long gap the wire is free again
    waits = run.clock.category("net_wait") - run.behind_wait(64)
    assert waits == 4 * run.behind_wait(64, gap)
    assert (waits > 0) is (gap == 0.0)


def test_run_of_reads_is_refused_on_a_faulted_link(network):
    network.install_faults(FaultInjector(FaultPlan(seed=1)))
    before = vars(network.stats).copy()
    for kwargs in ({"n": 2}, {"behind": 1}):
        with pytest.raises(MemoryError_):
            network.read(4096, True, **kwargs)
    assert vars(network.stats) == before and network.clock.now == 0.0


def _mixed_traffic(net: Network) -> list[float]:
    """Posts both ways, one- and two-sided, at contention 1 and 3, each
    pair followed by a sync read behind the booking and one on the drained
    link; returns every value a verb returned and the link after each
    group."""
    seen = []
    for contention in (1, 3):
        net.contention = contention
        for one_sided in (True, False):
            seen.append(net.post(4096, one_sided))
            seen.append(net.post(256, one_sided, write=True))
            seen.append(net._link_free_at)
            seen.append(net.read(777, one_sided))
            seen.append(net.read(64, one_sided))
            seen.append(net._link_free_at)
    net.contention = 1
    return seen


@pytest.mark.parametrize("cost", [CostModel(), ODD], ids=["default", "odd"])
def test_unit_scale_fault_plan_is_the_healthy_link(cost):
    """A plan that never faults and scales everything by 1.0 prices each
    transfer through the faulted branch (rolls, the reliability loop,
    ``_scaled``) and must leave everything where the healthy ``_sizes``
    branch does, bit for bit: the two branches are one formula because
    every term is on the time grid, where sums are exact in any order."""
    forever = 1e18
    plan = FaultPlan(
        link_windows=(LinkWindow(0.0, forever, bw_scale=1.0, rtt_scale=1.0),),
        far_windows=(FarWindow(0.0, forever, slowdown=1.0),),
    )
    healthy, faulted = Network(cost, VirtualClock()), Network(cost, VirtualClock())
    faulted.install_faults(FaultInjector(plan))
    assert [x.hex() for x in _mixed_traffic(faulted)] == [
        x.hex() for x in _mixed_traffic(healthy)
    ]
    assert faulted.clock.now.hex() == healthy.clock.now.hex()
    assert faulted.clock.breakdown() == healthy.clock.breakdown()
    assert vars(faulted.stats) == vars(healthy.stats)
    assert faulted.faults.stats == FaultStats()  # nothing was injected
