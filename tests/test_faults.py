"""Fault-plan, injector, reliability-layer, and degradation tests."""

import random

import pytest

from repro.cache.config import SectionConfig
from repro.cache.manager import CacheManager
from repro.errors import ConfigError
from repro.faults import (
    CircuitBreaker,
    FarWindow,
    FaultInjector,
    FaultPlan,
    LinkWindow,
)
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.farnode import FarMemoryNode
from repro.memsim.network import Network
from repro.obs import MetricsRegistry


# -- plan validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss_prob": -0.1},
        {"loss_prob": 1.0},
        {"timeout_prob": 1.5},
        {"loss_prob": 0.6, "timeout_prob": 0.4},  # sum reaches 1
        {"timeout_ns": 0.0},
        {"max_retries": -1},
        {"backoff_base_ns": -1.0},
        {"backoff_factor": 0.5},
        {"breaker_threshold": 0},
        {"breaker_cooldown_ns": -1.0},
        {"link_windows": (LinkWindow(100.0, 100.0),)},
        {"link_windows": (LinkWindow(0.0, 100.0, bw_scale=0.5),)},
        {"far_windows": (FarWindow(0.0, 100.0, slowdown=0.9),)},
    ],
)
def test_plan_rejects_bad_config(kwargs):
    with pytest.raises(ConfigError):
        FaultPlan(**kwargs)


def test_plan_defaults_are_healthy():
    plan = FaultPlan()
    assert plan.fault_prob == 0.0
    assert plan.link_windows == ()


def test_backoff_grows_exponentially():
    plan = FaultPlan(backoff_base_ns=100.0, backoff_factor=2.0)
    assert plan.backoff_ns(1) == 100.0
    assert plan.backoff_ns(2) == 200.0
    assert plan.backoff_ns(3) == 400.0


def test_window_active_boundaries():
    w = LinkWindow(100.0, 200.0)
    assert not w.active(99.0)
    assert w.active(100.0)  # start inclusive
    assert w.active(199.9)
    assert not w.active(200.0)  # end exclusive


def test_generate_is_deterministic():
    a = FaultPlan.generate(7, intensity="medium")
    b = FaultPlan.generate(7, intensity="medium")
    assert a == b
    assert a != FaultPlan.generate(8, intensity="medium")
    assert len(a.link_windows) == 2 and len(a.far_windows) == 2


def test_generate_rejects_unknown_intensity():
    with pytest.raises(ConfigError):
        FaultPlan.generate(1, intensity="apocalyptic")


def test_with_overrides():
    plan = FaultPlan.generate(3, intensity="light")
    tweaked = plan.with_overrides(max_retries=9)
    assert tweaked.max_retries == 9
    assert tweaked.link_windows == plan.link_windows


# -- injector ----------------------------------------------------------------


def test_roll_is_deterministic_per_plan():
    plan = FaultPlan(seed=42, loss_prob=0.3, timeout_prob=0.2)
    inj1, inj2 = FaultInjector(plan), FaultInjector(plan)
    rolls1 = [inj1.roll() for _ in range(200)]
    rolls2 = [inj2.roll() for _ in range(200)]
    assert rolls1 == rolls2
    assert set(rolls1) == {None, "loss", "timeout"}


def test_roll_tallies_both_kinds():
    inj = FaultInjector(FaultPlan(seed=1, loss_prob=0.3, timeout_prob=0.3))
    rolls = [inj.roll() for _ in range(500)]
    assert inj.stats.losses == rolls.count("loss") > 0
    assert inj.stats.timeouts == rolls.count("timeout") > 0
    assert rolls.count(None) > 0


def test_zero_prob_plan_consumes_no_rng():
    # windows-only plans must not perturb the RNG stream: the first real
    # draw after many no-op rolls still matches a virgin generator
    inj = FaultInjector(FaultPlan(seed=9))
    for _ in range(50):
        assert inj.roll() is None
    assert inj.rng.random() == random.Random(9).random()


def test_link_and_far_scales_multiply():
    plan = FaultPlan(
        link_windows=(
            LinkWindow(0.0, 100.0, bw_scale=2.0, rtt_scale=3.0),
            LinkWindow(50.0, 150.0, bw_scale=4.0),
        ),
        far_windows=(FarWindow(0.0, 100.0, slowdown=5.0),),
    )
    inj = FaultInjector(plan)
    assert inj.link_scales(75.0) == (8.0, 3.0)  # both windows active
    assert inj.link_scales(125.0) == (4.0, 1.0)
    assert inj.link_scales(500.0) == (1.0, 1.0)
    assert inj.far_scale(50.0) == 5.0
    assert inj.far_scale(200.0) == 1.0


def test_stats_publish_to_registry():
    inj = FaultInjector(FaultPlan(seed=1, loss_prob=0.5))
    while inj.stats.losses == 0:
        inj.roll()
    reg = MetricsRegistry()
    inj.stats.publish(reg)
    assert reg.gauge("fault.losses").value == inj.stats.losses


# -- circuit breaker ---------------------------------------------------------


def test_breaker_trips_at_threshold():
    br = CircuitBreaker(threshold=3, cooldown_ns=1000.0)
    assert not br.record_failure(10.0)
    assert not br.record_failure(20.0)
    assert br.record_failure(30.0)  # third consecutive failure trips it
    assert br.trips == 1
    assert not br.allows(31.0)  # open: fail fast


def test_breaker_success_resets_streak():
    br = CircuitBreaker(threshold=2, cooldown_ns=1000.0)
    br.record_failure(1.0)
    br.record_success()
    assert not br.record_failure(2.0)  # streak restarted


def test_breaker_half_open_probe():
    br = CircuitBreaker(threshold=1, cooldown_ns=1000.0)
    assert br.record_failure(0.0)
    assert not br.allows(500.0)  # still cooling down
    assert br.allows(1000.0)  # half-open: one probe allowed
    br.record_success()
    assert br.allows(1001.0)  # probe succeeded: closed again


def test_breaker_half_open_failure_reopens():
    br = CircuitBreaker(threshold=5, cooldown_ns=1000.0)
    for _ in range(4):
        br.record_failure(0.0)
    br.record_failure(0.0)
    assert br.allows(1000.0)  # half-open
    assert br.record_failure(1000.0)  # one failure re-trips immediately
    assert br.trips == 2
    assert not br.allows(1500.0)


# -- network reliability layer -----------------------------------------------


def _faulty_network(plan):
    cost = CostModel()
    clock = VirtualClock()
    net = Network(cost, clock)
    net.install_faults(FaultInjector(plan))
    return net, clock, cost


def test_retries_charge_timeout_and_backoff():
    plan = FaultPlan(seed=5, loss_prob=0.6, timeout_prob=0.3, breaker_threshold=10_000)
    net, clock, cost = _faulty_network(plan)
    healthy = cost.one_sided_ns(4096)
    total = sum(net.read(4096) for _ in range(50))
    st = net.faults.stats
    assert st.retries > 0
    assert total > 50 * healthy  # the penalties are in the return values
    bd = clock.breakdown()
    assert bd["net_timeout"] == pytest.approx(st.timeout_wait_ns)
    assert bd["net_backoff"] == pytest.approx(st.backoff_ns)
    assert st.timeout_wait_ns >= (st.retries + st.giveups) * plan.timeout_ns


def test_exhausted_retries_give_up_but_complete():
    plan = FaultPlan(seed=3, loss_prob=0.8, max_retries=1, breaker_threshold=10_000)
    net, _, _ = _faulty_network(plan)
    before = net.stats.bytes_read
    for _ in range(50):
        net.read(4096)
    assert net.faults.stats.giveups > 0
    # completion is forced: every op still moved its bytes
    assert net.stats.bytes_read == before + 50 * 4096


def test_breaker_trip_reports_upward_and_fails_fast():
    plan = FaultPlan(
        seed=2,
        loss_prob=0.9,
        breaker_threshold=2,
        breaker_cooldown_ns=1e15,  # never cools down within the test
    )
    net, _, _ = _faulty_network(plan)
    seen = []
    net.on_persistent_failure = seen.append
    for _ in range(30):
        net.read(4096)
    st = net.faults.stats
    assert st.breaker_trips >= 1
    assert seen and seen[0] == "read"
    assert st.fast_fails > 0  # ops short-circuited while open


def test_link_window_scales_sync_latency():
    plan = FaultPlan(link_windows=(LinkWindow(0.0, 1e9, bw_scale=2.0, rtt_scale=2.0),))
    net, clock, cost = _faulty_network(plan)
    ns = net.read(4096)
    assert ns == pytest.approx(2.0 * cost.one_sided_ns(4096))
    assert clock.now == pytest.approx(ns)


def test_async_fault_lands_on_completion_time():
    plan = FaultPlan(seed=1, loss_prob=0.9, breaker_threshold=10_000)
    net, clock, cost = _faulty_network(plan)
    penalty = plan.timeout_ns + plan.backoff_ns(1)
    ready = net.post(4096)
    # seed 1's first roll faults: the issuing thread is not stalled, the
    # penalty lands on the completion time instead
    assert net.faults.stats.retries == 1
    assert ready == pytest.approx(cost.one_sided_ns(4096) + penalty)
    assert clock.now == pytest.approx(cost.cpu_op_ns)


def test_far_window_slows_offload_compute():
    cost = CostModel()
    node = FarMemoryNode(cost)
    clock = VirtualClock()
    base = node.compute_ns(100.0)
    node.faults = FaultInjector(
        FaultPlan(far_windows=(FarWindow(0.0, 1e9, slowdown=4.0),))
    )
    node.clock = clock
    assert node.compute_ns(100.0) == pytest.approx(4.0 * base)


# -- graceful degradation ----------------------------------------------------


def _manager_with_section(one_sided=False):
    cost = CostModel()
    mgr = CacheManager(cost, local_mem_bytes=1 << 20)
    mgr.enable_faults(FaultPlan(seed=1, loss_prob=0.5, breaker_threshold=2))
    obj = mgr.allocate(64 * 1024, name="a")
    cfg = SectionConfig(
        name="sec",
        size_bytes=32 * 1024,
        line_size=256,
        one_sided=one_sided,
        fetch_bytes=64,
    )
    mgr.open_section(cfg, [obj.obj_id])
    return mgr, obj


def test_degradation_is_deferred_to_next_access():
    mgr, obj = _manager_with_section()
    sec = mgr.sections()["sec"]
    mgr._note_persistent_failure("read")
    assert not sec._one_sided  # nothing happens mid network op
    mgr.access(obj.obj_id, 0, 8, False)
    assert sec._one_sided  # applied at the top of the next access


def test_degradation_demotes_comm_before_remapping():
    mgr, obj = _manager_with_section()
    sec = mgr.sections()["sec"]
    mgr._note_persistent_failure("read")
    mgr.access(obj.obj_id, 0, 8, False)
    # step 1: two-sided -> one-sided, whole line travels from now on
    assert sec._one_sided
    assert sec._transfer_bytes == sec._line_size
    assert mgr.degrade_log == [{"action": "demote_comm", "sec": "sec"}]
    mgr._note_persistent_failure("read")
    mgr.access(obj.obj_id, 0, 8, False)
    # step 2: the section is shed entirely; its objects fall back to swap
    assert "sec" not in mgr.sections()
    assert mgr.section_of(obj.obj_id) is None
    assert mgr.degrade_log[-1] == {"action": "remap_swap", "sec": "sec"}
    assert mgr.network.faults.stats.degrades == 2
    # the run keeps going on the swap path
    mgr.access(obj.obj_id, 0, 8, False)


def test_batched_prefetch_moves_the_sections_runtime_transfer_size():
    """``demote_comm`` changes only the section's run-time transfer size
    (the shared config stays as planned): a batched prefetch after it
    books whole lines like every other fill -- a one-sided read cannot do
    selective transmission -- not the config's 8 selective bytes."""
    mgr = CacheManager(CostModel(), local_mem_bytes=1 << 20)
    mgr.enable_faults(FaultPlan(seed=1))
    obj = mgr.allocate(64 * 1024, name="a")
    mgr.open_section(
        SectionConfig(
            name="sec", size_bytes=4096, line_size=64, one_sided=False, fetch_bytes=8
        ),
        [obj.obj_id],
    )
    sec = mgr.sections()["sec"]
    stats = mgr.network.stats

    def bytes_for_two_fills(offset):
        before = stats.bytes_read, sec.stats.prefetches_issued
        mgr.prefetch_batch([(obj.obj_id, offset, 64), (obj.obj_id, offset + 64, 64)])
        assert sec.stats.prefetches_issued == before[1] + 2
        return stats.bytes_read - before[0]

    assert bytes_for_two_fills(0) == 2 * sec._transfer_bytes == 16
    mgr._note_persistent_failure("read")
    mgr.access(obj.obj_id, 0, 8, False)  # the demotion lands here
    assert sec._one_sided and sec.config.transfer_bytes == 8
    assert bytes_for_two_fills(1024) == 2 * sec._transfer_bytes == 128
    before = stats.bytes_read
    mgr.prefetch(obj.obj_id, 2048, 8)
    assert stats.bytes_read - before == sec._transfer_bytes == 64


def test_degradation_victim_tie_break_is_name_order():
    """Two sections with identical miss counts: the remap victim is the
    lexicographically-first name, pinned so the degradation order is
    deterministic (and documented) when scores tie."""
    cost = CostModel()
    mgr = CacheManager(cost, local_mem_bytes=1 << 20)
    mgr.enable_faults(FaultPlan(seed=1, loss_prob=0.5, breaker_threshold=2))
    objs = {}
    for name in ("sb", "sa"):  # open out of name order on purpose
        obj = mgr.allocate(64 * 1024, name=f"obj_{name}")
        cfg = SectionConfig(
            name=name,
            size_bytes=32 * 1024,
            line_size=256,
            one_sided=True,  # demotion step already done: remap is next
            fetch_bytes=64,
        )
        mgr.open_section(cfg, [obj.obj_id])
        objs[name] = obj
    # one miss each: identical scores
    mgr.access(objs["sa"].obj_id, 0, 8, False)
    mgr.access(objs["sb"].obj_id, 0, 8, False)
    assert (
        mgr.sections()["sa"].stats.misses == mgr.sections()["sb"].stats.misses
    )
    mgr._note_persistent_failure("read")
    mgr.access(objs["sb"].obj_id, 0, 8, False)
    mgr._note_persistent_failure("read")
    mgr.access(objs["sb"].obj_id, 0, 8, False)
    assert mgr.degrade_log == [
        {"action": "remap_swap", "sec": "sa"},
        {"action": "remap_swap", "sec": "sb"},
    ]


def test_degradation_purges_pending_assignments():
    mgr, obj = _manager_with_section(one_sided=True)  # demotion already done
    mgr.pending_assignment["future_alloc"] = "sec"
    mgr._note_persistent_failure("read")
    mgr.access(obj.obj_id, 0, 8, False)
    assert "future_alloc" not in mgr.pending_assignment


def test_degradation_with_no_sections_is_a_noop():
    cost = CostModel()
    mgr = CacheManager(cost, local_mem_bytes=1 << 20)
    mgr.enable_faults(FaultPlan(seed=1, loss_prob=0.5))
    obj = mgr.allocate(4096, name="a")
    mgr._note_persistent_failure("read")
    mgr.access(obj.obj_id, 0, 8, False)  # must not raise
    assert mgr.degrade_log == []


def test_enable_faults_none_disables():
    mgr, _ = _manager_with_section()
    mgr.enable_faults(None)
    assert mgr.network.faults is None
    assert mgr.network.breaker is None
    assert mgr.network.on_persistent_failure is None
    assert mgr.far_node.faults is None
