"""Prefetch-policy tests: the strategy interface, the four built-in
policies, the waste-accounting fixes, and per-policy golden digests.

The golden digests pin each policy's full behavior (plan ordering, the
``prefetch.plan``/``prefetch.feedback`` event payloads, issuance under
the capacity guard) on the Leap chassis; any intentional behavior change
must re-pin them, same workflow as ``tests/test_golden_traces.py``.
"""

from __future__ import annotations

import pytest

from repro.baselines import FastSwap
from repro.baselines.leap import Leap
from repro.bench.harness import ModuleMemo
from repro.cache.config import SectionConfig
from repro.cache.manager import CacheManager
from repro.cache.section import make_section
from repro.cache.stats import SectionStats
from repro.core import run_on_baseline
from repro.ir.builder import IRBuilder
from repro.ir.types import FloatType
from repro.ir.verifier import verify
from repro.memsim.address import PAGE_SIZE
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.network import Network
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry, collect_run_metrics
from repro.prefetch import POLICY_NAMES, PrefetchPolicy, make_policy, policy_from_env
from repro.prefetch.majority import (
    MIN_PREFETCH,
    MajorityPolicy,
    MajorityTrendPrefetcher,
)
from repro.prefetch.programmed import ProgrammedPolicy, lower_prefetch_program
from repro.workloads import make_workload

COST = CostModel()
F64 = FloatType(64)


# -- factory ------------------------------------------------------------------


def test_make_policy_names():
    assert make_policy(None) is not None  # default is the Leap policy
    assert make_policy("none") is None
    assert make_policy("off") is None
    assert make_policy("") is None
    for name in ("leap", "markov", "programmed", "learned"):
        p = make_policy(name)
        assert isinstance(p, PrefetchPolicy)
        assert p.name == name
    assert isinstance(make_policy("majority"), MajorityPolicy)
    assert isinstance(make_policy("  Markov "), PrefetchPolicy)  # normalized
    with pytest.raises(ValueError, match="unknown prefetch policy"):
        make_policy("oracle")
    assert set(POLICY_NAMES) == {"leap", "markov", "programmed", "learned", "none"}


def test_policy_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)
    assert isinstance(policy_from_env(), MajorityPolicy)
    monkeypatch.setenv("REPRO_PREFETCH", "markov")
    assert policy_from_env().name == "markov"
    monkeypatch.setenv("REPRO_PREFETCH", "none")
    assert policy_from_env() is None


def test_leap_policy_is_untraced_for_golden_compat():
    assert MajorityPolicy.traced is False
    for name in ("markov", "programmed", "learned"):
        assert make_policy(name).traced is True


# -- majority-trend edge cases ------------------------------------------------


def test_majority_window_shrinks_to_floor():
    """Useless prefetches halve the window each adapt step until it pins
    at MIN_PREFETCH, never below."""
    pf = MajorityTrendPrefetcher()
    # establish a clean +1 majority and grow the window: record the pages
    # each plan proposes so every issued prefetch counts as useful
    page = 0
    for _ in range(24):
        pf.record(page)
        for p in pf.plan(page):
            pf.record(p)
            page = p
        page += 1
    assert pf._window > MIN_PREFETCH
    # now keep planning from fresh regions and never touch the proposals:
    # every adapt sees useful*2 < issued and halves the window
    base = 1_000_000
    for i in range(12):
        region = base + i * 10_000
        for j in range(4):  # keep the +1 majority alive
            pf.record(region + j)
        assert pf.plan(region + 3), "majority stride lost"
    assert pf._window == MIN_PREFETCH
    pf.plan(base)  # one more adapt at the floor
    assert pf._window == MIN_PREFETCH


def test_majority_diluted_by_random_interleave():
    """Alternating a sequential stream with far random pages leaves the
    +1 delta at exactly half of every window: no majority, no plan."""
    import random

    rng = random.Random(7)
    pf = MajorityTrendPrefetcher()
    page = 0
    for _ in range(40):
        pf.record(page)
        pf.record(page + 1)  # one +1 delta ...
        for _ in range(2):  # ... then two random deltas: 1/3 < majority
            page = rng.randrange(10_000, 1 << 30)
            pf.record(page)
    assert pf.majority_stride() is None
    assert pf.plan(page) == []


def test_majority_stride_flip():
    """When the stream direction flips, the detector follows: the small
    Boyer-Moore window sees the new majority first."""
    pf = MajorityTrendPrefetcher()
    for p in range(0, 40):
        pf.record(p)
    plan_fwd = pf.plan(39)
    assert plan_fwd and plan_fwd[0] == 40
    assert all(b - a == 1 for a, b in zip(plan_fwd, plan_fwd[1:]))
    for p in range(1000, 960, -1):
        pf.record(p)
    assert pf.majority_stride() == -1
    plan_back = pf.plan(961)
    assert plan_back and plan_back[0] == 960
    assert all(a - b == 1 for a, b in zip(plan_back, plan_back[1:]))


# -- markov / learned behavior ------------------------------------------------


def test_markov_learns_transitions():
    p = make_policy("markov")
    for _ in range(3):
        p.record(5)
        p.record(9)
        p.record(3)
    assert p.plan(5)[0] == 9
    assert p.plan(9)[0] == 3
    assert p.plan(777) == []  # never seen


def test_learned_learns_stride():
    p = make_policy("learned")
    for page in range(0, 60, 2):
        p.record(page)
    plan = p.plan(58)
    assert plan[:3] == [60, 62, 64]


@pytest.mark.parametrize("name", ("leap", "markov", "learned"))
def test_policies_deterministic(name):
    """Two instances fed the same stream emit identical plan sequences."""
    import random

    rng = random.Random(11)
    stream = [rng.randrange(0, 64) for _ in range(300)]
    a, b = make_policy(name), make_policy(name)
    plans_a, plans_b = [], []
    for i, page in enumerate(stream):
        a.record(page)
        b.record(page)
        if i % 7 == 0:
            plans_a.append(a.plan(page))
            plans_b.append(b.plan(page))
    assert plans_a == plans_b


def test_snapshot_math():
    p = PrefetchPolicy()
    p.plans, p.planned, p.issued = 2, 6, 4
    p.feedback(1, True, timely=True)
    p.feedback(2, True, timely=False)
    p.feedback(3, False)
    snap = p.snapshot()
    assert snap["useful_timely"] == 1 and snap["useful_late"] == 1
    assert snap["wasted"] == 1
    assert snap["accuracy"] == pytest.approx(2 / 4)
    assert snap["coverage"] == pytest.approx(2 / 3)  # used / (timely + plans)
    assert snap["timeliness"] == pytest.approx(1 / 2)
    assert snap["waste_ratio"] == pytest.approx(1 / 4)


# -- programmed lowering ------------------------------------------------------


def _scan_module(n=1024, reverse=False):
    b = IRBuilder()
    with b.func("main", result_types=[F64]):
        arr = b.ralloc(F64, n, "arr")
        total = b.f64(0.0)
        with b.for_(0, n, iter_args=[total]) as loop:
            idx = b.sub(n - 1, loop.iv) if reverse else loop.iv
            x = b.load(arr, idx)
            b.yield_([b.add(loop.args[0], x)])
        b.ret([loop.results[0]])
    verify(b.module)
    return b.module


def test_lowering_forward_scan():
    program = lower_prefetch_program(_scan_module(1024))
    # 1024 f64 = 8192 B = pages 0..1, ascending
    assert program["segments"] == [
        {"site": "arr", "start": 0, "stop": 1, "step": 1}
    ]


def test_lowering_reverse_scan():
    program = lower_prefetch_program(_scan_module(1024, reverse=True))
    assert program["segments"] == [
        {"site": "arr", "start": 1, "stop": 0, "step": -1}
    ]


def test_lowering_skips_non_literal_bounds():
    b = IRBuilder()
    with b.func("main", result_types=[F64]):
        arr = b.ralloc(F64, 256, "arr")
        with b.for_(0, 8) as outer:
            # inner trip count depends on the outer iv: not literal
            with b.for_(0, outer.iv) as inner:
                b.load(arr, inner.iv)
        b.ret([b.f64(0.0)])
    verify(b.module)
    assert lower_prefetch_program(b.module)["segments"] == []


def test_lowering_missing_entry():
    b = IRBuilder()
    with b.func("helper", result_types=[F64]):
        b.ret([b.f64(0.0)])
    assert lower_prefetch_program(b.module, entry="main")["segments"] == []


def test_programmed_policy_streams_pages():
    policy = ProgrammedPolicy()
    policy.load_program(
        {"entry": "main", "segments": [{"site": "arr", "start": 0, "stop": 9, "step": 1}]}
    )
    fs = FastSwap(COST, 64 * PAGE_SIZE)
    policy.bind(fs)
    obj = fs.allocate(10 * PAGE_SIZE, name="arr")
    base = obj.base_va // PAGE_SIZE
    policy.record(base)
    plan = policy.plan(base)
    assert plan[:4] == [base + 1, base + 2, base + 3, base + 4]
    # pages of unknown objects stay silent
    other = fs.allocate(PAGE_SIZE, name="unrelated")
    assert policy.plan(other.base_va // PAGE_SIZE) == []


def test_programmed_end_to_end_coverage():
    """On a sequential workload the programmed policy prefetches nearly
    every future page exactly (the 3PO claim, scored by its counters)."""
    wl = make_workload("array_sum", num_elems=4096)
    memo = ModuleMemo(wl)
    local = max(4096, int(memo.footprint_bytes * 0.5))
    system = Leap(COST, local, policy="programmed")
    result = run_on_baseline(memo.module, system, wl.data_init, entry=wl.entry)
    wl.verify_results(result.results)
    snap = system.policy.snapshot()
    assert snap["issued"] > 0
    assert snap["accuracy"] == pytest.approx(1.0)
    assert snap["coverage"] > 0.5


# -- waste accounting (in-flight discards) ------------------------------------


def test_drop_object_counts_inflight_prefetch_waste():
    fs = FastSwap(COST, 8 * PAGE_SIZE, policy="markov")
    obj = fs.allocate(4 * PAGE_SIZE, name="x")
    page = obj.base_va // PAGE_SIZE
    fs.swap.prefetch(page, obj.obj_id)
    assert fs.swap._pages[page].ready_at > fs.clock.now  # still in flight
    before = fs.policy.wasted
    fs.swap.drop(obj, 0, obj.size)
    assert fs.swap.stats.prefetch_wasted == 1
    assert fs.policy.wasted == before + 1


def test_section_close_counts_inflight_prefetch_waste():
    cost = CostModel()
    clock = VirtualClock()
    sec = make_section(
        SectionConfig("t", 8 * 64, 64), cost, clock, Network(cost, clock)
    )
    sec.prefetch_range(1, 0, 0)
    sec.close()
    assert sec.stats.prefetch_wasted == 1
    # a settled prefetch is not waste
    sec2 = make_section(
        SectionConfig("t", 8 * 64, 64), cost, clock, Network(cost, clock)
    )
    sec2.prefetch_range(1, 0, 0)
    clock.advance(1e9, "compute")
    sec2.close()
    assert sec2.stats.prefetch_wasted == 0


def test_section_drop_counts_inflight_prefetch_waste():
    """A discard or a free drops the object's lines; one whose prefetch is
    still in flight was wasted, as ``close`` and an eviction count it."""
    for verb in ("discard", "free"):
        mgr = CacheManager(COST, 1 << 20)
        obj = mgr.allocate(8 * 64, name="x")
        sec = mgr.open_section(SectionConfig("t", 8 * 64, 64), [obj.obj_id])
        mgr.prefetch(obj.obj_id, 0, 2 * 64)  # two lines in flight
        getattr(mgr, verb)(obj.obj_id)
        assert sec.resident_count() == 0
        assert sec.stats.prefetch_wasted == 2, verb
    # a settled prefetch is not waste
    mgr = CacheManager(COST, 1 << 20)
    obj = mgr.allocate(8 * 64, name="x")
    sec = mgr.open_section(SectionConfig("t", 8 * 64, 64), [obj.obj_id])
    mgr.prefetch(obj.obj_id, 0, 64)
    mgr.clock.advance(1e9, "compute")
    mgr.discard(obj.obj_id)
    assert sec.stats.prefetch_wasted == 0


# -- a plan that spans objects ------------------------------------------------


def _interleave(system, a, b, rounds: int = 1) -> None:
    """Page ``i`` of ``a``, then page ``i`` of ``b``, for every page: a
    Markov plan from a fault in ``a`` then runs into ``b``."""
    for _ in range(rounds):
        for i in range(a.size // PAGE_SIZE):
            system.access(a.obj_id, i * PAGE_SIZE, 8, True)
            system.access(b.obj_id, i * PAGE_SIZE, 8, False)


def _pages_of(system, obj) -> list[int]:
    lo, hi = obj.base_va // PAGE_SIZE, (obj.end_va - 1) // PAGE_SIZE
    return [page for page in system.swap._pages if lo <= page <= hi]


def _owned_by_label(system) -> None:
    """Every resident swap page lies in the live object its label names."""
    for page, entry in system.swap._pages.items():
        obj = system.address_space.get(entry.obj_id)
        assert not obj.freed, (page, entry)
        assert obj.base_va <= page * PAGE_SIZE < obj.end_va, (page, entry)


def test_plan_across_objects_labels_each_page_with_its_owner():
    """A Markov plan from a fault in ``a`` fetches pages of ``b``: each
    enters the pool under ``b``'s id, so freeing ``b`` unmaps all of its
    pages and none of ``a``'s."""
    system = FastSwap(COST, 32 * PAGE_SIZE, policy="markov")
    a = system.allocate(8 * PAGE_SIZE, name="a")
    b = system.allocate(8 * PAGE_SIZE, name="b")
    _interleave(system, a, b)  # learns a0 -> b0 -> a1 -> b1 ...
    system.discard(a.obj_id)
    system.discard(b.obj_id)
    assert not system.swap._pages
    system.access(a.obj_id, 0, 8, False)  # a fault: its plan runs into b
    assert _pages_of(system, b)
    kept = _pages_of(system, a)
    system.free(b.obj_id)
    assert not _pages_of(system, b)
    assert _pages_of(system, a) == kept
    _owned_by_label(system)


def test_plan_fetches_no_page_of_an_object_a_section_holds():
    """The swap pool holds the pages of swap-path objects only: once a
    section holds ``b``, a plan learnt while it was on the swap path
    fetches none of its pages."""
    system = CacheManager(COST, 16 * PAGE_SIZE, policy="markov")
    a = system.allocate(8 * PAGE_SIZE, name="a")
    b = system.allocate(8 * PAGE_SIZE, name="b")
    _interleave(system, a, b)
    system.open_section(SectionConfig("s", 12 * PAGE_SIZE, 64), [b.obj_id])
    issued = system.policy.issued
    for i in range(8):
        system.access(a.obj_id, i * PAGE_SIZE, 8, False)
        assert not _pages_of(system, b)
        _owned_by_label(system)
    assert system.policy.issued > issued


def test_waste_ratio_property_and_publish():
    s = SectionStats()
    assert s.prefetch_waste_ratio == 0.0
    s.prefetches_issued, s.prefetch_wasted = 4, 1
    assert s.prefetch_waste_ratio == pytest.approx(0.25)
    reg = MetricsRegistry()
    s.publish(reg, "cache.swap")
    assert reg.gauge("cache.swap.prefetch_waste_ratio").value == pytest.approx(0.25)


# -- metrics + trace integration ----------------------------------------------


def _leap_run(policy, tracer=None):
    wl = make_workload("array_sum", num_elems=2048)
    memo = ModuleMemo(wl)
    local = max(4096, int(memo.footprint_bytes * 0.5))
    system = Leap(COST, local, policy=policy)
    result = run_on_baseline(
        memo.module, system, wl.data_init, entry=wl.entry, tracer=tracer
    )
    wl.verify_results(result.results)
    return result, system


def test_run_metrics_publish_policy_gauges():
    result, system = _leap_run("markov")
    gauges = collect_run_metrics(result).snapshot()["gauges"]
    assert "prefetch.markov.accuracy" in gauges
    assert "prefetch.markov.coverage" in gauges
    assert "prefetch.markov.timeliness" in gauges
    assert "cache.swap.prefetch_waste_ratio" in gauges
    snap = system.policy.snapshot()
    assert gauges["prefetch.markov.accuracy"] == pytest.approx(snap["accuracy"])


def test_traced_policies_emit_plan_and_feedback_events():
    """A repeating page walk lets markov predict the second pass: plans
    appear as ``prefetch.plan`` and their fates as ``prefetch.feedback``."""
    fs = Leap(COST, 4 * PAGE_SIZE, policy="markov")
    tracer = Tracer()
    fs.set_tracer(tracer)
    obj = fs.allocate(8 * PAGE_SIZE, name="x")
    for _ in range(3):  # pass 1 learns; later passes fault and plan
        for p in range(8):
            fs.access(obj.obj_id, p * PAGE_SIZE, 8, False)
    kinds = {kind for kind, _t, _f in tracer.events}
    assert "prefetch.plan" in kinds
    assert "prefetch.feedback" in kinds
    snap = fs.policy.snapshot()
    assert snap["issued"] > 0
    assert snap["useful_timely"] + snap["useful_late"] + snap["wasted"] > 0


def test_default_policy_emits_no_new_event_kinds(monkeypatch):
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)
    tracer = Tracer()
    _leap_run(None, tracer=tracer)
    kinds = {kind for kind, _t, _f in tracer.events}
    assert "prefetch.plan" not in kinds
    assert "prefetch.feedback" not in kinds


# -- per-policy golden digests ------------------------------------------------

#: policy -> (sha256 of the canonical trace JSONL, event count) for
#: array_sum(2048) at ratio 0.5 on the Leap chassis.  "leap" matches the
#: system golden in test_golden_traces.py by construction.
POLICY_GOLDEN = {
    "leap": (
        "f2ef6074d183f42601a38d6e0e0534e3f7929ce06998ba9757fab6e10bdc4646",
        2057,
    ),
    "markov": (
        "e15adf60113ff0d5ba6775a1009b7dfcc161e41900428c9427c027094a3658d2",
        2056,
    ),
    "programmed": (
        "afd2f5abf3b01002693ad87acbee35928f231e71a1a09e1bbfc7f0cf837e4a4d",
        2062,
    ),
    "learned": (
        "41ca0e145632dd94ab8d9b48ac488656dee0a65e5c5d5218918fc35197914f33",
        2059,
    ),
}


@pytest.mark.parametrize("policy", sorted(POLICY_GOLDEN))
def test_policy_golden_trace_digest(policy, monkeypatch):
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)
    tracer = Tracer()
    _leap_run(policy, tracer=tracer)
    digest, events = POLICY_GOLDEN[policy]
    assert (tracer.digest(), len(tracer)) == (digest, events), (
        f"{policy}: trace diverged from the committed digest; if the "
        f"behavior change is intentional, update POLICY_GOLDEN with "
        f"({tracer.digest()!r}, {len(tracer)})"
    )
