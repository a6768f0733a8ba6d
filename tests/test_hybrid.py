"""Hybrid path-switch system: plan-time selection, online switchover,
hysteresis, and the interplay with prefetch and fault degradation.

Covers the PR-9 tentpole end to end -- :func:`choose_path` planner
signals, :class:`HybridConfig` validation, window-boundary promote /
demote decisions with cooldown hysteresis, switches while a prefetch is
in flight, degradation taking precedence over voluntary switching, and
the parity contract (engine parity plus bit-exact self-replay of a
trace run that switches mid-run).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.access import AccessPattern, AccessSummary
from repro.analysis.alias import AllocSite
from repro.analysis.locality import choose_path
from repro.bench.harness import ModuleMemo
from repro.cache.config import SectionConfig
from repro.cache.hybrid import HybridConfig, HybridManager
from repro.core import MiraController, run_plan
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.ir.types import FloatType
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.workloads import make_workload
from repro.workloads.trace import (
    compare_traces,
    make_system,
    replay_events,
    run_scenario,
)

COST = CostModel()
LINE = 256
WINDOW = 64


@pytest.fixture(autouse=True)
def _pin_env(monkeypatch):
    # hybrid decisions ride the access stream; results must not depend
    # on ambient engine/prefetch overrides
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)


def _mgr(local_pages: int = 64, window: int = WINDOW, cooldown: int = 2):
    hc = HybridConfig(window=window, cooldown_windows=cooldown)
    return HybridManager(COST, local_pages * PAGE_SIZE, hybrid_config=hc)


def _plan(mgr, name="g", size_bytes=32 * 1024, path="swap", names=("data",)):
    return mgr.plan_group(
        SectionConfig(name=name, size_bytes=size_bytes, line_size=LINE),
        list(names),
        path=path,
    )


def _page_cycle(mgr, obj_id, n, pages=128, is_write=False):
    """n single-word accesses striding one page at a time, cyclically:
    every access misses on both paths once the working set exceeds the
    local budget, with worst-case page amplification (8 B per 4 KiB)."""
    for i in range(n):
        mgr.access(obj_id, (i % pages) * PAGE_SIZE, 8, is_write)


# -- plan-time path selection -------------------------------------------------


def _summary(pattern, stride_elems=None):
    site = AllocSite(0, "a", "main", 1024, FloatType())
    return AccessSummary(site=site, pattern=pattern, stride_elems=stride_elems)


def test_choose_path_dense_stream_prefers_swap():
    assert choose_path(_summary(AccessPattern.SEQUENTIAL), COST) == "swap"
    # 32-byte stride still faults once per 128 accesses on the swap path
    assert choose_path(_summary(AccessPattern.STRIDED, 4), COST) == "swap"


def test_choose_path_sparse_or_irregular_prefers_object():
    # 256-byte stride: one swap fault per 16 accesses loses to line fetches
    assert choose_path(_summary(AccessPattern.STRIDED, 32), COST) == "object"
    # page-sized stride: every access faults a whole page
    assert choose_path(_summary(AccessPattern.STRIDED, 512), COST) == "object"
    assert choose_path(_summary(AccessPattern.INDIRECT), COST) == "object"
    assert choose_path(_summary(AccessPattern.RANDOM), COST) == "object"


def test_planner_assigns_mixed_paths_to_graph_sections():
    wl = make_workload("graph_traversal", num_nodes=500, num_edges=1500)
    memo = ModuleMemo(wl)
    local = max(4096, memo.footprint_bytes // 2)
    controller = MiraController(
        memo.fresh, COST, local, data_init=wl.data_init, entry=wl.entry,
        max_iterations=2,
    )
    program = controller.optimize()
    paths = {sp.config.name: sp.path for sp in program.plan.sections}
    assert set(paths.values()) <= {"swap", "object"}
    # the dense stream section starts on swap, the indirect one on object
    assert "swap" in paths.values()
    assert "object" in paths.values()


# -- config validation / planning API ----------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window": 0},
        {"window": -5},
        {"promote_miss_rate": 0.95, "demote_miss_rate": 0.9},
        {"promote_miss_rate": 0.0},
        {"demote_miss_rate": 1.5},
        {"cooldown_windows": -1},
    ],
)
def test_hybrid_config_rejects_bad_thresholds(kwargs):
    with pytest.raises(ConfigError):
        HybridConfig(**kwargs)


def test_plan_group_rejects_unknown_path():
    mgr = _mgr()
    with pytest.raises(ConfigError, match="unknown path"):
        _plan(mgr, path="hybrid")


def test_plan_group_is_idempotent():
    mgr = _mgr()
    first = _plan(mgr, path="object")
    again = mgr.plan_group(
        SectionConfig(name="g", size_bytes=4096, line_size=LINE),
        ["other"],
        path="swap",
    )
    assert again is first  # replaying mem.plan onto a planned system
    assert again.path == "object"
    assert list(mgr.sections()) == ["g"]


def test_planned_members_join_group_on_allocation():
    mgr = _mgr()
    group = _plan(mgr, path="object")
    obj = mgr.allocate(8 * PAGE_SIZE, name="data")
    other = mgr.allocate(PAGE_SIZE, name="unrelated")
    assert group.obj_ids == [obj.obj_id]
    mgr.access(obj.obj_id, 0, 8, False)
    assert mgr.sections()["g"].stats.misses == 1  # routed to the section
    mgr.free(other.obj_id)
    mgr.free(obj.obj_id)
    assert group.obj_ids == []


# -- online switchover --------------------------------------------------------


def test_swap_group_promotes_at_window_boundary():
    mgr = _mgr()
    group = _plan(mgr, path="swap")
    obj = mgr.allocate(128 * PAGE_SIZE, name="data")
    assert "g" not in mgr.sections()  # swap path: section not yet open
    _page_cycle(mgr, obj.obj_id, WINDOW)  # 100% miss, amplification 512
    assert [s["dir"] for s in mgr.switch_log] == ["promote"]
    assert group.path == "object"
    assert "g" in mgr.sections()
    # post-switch the 32 KiB section holds all 128 touched lines: the
    # second pass hits, so the group settles and never demotes back
    _page_cycle(mgr, obj.obj_id, 4 * WINDOW)
    assert len(mgr.switch_log) == 1
    assert mgr.sections()["g"].stats.hits > 0


def test_switch_emits_event_and_charges_overhead():
    mgr = _mgr()
    tracer = Tracer()
    mgr.set_tracer(tracer)
    _plan(mgr, path="swap")
    obj = mgr.allocate(128 * PAGE_SIZE, name="data")
    _page_cycle(mgr, obj.obj_id, WINDOW)
    switches = [(t, f) for k, t, f in tracer.events if k == "path.switch"]
    assert len(switches) == 1
    t, fields = switches[0]
    assert fields["sec"] == "g"
    assert fields["dir"] == "promote"
    assert fields["path"] == "object"
    assert fields["miss"] == 1.0
    assert fields["amp"] == PAGE_SIZE / 8
    assert fields["ov"] == COST.path_switch_ns
    # switch_log records the post-overhead clock: the flip itself is priced
    assert mgr.switch_log[0]["t"] == t + COST.path_switch_ns


def test_hysteresis_switches_at_most_once_per_window():
    # a 16-line section over a 128-page cycle thrashes on BOTH paths:
    # without hysteresis the group would flap at every window boundary
    def drive(cooldown):
        mgr = _mgr(cooldown=cooldown)
        _plan(mgr, size_bytes=16 * LINE, path="swap")
        obj = mgr.allocate(128 * PAGE_SIZE, name="data")
        marks = []
        for i in range(18 * WINDOW):
            mgr.access(obj.obj_id, (i % 128) * PAGE_SIZE, 8, False)
            if len(mgr.switch_log) > len(marks):
                marks.append(i)
        return mgr.switch_log, marks

    log, marks = drive(cooldown=2)
    assert len(log) >= 2
    # directions strictly alternate: never two flips the same way
    for a, b in zip(log, log[1:]):
        assert a["dir"] != b["dir"]
    gaps = [b - a for a, b in zip(marks, marks[1:])]
    # at most one switch per window, and every cooldown is honored:
    # consecutive switches are >= (cooldown + 1) windows apart
    assert all(g >= 3 * WINDOW for g in gaps)

    log0, marks0 = drive(cooldown=0)
    gaps0 = [b - a for a, b in zip(marks0, marks0[1:])]
    assert all(g >= WINDOW for g in gaps0)  # still once per window, max
    assert len(log0) > len(log)  # cooldown is what spaces the flips out


def test_promote_with_prefetch_in_flight():
    mgr = _mgr()
    group = _plan(mgr, path="swap")
    obj = mgr.allocate(128 * PAGE_SIZE, name="data")
    _page_cycle(mgr, obj.obj_id, WINDOW - 1)
    # swap prefetch issued right before the boundary access promotes the
    # group: the in-flight pages must settle (or count wasted), not crash
    mgr.prefetch(obj.obj_id, 64 * PAGE_SIZE, 4 * PAGE_SIZE)
    mgr.access(obj.obj_id, (WINDOW - 1) * PAGE_SIZE, 8, False)
    assert [s["dir"] for s in mgr.switch_log] == ["promote"]
    assert group.path == "object"
    _page_cycle(mgr, obj.obj_id, 4 * WINDOW)  # object path fully live
    assert mgr.sections()["g"].stats.hits > 0


def test_promote_backs_off_when_budget_is_committed():
    mgr = _mgr(local_pages=64)
    mgr.plan_group(
        SectionConfig(name="big", size_bytes=60 * PAGE_SIZE, line_size=LINE),
        ["big"],
        path="object",
    )
    group = _plan(mgr, path="swap")  # 32 KiB would not fit: 60 + 8 > 64 pages
    obj = mgr.allocate(128 * PAGE_SIZE, name="data")
    _page_cycle(mgr, obj.obj_id, 6 * WINDOW)
    # every eligible window retries, fails the budget check, and backs
    # off for a cooldown instead of failing the run
    assert mgr.switch_log == []
    assert group.path == "swap"
    assert "g" not in mgr.sections()


# -- degradation wins ---------------------------------------------------------


def test_no_voluntary_switching_while_faults_are_active():
    mgr = _mgr()
    group = _plan(mgr, path="swap")
    obj = mgr.allocate(128 * PAGE_SIZE, name="data")
    mgr.enable_faults(FaultPlan(seed=1))  # injector active, zero loss
    _page_cycle(mgr, obj.obj_id, 4 * WINDOW)  # promote-worthy throughout
    assert mgr.switch_log == []
    assert group.path == "swap"


def test_degradation_remap_locks_group_on_swap():
    mgr = _mgr()
    tracer = Tracer()
    mgr.set_tracer(tracer)
    group = _plan(mgr, path="object")
    obj = mgr.allocate(128 * PAGE_SIZE, name="data")
    mgr.enable_faults(FaultPlan(seed=1, loss_prob=0.5, breaker_threshold=2))
    mgr.access(obj.obj_id, 0, 8, False)
    # breaker trips mid network op; the next access applies the remap
    mgr._note_persistent_failure("read")
    mgr.access(obj.obj_id, PAGE_SIZE, 8, False)
    assert [d["action"] for d in mgr.degrade_log] == ["remap_swap"]
    assert group.path == "swap"  # reconciled with the shed section
    assert group.locked
    # the remap is a degradation, not a voluntary switch: no path.switch
    assert mgr.switch_log == []
    assert not any(k == "path.switch" for k, _, _ in tracer.events)
    # even with faults cleared, a degraded group never promotes again
    mgr.enable_faults(None)
    _page_cycle(mgr, obj.obj_id, 4 * WINDOW)
    assert mgr.switch_log == []
    assert group.path == "swap"


# -- parity contract ----------------------------------------------------------


def _graph_plan():
    wl = make_workload("graph_traversal", num_nodes=500, num_edges=1500)
    memo = ModuleMemo(wl)
    local = max(4096, memo.footprint_bytes // 2)
    controller = MiraController(
        memo.fresh, COST, local, data_init=wl.data_init, entry=wl.entry,
        max_iterations=2,
    )
    return wl, controller.optimize(), local


def test_run_plan_hybrid_materializes_planned_paths():
    wl, program, local = _graph_plan()
    tracer = Tracer(access_log=True)
    res = run_plan(
        program.module, COST, local, data_init=wl.data_init, entry=wl.entry,
        hybrid=True, tracer=tracer,
    )
    wl.verify_results(res.results)
    planned = {
        sp.config.name: sp.path for sp in program.plan.sections
    }
    logged = {
        f["sec"]: f["path"] for k, _, f in tracer.events if k == "mem.plan"
    }
    assert logged == planned  # the trace is self-describing from event 0


def test_run_plan_hybrid_engine_parity():
    wl, program, local = _graph_plan()
    runs = {}
    for engine in ("reference", "codegen"):
        os.environ["REPRO_ENGINE"] = engine
        try:
            tracer = Tracer()
            res = run_plan(
                program.module, COST, local, data_init=wl.data_init,
                entry=wl.entry, hybrid=True, tracer=tracer,
            )
        finally:
            os.environ.pop("REPRO_ENGINE", None)
        wl.verify_results(res.results)
        runs[engine] = (res.elapsed_ns, tracer.digest())
    assert runs["reference"] == runs["codegen"]


def test_trace_self_replay_reproduces_midrun_switch():
    tracer = Tracer(access_log=True)
    res = run_scenario("mixed_rw", "hybrid", 0.5, tracer=tracer)
    switches = [f for k, _, f in tracer.events if k == "path.switch"]
    assert switches, "mixed_rw must demonstrate a profitable mid-run switch"
    assert switches[0]["dir"] == "promote"
    fresh = make_system("hybrid", res.local_mem_bytes)
    tr2 = Tracer(access_log=True)
    fresh.set_tracer(tr2)
    events = [{"k": k, "t": t, **f} for k, t, f in tracer.events]
    replayed = replay_events(fresh, events, elapsed_ns=res.elapsed_ns)
    compare_traces(tracer.events, tr2.events, context="mixed_rw/hybrid")
    assert replayed.elapsed_ns == res.elapsed_ns
    assert replayed.counters == res.sections
    # the replayed manager re-derived the same switches from the stream
    assert [s["dir"] for s in fresh.switch_log] == [s["dir"] for s in switches]
    assert [s["sec"] for s in fresh.switch_log] == [s["sec"] for s in switches]
