"""Tests for :mod:`repro.obs.analyze`: the exactness contract (exclusive
buckets sum bit-for-bit to the total virtual time), the phase/segment
hierarchy, critical-path drill-down, collapsed-stack export, wasted
prefetch detection, and degradation-window attribution."""

import json
import math

import pytest

from repro.baselines import NativeMemory
from repro.bench.harness import BASELINE_SYSTEMS, ModuleMemo
from repro.core import MiraController, run_on_baseline, run_plan
from repro.faults.chaos import CHAOS_WORKLOADS
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.obs.analyze import (
    BUCKET_OF,
    analyze_events,
    collapsed_stacks,
    critical_path,
)
from repro.workloads import make_workload

COST = CostModel()


def _decode(tracer: Tracer) -> list[dict]:
    return [json.loads(line) for line in tracer.lines()]


def _traced(name: str, system: str, ratio: float = 0.25):
    """One verified run of a chaos-sized workload with tracing on."""
    workload = make_workload(name, **CHAOS_WORKLOADS[name])
    memo = ModuleMemo(workload)
    tracer = Tracer()
    if system == "native":
        result = run_on_baseline(
            memo.module,
            NativeMemory(COST, 2 * memo.footprint_bytes + (1 << 20)),
            workload.data_init,
            entry=workload.entry,
            tracer=tracer,
        )
    elif system == "mira":
        local = max(4096, int(memo.footprint_bytes * ratio))
        controller = MiraController(
            memo.fresh,
            COST,
            local,
            data_init=workload.data_init,
            entry=workload.entry,
            max_iterations=1,
            tracer=tracer,
        )
        program = controller.optimize()
        result = run_plan(
            program.module,
            COST,
            local,
            data_init=workload.data_init,
            entry=workload.entry,
            tracer=tracer,
        )
    else:
        local = max(4096, int(memo.footprint_bytes * ratio))
        result = run_on_baseline(
            memo.module,
            BASELINE_SYSTEMS[system](COST, local),
            workload.data_init,
            entry=workload.entry,
            tracer=tracer,
        )
    workload.verify_results(result.results)
    return tracer, result


# -- the exactness contract (acceptance criterion) -----------------------------


@pytest.mark.parametrize("system", ["native", "fastswap", "mira"])
@pytest.mark.parametrize("workload", sorted(CHAOS_WORKLOADS))
def test_buckets_sum_exactly_to_total(workload, system):
    """Every nanosecond lands in exactly one bucket: fsum of the buckets
    (and of the raw categories) equals the total bit-for-bit, and the
    event-derived per-category totals agree with the clock breakdown the
    snapshots carry (no cross-check warnings)."""
    tracer, result = _traced(workload, system)
    att = analyze_events(_decode(tracer))
    assert att.total_ns > 0.0
    assert math.fsum(att.by_bucket.values()) == att.total_ns
    assert math.fsum(att.by_category.values()) == att.total_ns
    # the last segment is the verified final run
    assert att.segments[-1].total == result.elapsed_ns
    assert att.warnings == []


def test_attribution_buckets_are_known():
    """Derived categories all map to declared buckets (nothing silently
    falls through to compute via an unknown name)."""
    tracer, _ = _traced("array_sum", "mira")
    att = analyze_events(_decode(tracer))
    for cat in att.by_category:
        assert cat in BUCKET_OF, cat
    for sec_buckets in att.by_section.values():
        for bucket in sec_buckets:
            assert bucket in set(BUCKET_OF.values())


def test_mira_segments_are_labelled():
    """A controller trace splits into iterN segments plus the final run,
    and segment totals sum to the attribution total."""
    tracer, _ = _traced("array_sum", "mira")
    att = analyze_events(_decode(tracer))
    labels = [s.label for s in att.segments]
    assert labels[-1] == "final"
    assert any(l.startswith("iter") for l in labels[:-1])
    assert math.fsum(s.total for s in att.segments) == att.total_ns


def test_far_memory_pressure_shows_up_in_buckets():
    """A pressured fastswap run must attribute real time to the swap
    path, not bury it in compute."""
    tracer, _ = _traced("graph_traversal", "fastswap")
    att = analyze_events(_decode(tracer))
    assert att.by_bucket.get("swap_fault", 0.0) > 0.0
    assert att.by_bucket.get("miss_service", 0.0) > 0.0
    assert "swap" in att.by_section


# -- critical path -------------------------------------------------------------


def test_critical_path_structure():
    tracer, _ = _traced("graph_traversal", "mira")
    att = analyze_events(_decode(tracer))
    steps = critical_path(att)
    assert steps[0]["level"] == "run"
    assert steps[0]["share"] == 1.0
    assert steps[0]["inclusive_ns"] == att.total_ns
    # multi-segment trace: second step is the heaviest segment
    assert steps[1]["level"] == "segment"
    assert steps[1]["inclusive_ns"] == max(s.total for s in att.segments)
    assert steps[-1]["level"] == "bucket"
    for s in steps:
        assert 0.0 <= s["share"] <= 1.0 + 1e-12
    # inclusive time never grows while drilling down
    incl = [s["inclusive_ns"] for s in steps]
    assert all(a >= b for a, b in zip(incl, incl[1:]))


def test_critical_path_empty_trace():
    att = analyze_events([])
    steps = critical_path(att)
    assert len(steps) == 1 and steps[0]["level"] == "run"
    assert att.total_ns == 0.0


# -- collapsed stacks ----------------------------------------------------------


def test_collapsed_stacks_format_and_mass():
    """Output is valid collapsed format (``frame;frame ns``) and the
    stack weights account for the whole run up to integer rounding."""
    tracer, _ = _traced("graph_traversal", "mira")
    att = analyze_events(_decode(tracer))
    stacks = collapsed_stacks(att)
    assert stacks
    total = 0
    for line in stacks:
        path, _, value = line.rpartition(" ")
        assert path and ";" in path, line
        assert not value.startswith("-") and value.isdigit(), line
        assert all(frame for frame in path.split(";")), line
        assert path.split(";")[0] == "run"
        total += int(value)
    # each emitted stack rounds to the nearest ns
    assert abs(total - att.total_ns) <= 0.5 * len(stacks) + 1.0
    # multi-run trace: segment labels appear as second frames
    assert any(line.startswith("run;final;") for line in stacks)


def test_collapsed_stacks_single_segment_has_no_segment_frame():
    tracer, _ = _traced("array_sum", "fastswap")
    att = analyze_events(_decode(tracer))
    assert len(att.segments) == 1
    for line in collapsed_stacks(att):
        frames = line.rpartition(" ")[0].split(";")
        assert frames[0] == "run"
        assert frames[1] in set(BUCKET_OF.values()), line


# -- synthetic traces (targeted behaviors) -------------------------------------


def _snap(t: float, bd: dict | None = None) -> dict:
    return {"k": "prof.snapshot", "t": t, "elapsed": t, "runtime": t,
            "bd": bd or {}}


def test_wasted_prefetch_in_flight_and_unused():
    events = [
        {"k": "sec.open", "t": 0.0, "sec": "s", "hit_ov": 1.0, "ins_ov": 2.0,
         "ev_ov": 3.0},
        # prefetch A: evicted at t=50 while ready=100 -> in_flight waste
        {"k": "net.recv", "t": 10.0, "op": "read_async", "bytes": 256,
         "ready": 100.0, "issue": 4.0},
        {"k": "cache.prefetch", "t": 10.0, "sec": "s", "obj": 1, "line": 0,
         "ready": 100.0},
        {"k": "cache.evict", "t": 50.0, "sec": "s", "obj": 1, "line": 0},
        # prefetch B: arrives (ready=60) but nobody touches it -> unused
        {"k": "net.recv", "t": 55.0, "op": "read_async", "bytes": 128,
         "ready": 60.0, "issue": 4.0},
        {"k": "cache.prefetch", "t": 55.0, "sec": "s", "obj": 2, "line": 0,
         "ready": 60.0},
        # prefetch C: consumed by a hit -> not waste
        {"k": "net.recv", "t": 70.0, "op": "read_async", "bytes": 64,
         "ready": 75.0, "issue": 4.0},
        {"k": "cache.prefetch", "t": 70.0, "sec": "s", "obj": 3, "line": 0,
         "ready": 75.0},
        {"k": "cache.hit", "t": 80.0, "sec": "s", "obj": 3, "line": 0},
        _snap(200.0),
    ]
    att = analyze_events(events)
    w = att.wasted_prefetch["s"]
    assert w["in_flight"] == 1
    assert w["unused"] == 1
    assert w["bytes"] == 256 + 128
    assert math.fsum(att.by_bucket.values()) == att.total_ns


def test_degradation_window_attribution():
    events = [
        {"k": "sec.open", "t": 0.0, "sec": "s", "hit_ov": 5.0, "ins_ov": 0.0,
         "ev_ov": 0.0},
        {"k": "cache.hit", "t": 10.0, "sec": "s", "obj": 1, "line": 0},
        {"k": "degrade.section", "t": 20.0, "sec": "s",
         "action": "demote_comm"},
        {"k": "cache.hit", "t": 30.0, "sec": "s", "obj": 1, "line": 0},
        {"k": "cache.hit", "t": 40.0, "sec": "s", "obj": 1, "line": 0},
        _snap(100.0),
    ]
    att = analyze_events(events)
    assert len(att.degradations) == 1
    d = att.degradations[0]
    assert d["action"] == "demote_comm" and d["sec"] == "s"
    assert d["start"] == 20.0 and d["end"] == 100.0
    # only the two post-degrade hits (5 ns overhead each) fall inside
    assert d["attr_ns"] == 10.0
    assert d["segment"] == "final"


def test_phase_tree_self_time_and_residual():
    events = [
        {"k": "sec.open", "t": 0.0, "sec": "s", "hit_ov": 2.0, "ins_ov": 0.0,
         "ev_ov": 0.0},
        {"k": "prof.region", "t": 0.0, "label": "outer", "ev": "begin"},
        {"k": "prof.region", "t": 10.0, "label": "inner", "ev": "begin"},
        {"k": "cache.hit", "t": 15.0, "sec": "s", "obj": 1, "line": 0},
        {"k": "prof.region", "t": 40.0, "label": "inner", "ev": "end"},
        {"k": "prof.region", "t": 100.0, "label": "outer", "ev": "end"},
        _snap(120.0),
    ]
    att = analyze_events(events)
    root = att.segments[0].root
    (outer,) = root.children
    (inner,) = outer.children
    assert outer.dur == 100.0 and inner.dur == 30.0
    assert outer.self_ns == 70.0
    # the hit's overhead was attributed to the innermost open phase
    assert inner.attr_totals() == {"hit_overhead": 2.0}
    assert inner.residual == 28.0
    assert root.self_ns == 20.0
    assert att.warnings == []


def test_same_label_nested_phases_close_innermost_first():
    events = [
        {"k": "prof.region", "t": 0.0, "label": "loop", "ev": "begin"},
        {"k": "prof.region", "t": 10.0, "label": "loop", "ev": "begin"},
        {"k": "prof.region", "t": 30.0, "label": "loop", "ev": "end"},
        {"k": "prof.region", "t": 90.0, "label": "loop", "ev": "end"},
        _snap(100.0),
    ]
    att = analyze_events(events)
    (outer,) = att.segments[0].root.children
    (inner,) = outer.children
    assert outer.dur == 90.0
    assert inner.dur == 20.0
    assert att.warnings == []


def test_unclosed_phase_and_unmatched_end_warn():
    events = [
        {"k": "prof.region", "t": 0.0, "label": "a", "ev": "begin"},
        {"k": "prof.region", "t": 5.0, "label": "ghost", "ev": "end"},
        _snap(50.0),
    ]
    att = analyze_events(events)
    assert any("without begin" in w for w in att.warnings)
    assert any("never ended" in w for w in att.warnings)
    # the dangling span is closed at the segment boundary
    assert att.segments[0].root.children[0].dur == 50.0


def test_truncated_trace_final_partial_segment():
    """A trace that dies mid-run (no prof.snapshot) still attributes the
    work it saw, flags the segment, and keeps the exactness contract."""
    events = [
        {"k": "sec.open", "t": 0.0, "sec": "s", "hit_ov": 1.0, "ins_ov": 0.0,
         "ev_ov": 0.0},
        {"k": "cache.hit", "t": 10.0, "sec": "s", "obj": 1, "line": 0},
        {"k": "cache.hit", "t": 42.0, "sec": "s", "obj": 1, "line": 0},
    ]
    att = analyze_events(events)
    assert len(att.segments) == 1
    seg = att.segments[0]
    assert seg.truncated
    assert seg.total == 42.0  # last event time stands in for the span
    assert any("truncated" in w for w in att.warnings)
    assert math.fsum(att.by_bucket.values()) == att.total_ns


def test_legacy_trace_without_overhead_constants_warns_once():
    events = [
        {"k": "sec.open", "t": 0.0, "sec": "s"},  # no hit_ov/ins_ov/ev_ov
        {"k": "cache.hit", "t": 1.0, "sec": "s", "obj": 1, "line": 0},
        {"k": "cache.hit", "t": 2.0, "sec": "s", "obj": 2, "line": 0},
        _snap(10.0),
    ]
    att = analyze_events(events)
    legacy = [w for w in att.warnings if "legacy" in w]
    assert len(legacy) == 1
    assert att.by_bucket.get("cache_hit", 0.0) == 0.0  # undercounts, by design


def test_bd_cross_check_flags_material_mismatch():
    events = [
        {"k": "sec.open", "t": 0.0, "sec": "s", "hit_ov": 5.0, "ins_ov": 0.0,
         "ev_ov": 0.0},
        {"k": "cache.hit", "t": 1.0, "sec": "s", "obj": 1, "line": 0},
        _snap(100.0, bd={"hit_overhead": 50.0}),  # clock says 50, events say 5
    ]
    att = analyze_events(events)
    assert any("clock breakdown" in w for w in att.warnings)


def test_bucketed_and_execution_categories_are_clock_categories():
    """The analyzer's buckets and the profiler's execution set name clock
    categories by string: each must be in the clock's registry, so a
    renamed category fails here instead of quietly landing in the
    ``compute`` residual."""
    from repro.memsim.clock import CATEGORIES
    from repro.runtime.profiler import _EXEC_CATEGORIES

    assert set(BUCKET_OF) <= set(CATEGORIES)
    assert _EXEC_CATEGORIES <= set(CATEGORIES)
