"""Unit tests for ``repro.obs`` (tracer, metrics, report) plus the PR's
acceptance criterion: on all five paper workloads, the reference
interpreter and the codegen engine produce **byte-identical** JSONL
traces -- the full canonical export compared with ``==``, not just the
digest.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import NativeMemory
from repro.bench.harness import BASELINE_SYSTEMS, ModuleMemo
from repro.core import MiraController, run_on_baseline, run_plan
from repro.memsim.cost_model import CostModel
from repro.obs import (
    KINDS,
    MetricsRegistry,
    SCHEMA,
    Tracer,
    collect_run_metrics,
    digest_of_events,
    read_jsonl,
)
from repro.obs.report import (
    event_counts,
    phase_timeline,
    render_report,
    section_summary,
)
from repro.obs.report import main as report_main
from repro.workloads import make_workload

COST = CostModel()


# -- Tracer --------------------------------------------------------------------


def test_tracer_rejects_unknown_kind():
    t = Tracer()
    with pytest.raises(ValueError, match="unknown trace event kind"):
        t.emit("cache.hitt", 0.0)
    assert len(t) == 0


def test_tracer_canonical_jsonl():
    t = Tracer(meta={"workload": "x"})
    t.emit("cache.hit", 10.0, sec="main", obj=1, line=2)
    t.emit("cache.miss", 20.0, sec="main", obj=1, line=3, wait=5.0, write=False)
    lines = t.to_jsonl().splitlines()
    assert len(lines) == 3
    header = json.loads(lines[0])
    assert header == {"schema": SCHEMA, "events": 2, "workload": "x"}
    # canonical form: sorted keys, minimal separators
    assert lines[1] == '{"i":0,"k":"cache.hit","line":2,"obj":1,"sec":"main","t":10.0}'
    ev = json.loads(lines[2])
    assert ev["i"] == 1 and ev["k"] == "cache.miss" and ev["wait"] == 5.0


def test_tracer_digest_ignores_meta_but_not_events():
    a, b = Tracer(meta={"run": 1}), Tracer(meta={"run": 2})
    for t in (a, b):
        t.emit("net.send", 1.0, bytes=64)
    assert a.digest() == b.digest()
    b.emit("net.recv", 2.0, bytes=64)
    assert a.digest() != b.digest()


def test_trace_roundtrip_and_digest_of_events(tmp_path):
    t = Tracer(meta={"note": "roundtrip"})
    t.emit("swap.fault", 5.0, obj=1, line=0, wait=100.0, write=True)
    t.emit("cache.evict", 7.5, sec="swap", obj=1, line=0, dirty=True, hinted=False)
    path = tmp_path / "trace.jsonl"
    t.write_jsonl(path)
    header, events = read_jsonl(path)
    assert header["schema"] == SCHEMA and header["note"] == "roundtrip"
    assert [e["k"] for e in events] == ["swap.fault", "cache.evict"]
    # decoding then re-digesting reproduces the writer's digest exactly
    assert digest_of_events(events) == t.digest()


def test_every_emitted_kind_is_declared():
    """Grep the source tree for emit()/emitter() calls; each kind must be
    in KINDS (the reverse of the runtime check: no dead schema entries
    creep in unvalidated)."""
    import re
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    emitted = set()
    for py in src.rglob("*.py"):
        emitted.update(
            re.findall(r'\.emit(?:ter)?\(\s*"([a-z_.]+)"', py.read_text())
        )
    assert emitted, "no emit() calls found -- did the tracer get removed?"
    # the op log emits each row's kind through tracer.emitter(kind)
    from repro.cache.oplog import OP_LOG

    emitted |= set(OP_LOG)
    assert emitted <= KINDS
    unused = KINDS - emitted
    assert not unused, f"schema declares kinds nothing emits: {sorted(unused)}"


# -- metrics -------------------------------------------------------------------


def test_registry_get_or_create_and_snapshot():
    reg = MetricsRegistry()
    reg.counter("a.count").inc()
    reg.counter("a.count").inc(2)
    reg.gauge("b.level").set(3.5)
    h = reg.histogram("c.wait")
    for v in (1.0, 3.0, 8.0):
        h.observe(v)
    snap = reg.snapshot()
    assert snap["counters"] == {"a.count": 3}
    assert snap["gauges"] == {"b.level": 3.5}
    assert snap["histograms"]["c.wait"] == {
        "count": 3, "sum": 12.0, "min": 1.0, "max": 8.0, "mean": 4.0,
        "p50": 3.0, "p95": 8.0, "p99": 8.0,
    }
    # JSON export is valid and deterministic
    assert json.loads(reg.to_json()) == json.loads(reg.to_json())


def test_empty_histogram_snapshot():
    h = MetricsRegistry().histogram("x")
    # explicit zero percentiles (not None): an empty histogram must export
    # to OpenMetrics / series JSONL without per-field null handling
    assert h.snapshot() == {
        "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        "p50": 0.0, "p95": 0.0, "p99": 0.0,
    }
    assert h.percentile(50) is None  # the raw accessor still signals "no data"


def test_registry_rejects_type_conflicts():
    from repro.errors import ObsError

    reg = MetricsRegistry()
    reg.counter("net.ops")
    reg.gauge("cache.size")
    reg.histogram("wait.ns")
    # same name under the same type: get-or-create, no error
    assert reg.counter("net.ops") is reg.counter("net.ops")
    with pytest.raises(ObsError, match="already registered as a counter"):
        reg.gauge("net.ops")
    with pytest.raises(ObsError, match="already registered as a gauge"):
        reg.histogram("cache.size")
    with pytest.raises(ObsError, match="already registered as a histogram"):
        reg.counter("wait.ns")
    # the failed registration must not leave a phantom metric behind
    assert "net.ops" not in reg.snapshot()["gauges"]


def test_histogram_exact_percentiles():
    h = MetricsRegistry().histogram("y")
    # unsorted insertion; percentile() must sort lazily and be exact
    for v in (50.0, 10.0, 40.0, 30.0, 20.0, 60.0, 90.0, 70.0, 80.0, 100.0):
        h.observe(v)
    assert h.percentile(50) == 50.0  # nearest-rank: ceil(10*0.5)=5th of 10
    assert h.percentile(95) == 100.0
    assert h.percentile(99) == 100.0
    assert h.percentile(10) == 10.0
    assert h.percentile(0) == 10.0  # rank clamps to 1
    h.observe(5.0)  # re-dirty after a snapshot-style read
    assert h.percentile(50) == 50.0
    assert h.min == 5.0 and h.count == 11


def _small_run(system="fastswap", tracer=None):
    """One pressured array_sum run (local memory = 1/4 footprint)."""
    workload = make_workload("array_sum", num_elems=2048)
    memo = ModuleMemo(workload)
    local = max(4096, memo.footprint_bytes // 4)
    if system == "swap":
        # an unplanned module on the Mira cache manager: everything goes
        # through the generic swap section, which publishes section stats
        result = run_plan(
            memo.module, COST, local, data_init=workload.data_init,
            entry=workload.entry, tracer=tracer,
        )
    else:
        result = run_on_baseline(
            memo.module,
            BASELINE_SYSTEMS[system](COST, local),
            workload.data_init,
            entry=workload.entry,
            tracer=tracer,
        )
    workload.verify_results(result.results)
    return result


def test_collect_run_metrics_publishes_all_layers():
    result = _small_run("swap")
    snap = collect_run_metrics(result).snapshot()
    g = snap["gauges"]
    assert g["run.elapsed_ns"] == result.elapsed_ns
    assert g["run.elapsed_ns"] > 0
    assert g["net.bytes_read"] > 0  # faults pulled pages over the wire
    assert g["far.used_bytes"] > 0
    assert g["cache.swap.misses"] > 0
    assert g["cache.swap.miss_rate"] == pytest.approx(
        g["cache.swap.misses"] / g["cache.swap.accesses"]
    )
    # clock breakdown categories all surface under clock.*
    assert any(k.startswith("clock.") for k in g)


# -- report --------------------------------------------------------------------


def _synthetic_events():
    return [
        {"i": 0, "k": "prof.region", "t": 0.0, "label": "warmup", "ev": "begin"},
        {"i": 1, "k": "cache.miss", "t": 1.0, "sec": "s", "obj": 1, "line": 0,
         "wait": 50.0, "write": False},
        {"i": 2, "k": "net.recv", "t": 1.0, "bytes": 64, "one_sided": True,
         "ns": 50.0},
        {"i": 3, "k": "prof.region", "t": 2.0, "label": "warmup", "ev": "end"},
        {"i": 4, "k": "prof.region", "t": 2.0, "label": "measured", "ev": "begin"},
        {"i": 5, "k": "cache.hit", "t": 3.0, "sec": "s", "obj": 1, "line": 0},
        {"i": 6, "k": "cache.hit", "t": 4.0, "sec": "s", "obj": 1, "line": 0},
        {"i": 7, "k": "swap.fault", "t": 5.0, "obj": 2, "line": 1, "wait": 80.0,
         "write": True},
        {"i": 8, "k": "prof.region", "t": 9.0, "label": "measured", "ev": "end"},
        # unterminated span: must not appear in the timeline
        {"i": 9, "k": "prof.region", "t": 9.0, "label": "dangling", "ev": "begin"},
    ]


def test_phase_timeline_spans_and_attribution():
    rows = phase_timeline(_synthetic_events())
    assert [r["phase"] for r in rows] == ["warmup", "measured"]
    warmup, measured = rows
    assert warmup["duration_ns"] == 2.0
    assert (warmup["hits"], warmup["misses"], warmup["net_bytes"]) == (0, 1, 64)
    assert measured["duration_ns"] == 7.0
    assert (measured["hits"], measured["misses"]) == (2, 1)


def test_section_summary_aggregates():
    rows = section_summary(_synthetic_events())
    assert rows["s"]["hits"] == 2 and rows["s"]["misses"] == 1
    assert rows["s"]["miss_wait_ns"] == 50.0
    assert rows["s"]["miss_rate"] == pytest.approx(1 / 3)
    # swap.fault events land in the implicit "swap" section
    assert rows["swap"]["misses"] == 1 and rows["swap"]["miss_wait_ns"] == 80.0


def test_event_counts_sorted():
    counts = event_counts(_synthetic_events())
    assert counts["prof.region"] == 5
    assert list(counts) == sorted(counts)


def test_render_report_and_cli(tmp_path, capsys):
    tracer = Tracer(meta={"workload": "array_sum"})
    _small_run("fastswap", tracer=tracer)
    path = tmp_path / "run.jsonl"
    tracer.write_jsonl(path)

    header, events = read_jsonl(path)
    text = render_report(header, events)
    assert SCHEMA in text and "section summary" in text and "swap" in text

    assert report_main([str(path), "--sections"]) == 0
    out = capsys.readouterr().out
    assert "section summary" in out and "phase timeline" not in out
    assert tracer.digest()[:16] in out


# -- acceptance: byte-identical traces on all five workloads -------------------

from tests.test_engine_parity import WORKLOADS  # noqa: E402  (shared configs)


def _trace_bytes(name: str) -> dict[str, str]:
    """Full canonical JSONL per measurement point under the current engine."""
    workload = make_workload(name, **WORKLOADS[name])
    memo = ModuleMemo(workload)
    local = max(4096, int(memo.footprint_bytes * 0.25))
    out: dict[str, str] = {}

    tracer = Tracer()
    run_on_baseline(
        memo.module,
        NativeMemory(COST, 2 * memo.footprint_bytes + (1 << 20)),
        workload.data_init,
        entry=workload.entry,
        tracer=tracer,
    )
    out["native"] = tracer.to_jsonl()

    tracer = Tracer()
    run_on_baseline(
        memo.module,
        BASELINE_SYSTEMS["fastswap"](COST, local),
        workload.data_init,
        entry=workload.entry,
        tracer=tracer,
    )
    out["fastswap"] = tracer.to_jsonl()

    tracer = Tracer()
    controller = MiraController(
        memo.fresh, COST, local, data_init=workload.data_init,
        entry=workload.entry, max_iterations=1, tracer=tracer,
    )
    program = controller.optimize()
    run_plan(
        program.module, COST, local, data_init=workload.data_init,
        entry=workload.entry, tracer=tracer,
    )
    out["mira"] = tracer.to_jsonl()
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traces_byte_identical_across_engines(name, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    reference = _trace_bytes(name)
    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    codegen = _trace_bytes(name)
    for point in reference:
        assert reference[point] == codegen[point], (
            f"{name}: traces diverge between engines at {point}"
        )
        assert reference[point].count("\n") > 1, (
            f"{name}/{point}: trace is empty -- emission points lost?"
        )
