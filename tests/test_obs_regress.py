"""Tests for :mod:`repro.obs.regress`: baseline flattening, the
hard-virtual / advisory-wall comparison split, exit codes, and one live
deterministic cell re-measured against the committed baseline."""

import json
import os
import pathlib

import pytest

from repro.obs import regress
from repro.obs.regress import (
    Check,
    compare,
    flatten_chaos,
    flatten_engine,
    flatten_hybrid,
    flatten_prefetch,
    flatten_trace,
    gate,
    load_baselines,
    measure_current,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
ENGINE = REPO / "BENCH_engine.json"
CHAOS = REPO / "BENCH_chaos.json"
PREFETCH = REPO / "BENCH_prefetch.json"
TRACE = REPO / "BENCH_trace.json"
HYBRID = REPO / "BENCH_hybrid.json"


# -- flattening ----------------------------------------------------------------


def test_flatten_committed_baselines():
    metrics = load_baselines(ENGINE, CHAOS)
    # throughput for both engines
    assert "engine.reference.ops_per_sec" in metrics
    assert "engine.codegen.ops_per_sec" in metrics
    # the Fig. 5 single-point virtual times
    assert metrics["engine.virtual_ns.native"] > 0
    assert metrics["engine.virtual_ns.fastswap@0.2"] > 0
    assert metrics["engine.virtual_ns.mira@0.2"] > 0
    # chaos cells flattened with the full coordinate in the key
    chaos_keys = [k for k in metrics if k.startswith("chaos.")]
    assert chaos_keys
    assert all(
        k.endswith(".healthy_ns") or k.endswith(".faulty_ns")
        for k in chaos_keys
    )


def test_flatten_skips_incomplete_cells():
    doc = {
        "cells": [
            {"workload": "w", "system": "s", "seed": 1, "intensity": "light",
             "completed": False, "healthy_ns": 1.0, "faulty_ns": 2.0},
            {"workload": "w", "system": "s", "seed": 2, "intensity": "light",
             "completed": True, "healthy_ns": 3.0, "faulty_ns": 4.0},
        ]
    }
    flat = flatten_chaos(doc)
    assert flat == {
        "chaos.w.s.s2.light.healthy_ns": 3.0,
        "chaos.w.s.s2.light.faulty_ns": 4.0,
    }


def test_flatten_engine_tolerates_missing_sections():
    assert flatten_engine({}) == {}
    assert flatten_engine({"single_point": {}}) == {}


def test_flatten_prefetch_cells():
    doc = {
        "cells": [
            {"workload": "w", "policy": "p", "stall_ns": 5.0,
             "elapsed_ns": 9.0, "buckets": {}},
        ]
    }
    assert flatten_prefetch(doc) == {
        "prefetch.w.p.stall_ns": 5.0,
        "prefetch.w.p.elapsed_ns": 9.0,
    }
    assert flatten_prefetch({}) == {}


def test_flatten_committed_prefetch_baseline():
    metrics = load_baselines(ENGINE, CHAOS, PREFETCH)
    cells = [k for k in metrics if k.startswith("prefetch.")]
    assert cells
    # every policy appears for the headline oblivious workload
    for policy in ("none", "leap", "markov", "programmed", "learned"):
        assert f"prefetch.dataframe.{policy}.stall_ns" in metrics
    # the acceptance comparison is visible straight from the baseline
    assert (
        metrics["prefetch.dataframe.programmed.stall_ns"]
        < 0.75 * metrics["prefetch.dataframe.leap.stall_ns"]
    )


def test_flatten_trace_cells():
    doc = {
        "cells": [
            {"scenario": "s", "system": "y", "elapsed_ns": 7.0,
             "miss_rate": 0.5},
        ]
    }
    assert flatten_trace(doc) == {"trace.s.y.elapsed_ns": 7.0}
    assert flatten_trace({}) == {}


def test_flatten_hybrid_cells():
    doc = {
        "ir_cells": [
            {"workload": "w", "system": "hybrid", "elapsed_ns": 3.0},
        ],
        "trace_cells": [
            {"scenario": "s", "system": "hybrid", "elapsed_ns": 7.0},
        ],
    }
    assert flatten_hybrid(doc) == {
        "hybrid.ir.w.hybrid.elapsed_ns": 3.0,
        "hybrid.trace.s.hybrid.elapsed_ns": 7.0,
    }
    assert flatten_hybrid({}) == {}


def test_flatten_committed_hybrid_baseline():
    metrics = load_baselines(ENGINE, CHAOS, hybrid_path=HYBRID)
    ir = [k for k in metrics if k.startswith("hybrid.ir.")]
    tr = [k for k in metrics if k.startswith("hybrid.trace.")]
    # 5 workloads x 4 systems; 8 scenarios x 4 systems
    assert len(ir) >= 20 and len(tr) >= 32
    for system in ("fastswap", "mira", "hybrid"):
        assert f"hybrid.ir.graph_traversal.{system}.elapsed_ns" in metrics
    # the acceptance criterion is visible straight from the baseline:
    # hybrid matches or beats the better of fastswap/aifm per workload
    doc = json.loads(HYBRID.read_text())
    for workload, acc in doc["acceptance"].items():
        assert acc["hybrid_wins"], workload
    # and at least one trace scenario demonstrates a mid-run switch
    assert doc["midrun_switches"]


def test_flatten_committed_trace_baseline():
    metrics = load_baselines(ENGINE, CHAOS, trace_path=TRACE)
    cells = [k for k in metrics if k.startswith("trace.")]
    # the full matrix: >= 8 scenarios x >= 3 systems, every cell gated
    assert len(cells) >= 24
    for system in ("fastswap", "leap", "aifm", "mira-set"):
        assert f"trace.zipf_hot.{system}.elapsed_ns" in metrics


# -- comparison semantics ------------------------------------------------------


def test_virtual_time_regression_fails():
    checks = compare({"x.healthy_ns": 100.0}, {"x.healthy_ns": 102.0})
    assert not gate(checks)
    assert "regressed" in checks[0].note


def test_virtual_time_within_tolerance_passes():
    checks = compare({"x.healthy_ns": 100.0}, {"x.healthy_ns": 100.5})
    assert gate(checks)
    assert checks[0].note == ""


def test_virtual_time_improvement_passes_with_note():
    checks = compare({"x.healthy_ns": 100.0}, {"x.healthy_ns": 50.0})
    assert gate(checks)
    assert "regenerate" in checks[0].note


def test_wall_clock_is_advisory_by_default():
    # a 90% throughput collapse still passes without --strict-wall
    checks = compare({"e.ops_per_sec": 1000.0}, {"e.ops_per_sec": 100.0})
    assert gate(checks)
    assert "fell" in checks[0].note


def test_wall_clock_strict_gate():
    base = {"e.ops_per_sec": 1000.0}
    assert not gate(compare(base, {"e.ops_per_sec": 100.0}, strict_wall=True))
    # above the collapse ratio: noisy-but-fine
    assert gate(compare(base, {"e.ops_per_sec": 500.0}, strict_wall=True))


def test_compare_only_overlapping_metrics():
    checks = compare({"a_ns": 1.0}, {"b_ns": 2.0})
    assert checks == []


def test_check_row_roundtrip():
    c = Check("m", 1.0, 2.0, 1.0, 0.01, True, False, "bad")
    assert c.row()["metric"] == "m" and c.row()["ok"] is False


# -- CLI / exit codes ----------------------------------------------------------


def _flat_current(tmp_path, scale=1.0):
    metrics = load_baselines(ENGINE, CHAOS)
    if scale != 1.0:
        metrics = {
            k: v * scale if k.endswith("_ns") else v
            for k, v in metrics.items()
        }
    p = tmp_path / "current.json"
    p.write_text(json.dumps({"metrics": metrics}))
    return p


def test_gate_passes_on_baseline_identical_current(tmp_path, capsys):
    cur = _flat_current(tmp_path)
    rc = regress.main(
        ["--engine", str(ENGINE), "--chaos", str(CHAOS), "--current", str(cur)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "regress: OK" in out


def test_gate_fails_on_slowed_virtual_time(tmp_path, capsys):
    cur = _flat_current(tmp_path, scale=1.5)
    rc = regress.main(
        ["--engine", str(ENGINE), "--chaos", str(CHAOS), "--current", str(cur)]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "regress: FAIL" in out
    assert "FAIL" in out


def test_gate_exit_2_on_unreadable_baseline(tmp_path, capsys):
    rc = regress.main(
        ["--engine", str(tmp_path / "nope.json"), "--chaos", str(CHAOS)]
    )
    assert rc == 2
    assert "cannot load baselines" in capsys.readouterr().out


def test_gate_exit_2_on_unreadable_current(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = regress.main(
        ["--engine", str(ENGINE), "--chaos", str(CHAOS), "--current", str(bad)]
    )
    assert rc == 2
    assert "cannot load --current" in capsys.readouterr().out


def test_gate_json_report_and_save_current(tmp_path):
    cur = _flat_current(tmp_path)
    out = tmp_path / "report.json"
    saved = tmp_path / "saved.json"
    rc = regress.main(
        ["--engine", str(ENGINE), "--chaos", str(CHAOS),
         "--current", str(cur), "--json", str(out), "--save-current",
         str(saved)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["checks"]
    # --save-current with --current just echoes nothing measured; the
    # flag matters on live runs, but the file must not be written here
    assert not saved.exists() or "metrics" in json.loads(saved.read_text())


def test_report_check_delegates_to_regress(tmp_path, capsys):
    from repro.obs import report

    cur = _flat_current(tmp_path)
    rc = report.main(
        ["--check", "--baseline-dir", str(REPO), "--current", str(cur)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "perf-regression gate" in out


# -- engine selection hygiene --------------------------------------------------


class _FakeResult:
    breakdown = {"compute": 100.0, "dram": 200.0}


def test_measure_throughput_covers_all_engines_and_restores_env(monkeypatch):
    """``_measure_throughput`` sweeps reference/codegen via
    ``REPRO_ENGINE`` and must put the caller's value back afterwards."""
    import repro.core

    seen = []

    def fake_run(module, system, data_init=None, entry="main", **kw):
        seen.append(os.environ.get("REPRO_ENGINE"))
        return _FakeResult()

    monkeypatch.setattr(repro.core, "run_on_baseline", fake_run)
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    out = regress._measure_throughput()
    # best-of-2 per engine, engines swept in order
    assert seen == ["reference"] * 2 + ["codegen"] * 2
    assert set(out) == {f"engine.{e}.ops_per_sec" for e in seen}
    assert os.environ["REPRO_ENGINE"] == "reference"


def test_measure_throughput_restores_env_on_error(monkeypatch):
    """The env override is undone in a ``finally``: even when a run blows
    up mid-sweep, the ambient engine selection must not leak."""
    import repro.core

    def boom(*args, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(repro.core, "run_on_baseline", boom)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    with pytest.raises(RuntimeError):
        regress._measure_throughput()
    assert "REPRO_ENGINE" not in os.environ


def test_pinned_env_restores_values_on_error(monkeypatch):
    """``_pinned_env`` pins knobs off for the body and restores the exact
    prior environment even when the body raises."""
    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)
    with pytest.raises(RuntimeError):
        with regress._pinned_env("REPRO_ENGINE", "REPRO_PREFETCH"):
            assert "REPRO_ENGINE" not in os.environ
            assert "REPRO_PREFETCH" not in os.environ
            raise RuntimeError("boom")
    assert os.environ["REPRO_ENGINE"] == "codegen"
    assert "REPRO_PREFETCH" not in os.environ


def test_measure_current_restores_env_on_error(monkeypatch):
    """A measurement that blows up mid-``measure_current`` must leave
    ``os.environ`` exactly as the caller had it (the whole body runs
    under ``_pinned_env``)."""
    import repro.faults.chaos

    def boom(*args, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(repro.faults.chaos, "run_chaos_point", boom)
    monkeypatch.setenv("REPRO_PREFETCH", "markov")
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    before = dict(os.environ)
    with pytest.raises(RuntimeError):
        measure_current(workloads=("array_sum",), systems=("fastswap",))
    assert dict(os.environ) == before


def test_measure_current_pins_ambient_knobs(monkeypatch):
    """An ambient ``$REPRO_PREFETCH``/``$REPRO_ENGINE`` must not leak
    into the measured cells: baselines were measured with them unset."""
    import repro.faults.chaos

    seen = {}

    class _Point:
        workload, system, seed, intensity = "w", "s", 1, "light"
        healthy_ns = faulty_ns = 1.0

    def spy(*args, **kw):
        seen["engine"] = os.environ.get("REPRO_ENGINE")
        seen["prefetch"] = os.environ.get("REPRO_PREFETCH")
        return _Point()

    monkeypatch.setattr(repro.faults.chaos, "run_chaos_point", spy)
    monkeypatch.setenv("REPRO_PREFETCH", "markov")
    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    measure_current(
        workloads=("array_sum",), systems=("fastswap",),
        throughput=False, single_points=False, prefetch=False,
        trace=False, hybrid=False,
    )
    assert seen == {"engine": None, "prefetch": None}
    assert os.environ["REPRO_PREFETCH"] == "markov"
    assert os.environ["REPRO_ENGINE"] == "codegen"


# -- one live deterministic cell ----------------------------------------------


def test_measured_chaos_cell_matches_committed_baseline():
    """The simulator is deterministic: re-measuring a baseline chaos cell
    (plus a prefetch-sweep column and a trace-replay cell) reproduces the
    committed virtual times exactly."""
    baseline = flatten_chaos(json.loads(CHAOS.read_text()))
    baseline.update(flatten_prefetch(json.loads(PREFETCH.read_text())))
    baseline.update(flatten_trace(json.loads(TRACE.read_text())))
    baseline.update(flatten_hybrid(json.loads(HYBRID.read_text())))
    current = measure_current(
        workloads=("array_sum",),
        systems=("fastswap",),
        seeds=(1,),
        intensities=("medium",),
        throughput=False,
        single_points=False,
        prefetch_workloads=("array_sum",),
        trace_scenarios=("zipf_hot",),
        trace_systems=("fastswap", "mira-set"),
        hybrid_scenarios=("zipf_hot",),
    )
    assert any(k.startswith("prefetch.") for k in current)
    assert any(k.startswith("trace.") for k in current)
    assert any(k.startswith("hybrid.") for k in current)
    for key, value in current.items():
        assert key in baseline, key
        assert value == pytest.approx(baseline[key], rel=1e-12)
