"""Tests for the suite registry (:mod:`repro.bench.suites`), its writer
(``python -m repro.bench``) and the generic gate (:mod:`repro.obs.regress`):
the one file schema, comparison semantics, exit codes, the environment
pin, and live deterministic cells re-measured against the committed
baselines."""

import dataclasses
import json
import os
import pathlib

import pytest

from repro.bench import __main__ as bench_cli
from repro.bench import suites
from repro.bench.suites import SUITES, Suite
from repro.obs import regress
from repro.obs.regress import Check, compare, flatten, gate

REPO = pathlib.Path(__file__).resolve().parent.parent


def _committed(name: str) -> dict:
    return regress.load_json(suites.bench_path(REPO, name))


def _committed_flat() -> dict:
    return {
        k: v for doc in regress.load(REPO, SUITES) for k, v in flatten(doc).items()
    }


# -- the committed baselines ---------------------------------------------------


def test_flatten_committed_baselines():
    metrics = _committed_flat()
    # the paper's figures: 229 cells that ran gate their time, 49 of them
    # (Figs. 8, 9, 11, 20, profiling) a second printed quantity as well
    figures = {k: v for k, v in metrics.items() if k.startswith("figures.")}
    assert sum(v is not None for v in figures.values()) == 229 + 49
    # 206 gated numbers in the other five suites; AIFM's allocation
    # failures gate their status only
    assert sum(v is not None for v in metrics.values()) == 206 + 229 + 49
    assert sorted(k for k, v in metrics.items() if v is None) == [
        "figures.fig18.aifm@0.2", "figures.fig18.aifm@0.4",
        "figures.fig19.aifm.array_sum", "figures.fig20.aifm.array_sum",
        "hybrid.array_sum.aifm", "hybrid.gpt2.aifm", "hybrid.mcf.aifm",
    ]
    # the Fig. 5 single-point virtual times
    assert metrics["engine.native.virtual_ns"] == 4284029.0
    assert metrics["engine.fastswap@0.2.virtual_ns"] == 68452124.90625
    assert metrics["engine.mira@0.2.virtual_ns"] == 5559857.8203125
    # chaos cells flattened with the full coordinate in the key
    chaos_keys = [k for k in metrics if k.startswith("chaos.")]
    assert len(chaos_keys) == 80
    assert all(
        k.endswith(".healthy_ns") or k.endswith(".faulty_ns")
        for k in chaos_keys
    )
    assert _committed("chaos")["summary"]["violations"] == []


def test_flatten_committed_prefetch_baseline():
    metrics = flatten(_committed("prefetch"))
    # every policy appears for the headline oblivious workload
    for policy in ("none", "leap", "markov", "programmed", "learned"):
        assert f"prefetch.dataframe.{policy}.stall_ns" in metrics
    # the acceptance comparison is visible straight from the baseline
    assert (
        metrics["prefetch.dataframe.programmed.stall_ns"]
        < 0.75 * metrics["prefetch.dataframe.leap.stall_ns"]
    )


def test_flatten_committed_trace_baseline():
    doc = _committed("trace")
    metrics = flatten(doc)
    # the full matrix: 8 scenarios x 7 systems, every cell gated once
    assert len(metrics) == 56
    for system in ("fastswap", "leap", "aifm", "mira-set", "hybrid"):
        assert f"trace.zipf_hot.{system}.elapsed_ns" in metrics
    assert set(doc["summary"]["winners"]) == set(doc["config"]["scenarios"])
    # at least one scenario demonstrates a mid-run switch of the hybrid
    assert doc["summary"]["midrun_switches"]


def test_flatten_committed_hybrid_baseline():
    doc = _committed("hybrid")
    metrics = flatten(doc)
    assert len(metrics) == 20  # 5 workloads x 4 systems
    for system in ("fastswap", "mira", "hybrid"):
        assert f"hybrid.graph_traversal.{system}.elapsed_ns" in metrics
    # the acceptance criterion is visible straight from the baseline:
    # hybrid matches or beats the better of fastswap/aifm per workload
    assert len(doc["summary"]["acceptance"]) == 5
    for workload, acc in doc["summary"]["acceptance"].items():
        assert acc["hybrid_wins"], workload
    assert doc["summary"]["violations"] == []


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_round_trip(name, tmp_path):
    """Registry -> document -> file -> flat metrics, for every real suite
    (fed the committed records instead of re-running them): the committed
    file holds exactly the registry's cells and metrics, and what the
    writer writes is what the gate reads."""
    committed = _committed(name)
    records = {c["key"]: c["detail"] for c in committed["cells"]}
    assert tuple(records) == SUITES[name].keys
    assert set(SUITES[name].live) <= set(records)
    canned = dataclasses.replace(SUITES[name], measure=records.__getitem__)
    doc = suites.measure(canned)
    assert set(doc) == {
        "generated", "host", "wall_s", "suite", "config", "cells", "summary",
    }
    assert doc["summary"] == committed["summary"]
    for cell in doc["cells"]:
        assert cell["wall_s"] >= 0
        if not cell.get("failed"):
            assert tuple(cell["gated"]) == SUITES[name].gated(cell["key"])
    path = suites.write(doc, tmp_path)
    assert path == tmp_path / f"BENCH_{name}.json"
    (loaded,) = regress.load(tmp_path, [name])
    assert flatten(loaded) == flatten(committed)
    assert all(k.startswith(name + ".") for k in flatten(loaded))


def test_flatten_skips_incomplete_cells():
    doc = {
        "suite": "x",
        "cells": [
            {"key": "a", "failed": True, "error": "boom", "detail": {}},
            {"key": "b", "gated": {"m_ns": 3, "n_ns": 4.0}, "detail": {}},
        ],
    }
    # a failed cell gates its status and contributes no number
    assert flatten(doc) == {"x.a": None, "x.b.m_ns": 3.0, "x.b.n_ns": 4.0}
    with pytest.raises(KeyError):
        flatten({})


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


def test_compare_only_overlapping_metrics():
    # baseline cells the current side did not measure are not compared
    checks = compare({"a_ns": 1.0, "b_ns": 2.0}, {"b_ns": 2.0})
    assert [c.metric for c in checks] == ["b_ns"]
    assert gate(checks)


def test_compare_fails_on_metric_without_baseline():
    checks = compare({"a_ns": 1.0}, {"a_ns": 1.0, "b_ns": 2.0})
    assert not gate(checks)
    (bad,) = [c for c in checks if not c.ok]
    assert bad.metric == "b_ns" and "no baseline" in bad.note


def test_compare_fails_on_failed_status_flip():
    ran, failed = {"s.c.elapsed_ns": 5.0}, {"s.c": None}
    # ok -> failed used to read as a -100% "improvement"
    (check,) = compare(ran, failed)
    assert not check.ok and "failed" in check.note
    # failed -> ok used to be compared against a 0.0 baseline
    (check,) = compare(failed, ran)
    assert not check.ok and "failed in the baseline" in check.note
    # failed on both sides is the expected state of that cell
    assert gate(compare(failed, failed))


def test_zero_baseline_is_not_a_free_pass():
    assert not gate(compare({"x_ns": 0.0}, {"x_ns": 7.0}))
    assert gate(compare({"x_ns": 0.0}, {"x_ns": 0.0}))


def test_check_row_roundtrip():
    c = Check("m", 1.0, 2.0, 1.0, 0.01, False, "bad")
    assert c.row()["metric"] == "m" and c.row()["ok"] is False


# -- CLI / exit codes ----------------------------------------------------------


def _flat_current(tmp_path, scale=1.0):
    metrics = _committed_flat()
    if scale != 1.0:
        metrics = {k: v and v * scale for k, v in metrics.items()}
    p = tmp_path / "current.json"
    p.write_text(json.dumps({"metrics": metrics}))
    return p


def _baseline_copy(tmp_path, edit=None) -> pathlib.Path:
    """The committed files copied to ``tmp_path/base``; ``edit(name, doc)``
    may mutate each document on the way."""
    base = tmp_path / "base"
    base.mkdir()
    for name in SUITES:
        doc = _committed(name)
        if edit is not None:
            edit(name, doc)
        suites.write(doc, base)
    return base


def test_gate_passes_on_baseline_identical_current(tmp_path, capsys):
    cur = _flat_current(tmp_path)
    rc = regress.main(["--baseline-dir", str(REPO), "--current", str(cur)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "regress: OK" in out


def test_gate_passes_on_directory_of_bench_files(capsys):
    # what CI does with the directory `python -m repro.bench --out-dir` wrote
    rc = regress.main(["--baseline-dir", str(REPO), "--current", str(REPO)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count(" ok") >= 206


def test_gate_fails_on_slowed_virtual_time(tmp_path, capsys):
    cur = _flat_current(tmp_path, scale=1.5)
    rc = regress.main(["--baseline-dir", str(REPO), "--current", str(cur)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "regress: FAIL" in out
    assert "FAIL" in out


def test_gate_fails_when_a_gated_cell_has_no_baseline(tmp_path, capsys):
    def drop_one(name, doc):
        doc["cells"] = [c for c in doc["cells"] if c["key"] != "zipf_hot.leap"]

    base = _baseline_copy(tmp_path, drop_one)
    cur = _flat_current(tmp_path)
    rc = regress.main(["--baseline-dir", str(base), "--current", str(cur)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "no baseline" in out and "trace.zipf_hot.leap.elapsed_ns" in out


@pytest.mark.parametrize("side", ["baseline", "current"])
def test_gate_fails_on_failed_status_flip(side, tmp_path, capsys):
    def fail_one(name, doc):
        for cell in doc["cells"]:
            if name == "hybrid" and cell["key"] == "graph_traversal.fastswap":
                del cell["gated"]
                cell.update(failed=True, error="boom")

    edited = _baseline_copy(tmp_path, fail_one)
    base, cur = (edited, REPO) if side == "baseline" else (REPO, edited)
    rc = regress.main(["--baseline-dir", str(base), "--current", str(cur)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "hybrid.graph_traversal.fastswap" in out


def test_gate_fails_on_violation_in_current_summary(tmp_path, capsys):
    def violate(name, doc):
        if "violations" in doc["summary"]:
            doc["summary"]["violations"].append(f"{name}: bound exceeded")

    cur = _baseline_copy(tmp_path, violate)
    rc = regress.main(["--baseline-dir", str(REPO), "--current", str(cur)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "violation: chaos: bound exceeded" in out


def test_gate_exit_2_on_unreadable_baseline(tmp_path, capsys):
    rc = regress.main(["--baseline-dir", str(tmp_path / "nope")])
    assert rc == 2
    assert "cannot load baselines" in capsys.readouterr().out


def test_gate_exit_2_on_unreadable_current(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = regress.main(["--baseline-dir", str(REPO), "--current", str(bad)])
    assert rc == 2
    assert "cannot load --current" in capsys.readouterr().out


def test_gate_json_report_and_save_current(tmp_path):
    cur = _flat_current(tmp_path)
    out = tmp_path / "report.json"
    saved = tmp_path / "saved.json"
    rc = regress.main(
        ["--baseline-dir", str(REPO), "--current", str(cur),
         "--json", str(out), "--save-current", str(saved)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["checks"] and doc["violations"] == []
    assert json.loads(saved.read_text()) == json.loads(cur.read_text())


def test_report_check_delegates_to_regress(tmp_path, capsys):
    from repro.obs import report

    cur = _flat_current(tmp_path)
    rc = report.main(
        ["--check", "--baseline-dir", str(REPO), "--current", str(cur)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "perf-regression gate" in out


def test_report_check_baseline_dir_reaches_every_suite(tmp_path, capsys):
    """``--baseline-dir`` used to redirect two of the five files; a
    doctored trace baseline in the directory went unread."""
    from repro.obs import report

    def halve_one(name, doc):
        for cell in doc["cells"]:
            if name == "trace" and cell["key"] == "seq_scan.aifm":
                cell["gated"]["elapsed_ns"] *= 0.5

    base = _baseline_copy(tmp_path, halve_one)
    cur = _flat_current(tmp_path)
    rc = report.main(["--check", "--baseline-dir", str(base), "--current", str(cur)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "trace.seq_scan.aifm.elapsed_ns" in out and "regressed +100.0%" in out


# -- a suite the gate has never heard of ---------------------------------------


def _fake_suite(values: dict) -> Suite:
    def measure(key):
        if values[key] is None:
            return {"failed": True, "error": "no room"}
        return {"t_ns": values[key], "ignored": "x"}

    return Suite(
        "fake",
        keys=("a", "b"),
        live=("a",),
        measure=measure,
        metrics=("t_ns",),
        config=lambda: {"knob": 1},
        summary=lambda records: {
            "violations": [f"{r['t_ns']} ns is too slow" for r in records
                           if r.get("t_ns", 0) > 1e6],
        },
    )


def test_registered_suite_write_gate_ok_fail_and_exit_2(
    tmp_path, capsys, monkeypatch
):
    """Adding a suite is one registry entry: the writer and the gate
    handle it with no code of their own."""
    values = {"a": 100.0, "b": None}
    monkeypatch.setitem(SUITES, "fake", _fake_suite(values))

    assert bench_cli.main(["fake", "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert doc["suite"] == "fake" and doc["config"] == {"knob": 1}
    # host seconds per cell: written for sizing, never flattened or compared
    assert all(cell.pop("wall_s") >= 0 for cell in doc["cells"])
    assert doc["cells"] == [
        {"key": "a", "gated": {"t_ns": 100.0},
         "detail": {"t_ns": 100.0, "ignored": "x"}},
        {"key": "b", "failed": True, "error": "no room",
         "detail": {"failed": True, "error": "no room"}},
    ]
    capsys.readouterr()

    gate_argv = ["fake", "--baseline-dir", str(tmp_path)]
    assert regress.main(gate_argv) == 0  # re-measures the live cell "a"
    out = capsys.readouterr().out
    assert "fake.a.t_ns" in out and "fake.b" not in out

    values["a"] = 103.0
    assert regress.main(gate_argv) == 1
    assert "regressed +3.0%" in capsys.readouterr().out

    # the full matrix, as CI gates it: b starts working -> status flip
    values.update(a=100.0, b=5.0)
    fresh = tmp_path / "fresh"
    assert bench_cli.main(["fake", "--out-dir", str(fresh)]) == 0
    assert regress.main(gate_argv + ["--current", str(fresh)]) == 1
    assert "failed in the baseline" in capsys.readouterr().out

    # a violation in the summary fails the writer and the gate
    values.update(a=100.0, b=None)
    values["a"] = 2e6
    assert bench_cli.main(["fake", "--out-dir", str(fresh)]) == 1
    values["a"] = 100.0

    (tmp_path / "BENCH_fake.json").write_text("{not json")
    assert regress.main(gate_argv) == 2
    with pytest.raises(SystemExit) as exc:
        regress.main(["no-such-suite"])
    assert exc.value.code == 2


def test_writer_default_directory_is_where_the_baselines_are(
    tmp_path, monkeypatch
):
    # --out-dir is the only way to write anywhere else
    monkeypatch.setitem(SUITES, "fake", _fake_suite({"a": 1.0, "b": 2.0}))
    (tmp_path / "BENCH_other.json").write_text("{}")
    sub = tmp_path / "sub" / "dir"
    sub.mkdir(parents=True)
    monkeypatch.chdir(sub)
    assert suites.baseline_dir() == tmp_path
    assert bench_cli.main(["fake"]) == 0
    assert (tmp_path / "BENCH_fake.json").exists()


# -- the environment pin -------------------------------------------------------


def test_pinned_env_restores_values_on_error(monkeypatch):
    """``_pinned_env`` pins knobs off for the body and restores the exact
    prior environment even when the body raises."""
    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)
    with pytest.raises(RuntimeError):
        with suites._pinned_env("REPRO_ENGINE", "REPRO_PREFETCH"):
            assert "REPRO_ENGINE" not in os.environ
            assert "REPRO_PREFETCH" not in os.environ
            raise RuntimeError("boom")
    assert os.environ["REPRO_ENGINE"] == "codegen"
    assert "REPRO_PREFETCH" not in os.environ


def test_measure_current_restores_env_on_error(monkeypatch):
    """A cell that blows up mid-``measure`` must leave ``os.environ``
    exactly as the caller had it (the whole loop runs under
    ``_pinned_env``)."""

    def boom(key):
        raise RuntimeError("boom")

    suite = dataclasses.replace(_fake_suite({}), measure=boom)
    monkeypatch.setenv("REPRO_PREFETCH", "markov")
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    before = dict(os.environ)
    with pytest.raises(RuntimeError):
        suites.measure(suite)
    assert dict(os.environ) == before


def test_measure_current_pins_ambient_knobs(monkeypatch):
    """An ambient ``$REPRO_PREFETCH``/``$REPRO_ENGINE`` must not leak
    into the measured cells -- of the writer or of the gate, which share
    ``measure``: baselines are measured with them unset."""
    seen = {}

    def spy(key):
        seen["engine"] = os.environ.get("REPRO_ENGINE")
        seen["prefetch"] = os.environ.get("REPRO_PREFETCH")
        return {"t_ns": 1.0}

    monkeypatch.setitem(
        SUITES, "fake", dataclasses.replace(_fake_suite({}), measure=spy)
    )
    monkeypatch.setenv("REPRO_PREFETCH", "markov")
    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    regress.measure(["fake"])
    assert seen == {"engine": None, "prefetch": None}
    assert os.environ["REPRO_PREFETCH"] == "markov"
    assert os.environ["REPRO_ENGINE"] == "codegen"


# -- live deterministic cells --------------------------------------------------


def test_measured_chaos_cell_matches_committed_baseline():
    """The simulator is deterministic: re-measuring baseline cells of
    every suite reproduces the committed virtual times exactly."""
    baseline = _committed_flat()
    picks = {
        "chaos": ["array_sum.fastswap.s1.medium"],
        "engine": ["fastswap@0.2"],
        "prefetch": [f"array_sum.{p}" for p in ("none", "leap", "programmed")],
        "trace": ["zipf_hot.fastswap", "zipf_hot.mira-set", "zipf_hot.hybrid"],
        "hybrid": [
            f"graph_traversal.{s}" for s in ("fastswap", "aifm", "mira", "hybrid")
        ],
        "figures": ["fig05.fastswap@0.2"],
    }
    assert set(picks) == set(SUITES)
    for name, keys in picks.items():
        current = flatten(suites.measure(SUITES[name], keys))
        assert len(current) == sum(len(SUITES[name].gated(key)) for key in keys)
        for key, value in current.items():
            assert value == baseline[key], key
