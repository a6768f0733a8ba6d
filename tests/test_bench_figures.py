"""Tests for the ``figures`` suite (:mod:`repro.bench.figures`): the
paper's evaluation as registry cells, its shape checks as named
violations, and ``benchmarks/results/*.txt`` as a rendering of
``BENCH_figures.json``.  Everything here reads the committed records
except two single cheap cells that are re-measured."""

import copy
import dataclasses
import pathlib

from repro.bench import __main__ as bench_cli
from repro.bench import figures, suites
from repro.bench.suites import SUITES
from repro.obs import regress

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"


def _committed_records() -> dict[str, dict]:
    doc = regress.load_json(suites.bench_path(REPO, "figures"))
    return {c["key"]: c["detail"] for c in doc["cells"]}


def _canned(monkeypatch, records: dict[str, dict]) -> None:
    """The registered suite, fed ``records`` instead of running anything."""
    monkeypatch.setitem(
        SUITES,
        "figures",
        dataclasses.replace(SUITES["figures"], measure=records.__getitem__),
    )


def test_every_key_is_exactly_one_table_position():
    positions = [
        (fig.name, row, col)
        for fig in figures.FIGURES
        for row in fig.rows
        for col in fig.cols
    ]
    assert len(figures.KEYS) == len(set(figures.KEYS)) == len(positions)
    for key, (name, row, col) in zip(figures.KEYS, positions):
        fig, key_col, key_row = figures._CELLS[key]
        assert (fig.name, key_row, key_col) == (name, row, col)
        assert key.startswith(name + ".")
    # the gate's live subset is one cell of each figure
    assert len(figures.LIVE) == len(figures.FIGURES)
    assert [k.split(".")[0] for k in figures.LIVE] == [
        fig.name for fig in figures.FIGURES
    ]
    assert set(figures.LIVE) <= set(figures.KEYS)


def test_committed_tables_are_the_committed_records_rendered():
    doc = regress.load_json(suites.bench_path(REPO, "figures"))
    rendered = figures.tables(doc)
    assert set(rendered) == {p.stem for p in RESULTS.glob("*.txt")}
    assert len(rendered) == 22
    for stem, text in rendered.items():
        assert (RESULTS / f"{stem}.txt").read_text() == text + "\n", stem
    # a document holding a figure only in part (the live subset) renders
    # none of it
    doc["cells"] = [c for c in doc["cells"] if c["key"] in figures.LIVE]
    assert figures.tables(doc) == {}


def test_committed_records_hold_every_check():
    summary = figures.summary(list(_committed_records().values()))
    # every check ran and none fired; the one skipped compares Fig. 19's
    # AIFM array_sum point, which cannot run
    assert summary["checks"] == sum(len(fig.checks) for fig in figures.FIGURES) - 1
    assert summary["violations"] == []
    # a lone live cell has nothing to be checked against
    lone = figures.summary([_committed_records()["fig05.fastswap@0.2"]])
    assert lone["checks"] == 0 and lone["violations"] == []


def test_doctored_records_fail_the_writer_with_named_violations(
    tmp_path, monkeypatch, capsys
):
    records = _committed_records()
    _canned(monkeypatch, records)
    assert bench_cli.main(["figures", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "slowest cells:" in out and "wrote 22 tables" in out
    for path in RESULTS.glob("*.txt"):
        written = tmp_path / "benchmarks" / "results" / path.name
        assert written.read_text() == path.read_text()

    doctored = copy.deepcopy(records)
    # Mira and FastSwap trade places at Fig. 5 @20 %
    mira, fast = doctored["fig05.mira@0.2"], doctored["fig05.fastswap@0.2"]
    mira["elapsed_ns"], fast["elapsed_ns"] = fast["elapsed_ns"], mira["elapsed_ns"]
    # AIFM runs MCF at 20 % local memory
    doctored["fig18.aifm@0.2"] = {
        **doctored["fig18.aifm@1.0"], "cell": "fig18.aifm@0.2",
    }
    # and the compile takes minutes
    doctored["scope.mcf"]["compile_wall_s"] = 121.0
    _canned(monkeypatch, doctored)
    assert bench_cli.main(["figures", "--out-dir", str(tmp_path)]) == 1
    doc = regress.load_json(suites.bench_path(tmp_path, "figures"))
    assert doc["summary"]["violations"] == [
        "fig05: mira@0.2 > 5 x fastswap@0.2",
        "fig05: mira@0.2 > 0.6",
        "fig18: aifm@0.2 cannot run",
        "scope: mcf:compile_wall_s < 120",
    ]
    # the gate reads the same document: a status flip and two moved cells
    checks = regress.compare(
        regress.flatten(regress.load_json(suites.bench_path(REPO, "figures"))),
        regress.flatten(doc),
    )
    assert sorted(c.metric for c in checks if not c.ok) == [
        "figures.fig05.mira@0.2.elapsed_ns",
        "figures.fig18.aifm@0.2.elapsed_ns",
    ]


def test_doubled_round_trip_turns_a_live_cell_red(monkeypatch):
    key = "fig05.fastswap@0.2"
    assert key in figures.LIVE
    baseline = regress.flatten(regress.load_json(suites.bench_path(REPO, "figures")))
    slow = dataclasses.replace(figures.COST, net_rtt_ns=2 * figures.COST.net_rtt_ns)
    monkeypatch.setattr(figures, "COST", slow)
    current = regress.flatten(suites.measure(SUITES["figures"], [key]))
    (check,) = regress.compare(baseline, current)
    assert check.metric == f"figures.{key}.elapsed_ns"
    assert not check.ok and "regressed" in check.note


def test_a_crashing_cell_is_one_red_cell_and_a_violation(monkeypatch):
    key = "fig05.fastswap@0.2"
    fig, col, row = figures._CELLS[key]

    def boom(col, row):
        raise RuntimeError("boom")

    monkeypatch.setitem(
        figures._CELLS, key, (dataclasses.replace(fig, run=boom), col, row)
    )
    # AIFM running out of memory is an expected failure, not a crash
    doc = suites.measure(SUITES["figures"], [key, "fig18.aifm@0.2"])
    crashed, cannot_run = doc["cells"]
    assert crashed["failed"] and cannot_run["failed"]
    assert crashed["error"] == f"{key} crashed: RuntimeError('boom')"
    assert "exceeds local memory" in cannot_run["error"]
    assert doc["summary"]["violations"] == [crashed["error"]]
    assert doc["summary"]["cannot_run"] == ["fig18.aifm@0.2"]
    assert regress.flatten(doc) == {
        f"figures.{key}": None,
        "figures.fig18.aifm@0.2": None,
    }
