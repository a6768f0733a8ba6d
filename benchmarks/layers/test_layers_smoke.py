"""Smoke test of the layered benchmark (``--quick`` mode, ~1 minute).

Outside the tier-1 ``testpaths``; run it explicitly::

    python -m pytest benchmarks/layers/test_layers_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SUMMARY_KEYS = {"median", "q1", "q3", "min", "max", "n"}

#: workloads whose simulated statistics (and digest) are the same for
#: every seed at --quick sizes: every event of the chase misses whatever
#: the order of pages, and the scan's seed only picks which accesses write
#: (nearly every page ends up dirty either way)
SEED_BLIND = {"trace_chase_fastswap", "trace_scan_leap"}


def run(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """Quick results: seed 0 twice, seed 1 once."""
    tmp = tmp_path_factory.mktemp("layers")
    out = {}
    for tag, seed in (("a", 0), ("b", 0), ("other", 1)):
        path = tmp / f"{tag}.json"
        run("--quick", "--seed", str(seed), "--out", str(path))
        out[tag] = json.loads(path.read_text())
    return out


def test_spec_schema(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_result_schema(spec, quick):
    result = quick["a"]
    assert result["schema"] == "benchmarks.layers/1"
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in result["workloads"].items():
        e2e = entry["end_to_end"]
        assert set(e2e["metrics"]) == {m["name"] for m in spec["end_to_end"]}, name
        for metric, s in e2e["metrics"].items():
            assert set(s) == SUMMARY_KEYS, (name, metric)
            assert s["median"] > 0, (name, metric)
        assert e2e["attempted"] >= 1 and e2e["failed"] == 0, e2e["problems"]
        assert e2e["spans"] and all(
            {"name", "start", "end", "parent", "repeat"} == set(s)
            for s in e2e["spans"]
        )


def test_digest_is_seed_determined(quick):
    def digests(result):
        return {w: e["end_to_end"]["sim_digest"] for w, e in result["workloads"].items()}

    a, b, other = (digests(quick[k]) for k in ("a", "b", "other"))
    assert a == b
    for workload in set(a) - SEED_BLIND:
        assert a[workload] != other[workload], workload


def test_contract_line(spec):
    proc = run("--quick", "--workload", "trace_zipf_sections", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
