"""Golden pins for the trace corpus: generator digests + benchmark cells.

Two layers of freeze:

* **Stream digests** -- SHA-256 over each pinned scenario's raw address
  stream.  These fingerprint the generators alone; a drift here means
  the synthetic workloads themselves changed (a seeded-RNG or algorithm
  change), which silently invalidates every committed BENCH_trace
  baseline and every cross-run comparison.
* **Benchmark cells** -- exact virtual times for a handful of
  (scenario, system) cells spanning the sweep.  These fingerprint the
  replay datapath end to end (region mapping, per-op charges, the
  systems themselves).  ``repro.obs.regress`` gates the full matrix
  against ``BENCH_trace.json`` at 1%; these in-tree pins catch drift
  with no baseline file in sight.

If a change is *intentional*, update the constants here and regenerate
``BENCH_trace.json`` (``PYTHONPATH=src python -m repro.bench trace``) in
the same commit.
"""

import pytest

from repro.bench.tracebench import RATIO, SYSTEMS, measure_cell
from repro.workloads.trace import SCENARIOS, ops_digest

GOLDEN_DIGESTS = {
    "chase_large": "d361d9c06fa9b2ed79e996ab4c7beebf0931f7dcc8085a4f7dfc486b111d8efe",
    "chase_small": "9003e9e9c03cf80cb42f51b371704436b17a6dcdf9211ec5de40cba25c33896a",
    "mixed_rw": "38a20c119d512f8be6a2a414eafc77b85bfca19fdb3896d3ef0699bf90c5c051",
    "mixed_shift": "81e78d84188493d82c227ba28d922091102e6605e22cca2fc38d3cdab506fae2",
    "seq_scan": "0e6a1da7da815c7d9a55893fc6adb44f162e31e30cecd61ed40f75618d7f3522",
    "seq_stride64": "465b050a7103803288b70e51fcc733b6d2df588b95b8ce7d516708fdaf478798",
    "zipf_cold": "74d8855c70db95344ed26f1c8beca23a64e07dcd5a59dd3410a14a3e0e8e107d",
    "zipf_hot": "da64243de75ac2ac6f4087c2ff490cc8f24c04f9fa32057cd7e22f37d4d8c859",
}

#: exact virtual times for four cells spanning the benchmark matrix
#: (a swap baseline, a Mira geometry, the object runtime, the prefetcher)
GOLDEN_CELLS = {
    ("zipf_hot", "fastswap"): 16016164.478515625,
    ("zipf_hot", "mira-set"): 13231119.325195312,
    ("chase_small", "aifm"): 9537242.875,
    ("seq_scan", "leap"): 2086905.8828125,
}

GOLDEN_FOOTPRINTS = {
    "chase_large": 4194304,
    "chase_small": 524288,
    "mixed_rw": 524288,
    "mixed_shift": 2359296,
    "seq_scan": 1048576,
    "seq_stride64": 2097152,
    "zipf_cold": 1048576,
    "zipf_hot": 1048576,
}


def test_corpus_matches_golden_set():
    assert set(SCENARIOS) == set(GOLDEN_DIGESTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_scenario_digest_pinned(name):
    assert SCENARIOS[name].digest() == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FOOTPRINTS))
def test_scenario_footprint_pinned(name):
    assert SCENARIOS[name].footprint_bytes == GOLDEN_FOOTPRINTS[name]


def test_spec_digest_agrees_with_ops_digest():
    spec = SCENARIOS["zipf_hot"]
    assert spec.digest() == ops_digest(spec.ops())


@pytest.mark.parametrize("cell", sorted(GOLDEN_CELLS))
def test_benchmark_cell_virtual_time_pinned(cell):
    scenario, system = cell
    measured = measure_cell(scenario, system)
    assert measured["elapsed_ns"] == GOLDEN_CELLS[cell]
    assert measured["num_ops"] == 20_000
    assert measured["ratio"] == RATIO


def test_benchmark_matrix_shape():
    # the acceptance floor: >= 8 scenarios x >= 3 systems
    assert len(SCENARIOS) >= 8
    assert len(SYSTEMS) >= 3
