"""Tier-1 chaos smoke: the paper workloads survive injected faults.

The full matrix is the ``chaos`` suite of ``repro.bench.suites``; here a small
slice keeps the robustness property under continuous test: every run
under a seeded fault plan completes with verified results, the slowdown
stays bounded, the reliability layer is visibly doing work, and the
whole ordeal is deterministic.
"""

import pytest

from repro.faults import FaultPlan
from repro.faults.chaos import (
    CHAOS_WORKLOADS,
    run_chaos_matrix,
    run_chaos_point,
)

#: the high-traffic workload used for single-point assertions (thousands
#: of network messages, so probabilistic faults reliably land)
BUSY = "graph_traversal"


def _plan(**overrides):
    return FaultPlan.generate(1, intensity="medium", horizon_ns=2e7, **overrides)


def test_small_matrix_completes_within_bound():
    points, violations = run_chaos_matrix(
        workloads=[BUSY, "mcf"],
        systems=("fastswap", "mira"),
        plans=[_plan()],
    )
    assert violations == []
    assert len(points) == 4
    for p in points:
        assert p.completed
        assert 1.0 - 1e-9 <= p.slowdown


def test_faults_visibly_injected():
    point = run_chaos_point(BUSY, "fastswap", _plan())
    assert point.faults["retries"] > 0
    assert point.slowdown > 1.0


def test_chaos_point_is_deterministic():
    a = run_chaos_point(BUSY, "mira", _plan(), trace=True)
    b = run_chaos_point(BUSY, "mira", _plan(), trace=True)
    assert a.faulty_ns == b.faulty_ns
    assert a.faults == b.faults
    assert a.trace_digest == b.trace_digest


def test_different_seeds_differ():
    a = run_chaos_point(BUSY, "fastswap", FaultPlan.generate(1, horizon_ns=2e7))
    b = run_chaos_point(BUSY, "fastswap", FaultPlan.generate(2, horizon_ns=2e7))
    assert a.faults != b.faults or a.faulty_ns != b.faulty_ns


@pytest.mark.slow
def test_all_five_workloads_survive_medium_chaos():
    points, violations = run_chaos_matrix(
        workloads=sorted(CHAOS_WORKLOADS),
        systems=("fastswap", "mira"),
        plans=[_plan(), FaultPlan.generate(2, intensity="light", horizon_ns=2e7)],
    )
    assert violations == []
    assert len(points) == len(CHAOS_WORKLOADS) * 2 * 2
