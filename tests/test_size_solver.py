"""Section-size ILP solver tests (paper section 4.3)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.size_solver import (
    SizeSample,
    candidate_sizes,
    solve_sizes,
    solve_sizes_bruteforce,
)
from repro.errors import SolverError


def _curve(points):
    return [SizeSample(s, o) for s, o in points]


def test_single_section_picks_min_overhead():
    curves = {"a": _curve([(100, 50.0), (200, 10.0), (400, 5.0)])}
    assert solve_sizes(curves, budget_bytes=500) == {"a": 400}


def test_budget_forces_tradeoff():
    curves = {
        "a": _curve([(100, 100.0), (300, 10.0)]),
        "b": _curve([(100, 50.0), (300, 40.0)]),
    }
    # both at 300 does not fit a 400-byte budget; 'a' gains more from
    # being large, so the solver gives it the 300
    assert solve_sizes(curves, budget_bytes=400) == {"a": 300, "b": 100}


def test_infeasible_raises():
    curves = {"a": _curve([(500, 1.0)])}
    with pytest.raises(SolverError):
        solve_sizes(curves, budget_bytes=100)


def test_empty_input():
    assert solve_sizes({}, budget_bytes=100) == {}


def test_section_with_no_samples_rejected():
    with pytest.raises(SolverError):
        solve_sizes({"a": []}, budget_bytes=100)


def test_live_groups_relax_constraint():
    """Sections that never live at the same time may each take the whole
    budget (the GPT-2 layer-lifetime effect)."""
    curves = {
        "a": _curve([(100, 100.0), (400, 1.0)]),
        "b": _curve([(100, 100.0), (400, 1.0)]),
    }
    # concurrent: 400+400 exceeds the 520 budget, so one section stays
    # small; disjoint lifetimes let both be large
    concurrent = solve_sizes(curves, 520, live_groups=[{"a", "b"}])
    assert sorted(concurrent.values()) == [100, 400]
    disjoint = solve_sizes(curves, 520, live_groups=[{"a"}, {"b"}])
    assert disjoint == {"a": 400, "b": 400}


def test_matches_paper_story_most_memory_to_random_section():
    """Fig. 12: the sequential section is happy when small; the
    indirectly-accessed section gets most of the memory."""
    curves = {
        "seq": _curve([(64, 5.0), (512, 5.0), (4096, 5.0)]),
        "rand": _curve([(1024, 900.0), (4096, 300.0), (8192, 50.0)]),
    }
    chosen = solve_sizes(curves, budget_bytes=8192 + 64)
    assert chosen["seq"] == 64
    assert chosen["rand"] == 8192


@settings(max_examples=40, deadline=None)
@given(
    data=st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=1000),
                st.floats(min_value=0.0, max_value=1e6),
            ),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=3,
    ),
    budget=st.integers(min_value=1, max_value=3000),
)
# a cost 6e-8 above the optimum lies inside HiGHS's absolute gap unless
# the solver rescales the costs
@example(
    data={"a": [(1, 0.0)], "b": [(1, 5.960464477539063e-08), (2, 0.0), (3, 1.0)]},
    budget=4,
)
def test_property_milp_matches_bruteforce(data, budget):
    # a drawn curve may repeat a size with different overheads, which
    # makes the cost lookup below ambiguous (it matches by size); keep
    # only the cheapest sample per size -- the one any solver would pick
    deduped = {}
    for k, v in data.items():
        best: dict[int, float] = {}
        for size, overhead in v:
            best[size] = min(overhead, best.get(size, overhead))
        deduped[k] = sorted(best.items())
    curves = {k: _curve(v) for k, v in deduped.items()}
    try:
        brute = solve_sizes_bruteforce(curves, budget)
    except SolverError:
        with pytest.raises(SolverError):
            _ = solve_sizes_bruteforce(curves, budget)
        return
    milp = solve_sizes(curves, budget)
    cost_of = lambda pick: sum(
        next(s.overhead_ns for s in curves[n] if s.size_bytes == sz)
        for n, sz in pick.items()
    )
    assert cost_of(milp) == pytest.approx(cost_of(brute))
    assert sum(milp.values()) <= budget


def test_candidate_sizes_streaming_small():
    sizes = candidate_sizes(1 << 20, 2048, streaming=True, object_bytes=1 << 20)
    assert max(sizes) <= 2048 * 64
    assert all(s >= 2048 for s in sizes)


def test_candidate_sizes_capped_at_object():
    sizes = candidate_sizes(1 << 20, 64, streaming=False, object_bytes=10_000)
    assert max(sizes) <= 10_048  # object size rounded up to the line
