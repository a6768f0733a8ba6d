"""Virtual clock unit tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MiraError
from repro.memsim.clock import VirtualClock


def test_starts_at_zero():
    assert VirtualClock().now == 0.0


def test_advance_accumulates():
    c = VirtualClock()
    c.advance(10.0, "compute")
    c.advance(5.0, "dram")
    assert c.now == 15.0
    assert c.breakdown() == {"compute": 10.0, "dram": 5.0}


def test_advance_negative_rejected():
    with pytest.raises(MiraError):
        VirtualClock().advance(-1.0)


def test_wait_until_future():
    c = VirtualClock()
    c.advance(10.0)
    c.wait_until(25.0, "miss_wait")
    assert c.now == 25.0
    assert c.category("miss_wait") == 15.0


def test_wait_until_past_is_noop():
    c = VirtualClock()
    c.advance(10.0)
    c.wait_until(5.0)
    assert c.now == 10.0


def test_category_missing_is_zero():
    assert VirtualClock().category("nope") == 0.0


def test_reset():
    c = VirtualClock()
    c.advance(10.0, "x")
    c.reset()
    assert c.now == 0.0
    assert c.breakdown() == {}


def test_fork_starts_at_parent_time_with_empty_breakdown():
    c = VirtualClock()
    c.advance(100.0, "compute")
    f = c.fork()
    assert f.now == 100.0
    assert f.breakdown() == {}


def test_join_takes_max_and_merges():
    c = VirtualClock()
    c.advance(100.0, "compute")
    f1, f2 = c.fork(), c.fork()
    f1.advance(50.0, "dram")
    f2.advance(80.0, "dram")
    c.join(f1)
    c.join(f2)
    assert c.now == 180.0
    assert c.category("dram") == 130.0


def test_join_earlier_clock_keeps_time():
    c = VirtualClock()
    c.advance(100.0)
    f = c.fork()
    c.advance(500.0)
    c.join(f)
    assert c.now == 600.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e9), max_size=50))
def test_advance_monotone(durations):
    c = VirtualClock()
    prev = 0.0
    for d in durations:
        c.advance(d)
        assert c.now >= prev
        prev = c.now
    assert c.now == pytest.approx(sum(durations))


#: durations on the 2**-10 ns time grid (DESIGN.md section 4), up to 16 us
#: (non-zero: a buffered zero charge never creates its breakdown key)
_grid_ns = st.integers(1, 1 << 24).map(lambda k: k / 1024)
_run = st.tuples(
    st.sampled_from(["compute", "dram", "hit_overhead"]), _grid_ns, st.integers(1, 300)
)


@given(
    start=st.integers(0, 1 << 50).map(lambda k: k / 1024),  # up to 2**40 ns
    runs=st.lists(_run, max_size=25),
    rng=st.randoms(use_true_random=False),
)
def test_on_grid_charges_regroup_exactly(start, runs, rng):
    """The property every bulk path rests on: ``n`` charges of an on-grid
    ``c``, regrouped into any ``k * c`` steps through any mix of
    ``charge`` and ``advance``, leave the clock and the breakdown equal to
    the one-by-one clock -- young clock or old, across powers of two."""
    one_by_one, regrouped = VirtualClock(), VirtualClock()
    one_by_one.advance(start, "other")
    regrouped.advance(start, "other")
    for category, c, n in runs:
        for _ in range(n):
            one_by_one.advance(c, category)
        while n:
            k = rng.randint(1, n)
            n -= k
            entry = rng.choice([regrouped.charge, regrouped.advance])
            entry(k * c, category)
    assert regrouped.now == one_by_one.now
    assert regrouped.breakdown() == one_by_one.breakdown()
    assert sum(one_by_one.breakdown().values()) == one_by_one.now


@pytest.mark.parametrize("op", ["advance", "charge", "wait_until"])
def test_nan_time_rejected(op):
    """``nan < 0`` is false: an ``if ns < 0`` guard lets NaN through, and a
    NaN clock makes every later ``ready_at > now`` false."""
    c = VirtualClock()
    c.advance(10.0, "compute")
    with pytest.raises(MiraError):
        getattr(c, op)(float("nan"))
    assert c.now == 10.0
    assert c.breakdown() == {"compute": 10.0}


def test_charge_negative_rejected():
    with pytest.raises(MiraError):
        VirtualClock().charge(-1.0)


@pytest.mark.parametrize(
    "op, first", [("advance", 7), ("advance", -0.0), ("advance", 0), ("charge", 7)]
)
def test_first_charge_of_a_category_stores_a_float(op, first):
    """Cost constants reach the clock as ints (and ``-0.0``); the
    breakdown goes into canonical JSON, where ``7`` and ``7.0``, ``-0.0``
    and ``0.0`` are different bytes.  Both charging paths must store what
    a ``0.0``-seeded sum holds."""
    c = VirtualClock()
    getattr(c, op)(first, "x")
    stored = c.breakdown()["x"]
    assert type(stored) is float
    assert repr(stored) == repr(0.0 + first)
    c.advance(3, "x")
    assert type(c.breakdown()["x"]) is float
