"""Differential test of ``CacheManager.stream_access`` against its oracle.

The contract (DESIGN.md section 4f): one ``stream_access`` call -- a
one-slot plan for the one fold loop, ``CacheManager.fold_chunk`` -- that
takes its stream leaves the system exactly where the per-element loop
(here in trace order, ``clock.advance(dram); clock.charge(cpu);
access(...)``) leaves an identically built twin -- clock, breakdown,
every counter, the resident lines and their recency order -- so any
per-op suffix then picks the same victims on both.  A call that returns
None has done nothing.
The swap path's half of the contract is in ``tests/test_swap_fold.py``,
the harness in ``tests/bulk_twins.py``, and the same loop's chunks are
held to the reference engine by ``tests/test_chunk_fold.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import SectionConfig, Structure
from repro.cache.hybrid import HybridConfig, HybridManager
from repro.cache.manager import CacheManager
from repro.faults import FaultPlan
from repro.memsim.cost_model import CostModel
from repro.obs import TelemetryCollector, Tracer
from tests.bulk_twins import apply as _twin_apply, bulk as _bulk
from tests.bulk_twins import bulk_done as _bulk_done, conserved_lines, declines
from tests.bulk_twins import per_op as _per_op, state as _state, stops

STRUCTURES = list(Structure)
LINE = 64
NUM_LINES = 16
OBJ_BYTES = 4 * NUM_LINES * LINE  # four times the section's capacity
LOCAL = 1 << 16


def _build(
    structure: Structure,
    cost: CostModel | None = None,
    *,
    policy=None,
    contention: int = 1,
    **section,
):
    """A manager with one small section and one object assigned to it
    (``section``: further ``SectionConfig`` fields)."""
    cost = cost or CostModel()
    system = CacheManager(cost, LOCAL, policy=policy)
    system.network.contention = contention
    system.open_section(
        SectionConfig(
            name="s",
            size_bytes=NUM_LINES * LINE,
            line_size=LINE,
            structure=structure,
            ways=4,
            **section,
        ),
        [],
    )
    obj = system.allocate(OBJ_BYTES, elem_size=8, name="o")
    system.assign(obj.obj_id, "s")
    return system, obj.obj_id


#: sections and links a folded miss must be exact on: a two-sided section
#: moving part of each line, a link two threads share, a write-back
#: shorter than its issue (no read queues behind it), and write misses
#: that fetch nothing
VARIANTS = {
    "one-sided": {},
    "two-sided": {"one_sided": False, "fetch_bytes": 32},
    "contention-2": {"contention": 2},
    "no-queue": {"cost": CostModel(cpu_op_ns=16.0)},
    "write-no-fetch": {"write_no_fetch": True},
}


# an offset anywhere in the object, aligned or not; with size 8 about one
# in eight unaligned offsets straddles two lines
_offsets = st.integers(0, OBJ_BYTES - 16)
_ops = st.lists(st.tuples(_offsets, st.booleans()), min_size=1, max_size=120)
# hot ops: few lines, so long runs of hits between the misses
_hot_ops = st.lists(
    st.tuples(st.integers(0, 6 * LINE).map(lambda o: o & ~7), st.booleans()),
    min_size=1,
    max_size=200,
)
_plain = [
    st.tuples(st.just("ops"), _ops),
    st.tuples(st.just("ops"), _hot_ops),
    st.tuples(st.just("hint"), _offsets),
    st.tuples(st.just("flush"), _offsets),
]
_steps = st.lists(
    st.one_of(*_plain, st.tuples(st.just("prefetch"), _offsets)),
    min_size=1,
    max_size=8,
)
# no prefetch: a prefetched line stays stamped until it is touched, and a
# stamped victim ends a miss fold, so with prefetches in the mix most
# misses would take the per-access path
_plain_steps = st.lists(st.one_of(*_plain), min_size=1, max_size=8)


def _apply(system, obj_id: int, steps, size: int, run_ops) -> None:
    _twin_apply(system, obj_id, steps, size, run_ops, LINE, conserved_lines)


@settings(max_examples=120, deadline=None)
@given(
    structure=st.sampled_from(STRUCTURES),
    size=st.sampled_from([1, 8, 16]),
    steps=_steps,
    suffix=_ops,
)
def test_bulk_access_matches_per_op_loop(structure, size, steps, suffix):
    oracle, obj_id = _build(structure)
    folded, _ = _build(structure)
    _apply(oracle, obj_id, steps, size, _per_op)
    _apply(folded, obj_id, steps, size, _bulk_done)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    # same residency and recency => the same victims from here on
    _per_op(oracle, obj_id, suffix, size)
    _per_op(folded, obj_id, suffix, size)
    assert _state(folded, obj_id) == _state(oracle, obj_id)


@settings(max_examples=100, deadline=None)
@given(
    structure=st.sampled_from(STRUCTURES),
    variant=st.sampled_from(sorted(VARIANTS)),
    size=st.sampled_from([1, 8, 16]),
    steps=_plain_steps,
    suffix=_ops,
)
def test_folded_misses_match_per_op_loop(structure, variant, size, steps, suffix):
    """The same twin with no prefetch in the mix, so that most misses evict
    a settled line and fold, on every section and link variant."""
    oracle, obj_id = _build(structure, **VARIANTS[variant])
    folded, _ = _build(structure, **VARIANTS[variant])
    _apply(oracle, obj_id, steps, size, _per_op)
    _apply(folded, obj_id, steps, size, _bulk_done)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    _per_op(oracle, obj_id, suffix, size)
    _per_op(folded, obj_id, suffix, size)
    assert _state(folded, obj_id) == _state(oracle, obj_id)


def _miss_boundaries():
    """A fixed stream through every edge of the miss fold, each step with
    the number of per-access ``_access_line`` calls it costs, and what it
    costs in a ``write_no_fetch`` section.  Every step keeps the resident
    lines a window of 16 consecutive ones, oldest first in every set, so
    all three geometries pick the same victim: the window's first line
    (comments name the lines touched)."""
    L = LINE
    return [
        # a cold section: 0-15 miss into free room and fold, but for
        # written 12-15 when the section fetches nothing on a write miss
        ((("ops", [(p * L, p >= 12) for p in range(16)])), 0, 4),
        # 16, the first miss that evicts, folds (the clock's ledger is
        # keyed from the start), and so does 17
        (("ops", [(16 * L, False), (17 * L, False)]), 0, 0),
        (("hint", 2 * L), 0, 0),
        # hinted clean victims 2, 3
        (("ops", [(18 * L, False), (19 * L, False)]), 0, 0),
        # clean 4-11 fold; so do dirty 12, the first write-back ever, and 13
        (("ops", [(p * L, False) for p in range(20, 30)]), 0, 0),
        # write misses over dirty 14, 15 fold -- unless the section fetches
        # nothing on a write miss: then each goes per access, and its
        # victim's write-back is left booking the link
        (("ops", [(30 * L, True), (30 * L + 8, False), (31 * L, True)]), 0, 2),
        # a flush books the link: 32 reads past it, 33 folds
        (("flush", 30 * L), 0, 0),
        (("ops", [(32 * L, False), (33 * L, False)]), 1, 1),
        # 34, 35 prefetched (booking the link), never touched: 36 reads
        # past the booking, 37-49 fold, 50 and 51 meet stamped victims
        (("prefetch", 34 * L), 0, 0),
        (("ops", [(p * L, False) for p in range(36, 52)]), 3, 3),
        # a straddle over hit 51 and miss 52; 53 folds
        (("ops", [(52 * L - 4, False), (53 * L, False)]), 2, 2),
    ]


def _count_line_accesses(section) -> list:
    """Record each per-access ``_access_line`` call on ``section`` (a
    folded miss or hit makes none) in the returned list."""
    calls = []
    per_access = section._access_line

    def counted(*args):
        calls.append(1)
        return per_access(*args)

    section._access_line = counted
    return calls


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("structure", STRUCTURES)
def test_miss_fold_stops_at_every_boundary(structure, variant):
    """Meta-check on a fixed stream: a miss folds exactly when it takes
    free room or evicts a settled victim, on an idle link, and is no write
    into a ``write_no_fetch`` section -- and the fold survives every
    boundary bit-exactly."""
    oracle, obj_id = _build(structure, **VARIANTS[variant])
    folded, _ = _build(structure, **VARIANTS[variant])
    section = folded.sections()["s"]
    calls = _count_line_accesses(section)
    no_fetch = variant == "write-no-fetch"
    for step, expected, expected_no_fetch in _miss_boundaries():
        _apply(oracle, obj_id, [step], 8, _per_op)
        before = len(calls)
        _apply(folded, obj_id, [step], 8, _bulk_done)
        assert len(calls) - before == (expected_no_fetch if no_fetch else expected), step
        assert _state(folded, obj_id) == _state(oracle, obj_id), step
    stats = section.stats
    assert stats.misses == 52 and stats.hinted_evictions == 2
    assert stats.evictions == 38 and stats.writebacks == 6
    assert stats.prefetches_issued == 2 and stats.prefetch_hits == 0
    # of 52 misses, 47 folded (41 when write misses fetch nothing;
    # ``conserved_lines`` checked their traffic)
    assert len(calls) == (12 if no_fetch else 6)
    assert not folded.network._link_free_at
    # a read queues behind a write-back unless the issue outlasts the wire
    assert ("net_wait" in folded.clock.breakdown()) is (variant != "no-queue")


@pytest.mark.parametrize("variant", ["one-sided", "two-sided", "write-no-fetch"])
@pytest.mark.parametrize("structure", STRUCTURES)
def test_cold_misses_fold_into_free_lines(structure, variant):
    """An empty section fills: clean reads and dirty writes miss into
    free lines and fold -- except that a write into a ``write_no_fetch``
    section fetches nothing and takes the verb, as every write miss there
    does -- and then the same walk's misses evict what they filled."""
    oracle, obj_id = _build(structure, **VARIANTS[variant])
    folded, _ = _build(structure, **VARIANTS[variant])
    section = folded.sections()["s"]
    calls = _count_line_accesses(section)
    # lines 0-15 fill the section, the odd ones written and line 0 hit by
    # a read and a write; 16-31 evict them in order, as in
    # ``_miss_boundaries``: 9 dirty victims
    ops = [(p * LINE + 8 * (p % 3), p % 2 == 1) for p in range(2 * NUM_LINES)]
    ops[1:1] = [(0, False), (8, True)]
    cold, warm = ops[: NUM_LINES + 2], ops[NUM_LINES + 2 :]
    _per_op(oracle, obj_id, cold, 8)
    _bulk_done(folded, obj_id, cold, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    # the 8 write misses into free lines
    assert len(calls) == (8 if variant == "write-no-fetch" else 0)
    assert section.resident_count() == NUM_LINES and section.stats.evictions == 0
    _per_op(oracle, obj_id, warm, 8)
    _bulk_done(folded, obj_id, warm, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    stats = section.stats
    assert stats.misses == 2 * NUM_LINES and stats.hits == 2
    assert stats.evictions == NUM_LINES and stats.writebacks == 9
    if variant != "write-no-fetch":
        assert not calls


@pytest.mark.parametrize("structure", STRUCTURES)
def test_free_line_misses_stop_at_the_metadata_sample_point(structure):
    """A run of misses into free lines grows residency.  The manager
    samples ``metadata_bytes`` every 256 accesses, so the peak is the
    residency at the 256th access, not at the run's end, exactly as per
    element (``tests/test_swap_fold.py`` holds the free-page twin)."""
    lines = 512

    def build():
        system = CacheManager(CostModel(), lines * LINE + LOCAL)
        system.open_section(
            SectionConfig(
                name="s", size_bytes=lines * LINE, line_size=LINE,
                structure=structure, ways=4,
            ),
            [],
        )
        obj_id = system.allocate(lines * LINE, elem_size=8, name="o").obj_id
        system.assign(obj_id, "s")
        return system, obj_id

    oracle, obj_id = build()
    folded, _ = build()
    warm = [(8 * (i % 8), False) for i in range(200)]  # one miss, 199 hits
    misses = [(p * LINE, p % 3 == 0) for p in range(1, 301)]  # all free
    for system, run in ((oracle, _per_op), (folded, _bulk_done)):
        run(system, obj_id, warm, 8)
        run(system, obj_id, misses, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    assert folded.sections()["s"].stats.evictions == 0
    assert folded._access_counter == 500
    # sampled once, at access 256: the warm line and lines 1-56
    md = folded.sections()["s"].config.metadata_per_line
    assert folded.peak_metadata_bytes == 57 * md < folded.metadata_bytes()


def _every_kind_of_event():
    ops = [((i * 24) % (3 * LINE), i % 3 == 0) for i in range(300)]
    ops += [((i * 40) % OBJ_BYTES, i % 2 == 0) for i in range(300)]
    ops += [(LINE - 4, False), (0, True), (8, False)] * 20
    steps = [
        ("ops", ops[:200]),
        ("prefetch", 40 * LINE),
        ("ops", [(40 * LINE, False), (41 * LINE + 8, True)]),
        ("hint", 0),  # touched again below: the hit cancels the hint
        ("hint", 40 * LINE),  # swept out below: a hinted eviction
        ("ops", ops[200:]),
    ]
    return ops, steps


@pytest.mark.parametrize("structure", STRUCTURES)
def test_stream_exercises_every_kind_of_event(structure):
    """Meta-check on a fixed stream: folds, misses, dirty evictions, an
    in-flight prefetch hit, a hinted eviction and a straddle all happen,
    and the fold survives them bit-exactly."""
    ops, steps = _every_kind_of_event()
    oracle, obj_id = _build(structure)
    folded, _ = _build(structure)
    _apply(oracle, obj_id, steps, 8, _per_op)
    _apply(folded, obj_id, steps, 8, _bulk)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    stats = folded.sections()["s"].stats
    assert stats.hits > 300 and stats.misses > 50
    assert stats.evictions > 0 and stats.writebacks > 0
    assert stats.prefetch_hits > 0
    assert stats.hinted_evictions > 0
    assert stats.accesses > len(ops) + 2  # straddles count two lines
    assert folded.clock.now != int(folded.clock.now)  # a fractional clock


@pytest.mark.parametrize("misses", [4, 9, 19])
def test_run_that_more_than_doubles_the_clock(misses):
    """A few misses leave a small fractional clock; 3000 hits then carry it
    across several powers of two.  The run is settled in one ``n * c``
    step all the same: every duration is on the time grid, where sums are
    exact in any grouping (a float clock rounded here, once per crossing,
    and such a run used to be charged hit by hit)."""
    ops = [(i * LINE, False) for i in range(misses)]
    ops += [((misses - 1) * LINE, False)] * 3000
    oracle, obj_id = _build(Structure.SET_ASSOCIATIVE)
    folded, _ = _build(Structure.SET_ASSOCIATIVE)
    _per_op(oracle, obj_id, ops, 8)
    _bulk_done(folded, obj_id, ops, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_settled_prefetch_is_unmarked_by_its_first_hit(structure, monkeypatch):
    """A prefetched line whose data has landed is a plain resident line
    after one hit (as a swap page is): ``ready_at`` left set would send
    every later hit to ``clock.now`` and keep the line out of every fold."""
    system, obj_id = _build(structure)
    section = system.sections()["s"]
    system.prefetch(obj_id, 0, 8)
    line = section.peek((obj_id, 0))
    system.clock.advance(1e7, "compute")
    assert 0.0 < line.ready_at < system.clock.now
    _per_op(system, obj_id, [(0, False)], 8)
    assert line.ready_at == 0.0
    assert section.stats.hits == 1 and section.stats.prefetch_hits == 0
    # the second hit is folded: it never reaches the per-access path
    monkeypatch.setattr(section, "_access_line", None)
    _bulk_done(system, obj_id, [(8, True)], 8)
    assert section.stats.hits == 2 and line.dirty


# -- declining: None, and nothing done ---------------------------------------

_WARM = [(i * 8, i % 4 == 0) for i in range(64)]
_PROBE = [(0, False), (8, True), (5 * LINE, False), (16, False)]


def _declines(system, obj_id: int, ops=_PROBE) -> None:
    declines(system, obj_id, ops)


def _warm(structure=Structure.SET_ASSOCIATIVE, **kw):
    system, obj_id = _build(structure, **kw)
    _per_op(system, obj_id, _WARM, 8)
    return system, obj_id


def test_accepts_when_nothing_listens():
    system, obj_id = _warm()
    _bulk_done(system, obj_id, _PROBE, 8)
    _bulk_done(system, obj_id, [], 8)


def test_declines_with_tracer_or_access_log():
    for tracer in (Tracer(), Tracer(access_log=True)):
        system, obj_id = _warm()
        system.set_tracer(tracer)
        _declines(system, obj_id)


def test_declines_with_telemetry():
    system, obj_id = _warm()
    system.set_telemetry(TelemetryCollector(window_ns=1000.0))
    _declines(system, obj_id)


def test_declines_with_prefetch_policy():
    system, obj_id = _warm(policy="markov")
    _declines(system, obj_id)


def _hybrid():
    system = HybridManager(CostModel(), LOCAL, hybrid_config=HybridConfig(window=64))
    system.plan_group(
        SectionConfig(
            name="s",
            size_bytes=NUM_LINES * LINE,
            line_size=LINE,
            structure=Structure.SET_ASSOCIATIVE,
            ways=4,
        ),
        ["o"],
        path="object",
    )
    return system, system.allocate(OBJ_BYTES, elem_size=8, name="o").obj_id


def _windows(system):
    group = system.groups()["s"]
    return group.path, group.win_acc, group.win_miss, group.win_bytes, group.cooldown


def test_hybrid_manager_windows_folded_runs():
    """The path hook takes a run's length and misses, so it is no
    per-access listener:
    a group on the object path folds, its windows close after the same
    accesses (``HybridManager._stream_walk`` stops each walk there), and the
    group's counters read what the per-element loop leaves.  The swap path
    and the switches themselves are in ``tests/test_swap_fold.py``."""
    ops = [((i * 24) % (6 * LINE), i % 3 == 0) for i in range(1000)]
    oracle, obj_id = _hybrid()
    folded, _ = _hybrid()
    _per_op(oracle, obj_id, ops, 8)
    _bulk_done(folded, obj_id, ops, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    assert _windows(folded) == _windows(oracle) == ("object", 1000 % 64, 0, 8 * (1000 % 64), 0)
    assert folded.sections()["s"].stats.hits > 900 and not folded.switch_log


def test_hybrid_window_closed_by_folded_misses_switches_on_time():
    """A window that closes inside a run of folded misses: the hook learns
    the run's misses with its length, and the demote they trigger happens
    after the same access, at the same clock, as per element."""
    # 16 cold misses, then a sweep in which every access evicts: the
    # first window of 64 is all misses
    ops = [((i % 64) * LINE + 8 * (i % 3), i % 4 == 0) for i in range(200)]
    oracle, obj_id = _hybrid()
    folded, _ = _hybrid()
    section = folded.sections()["s"]
    calls = _count_line_accesses(section)
    _per_op(oracle, obj_id, ops, 8)
    _bulk_done(folded, obj_id, ops, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    assert [s["dir"] for s in folded.switch_log] == ["demote"]
    assert section.stats.misses == 64 and len(calls) < 20  # the rest folded
    assert _windows(folded) == _windows(oracle)


def test_declines_with_fault_plan_or_pending_degradation():
    system, obj_id = _warm()
    system.enable_faults(FaultPlan(seed=1))
    _declines(system, obj_id)
    system, obj_id = _warm()
    system._degrade_pending = 1
    _declines(system, obj_id)


@pytest.mark.parametrize(
    "override",
    [
        {"dram_access_ns": 33.3},
        {"cpu_op_ns": 1.5},
        {"hit_overhead_set_assoc_ns": 35.7},
    ],
)
def test_folds_on_non_integer_charges(override):
    """No cost model declines: its durations are snapped to the time grid
    once, and from there ``n * c`` is ``n`` adds of ``c`` (such a model
    used to be refused, and ran per element)."""
    cost = CostModel().with_overrides(**override)
    _, steps = _every_kind_of_event()
    oracle, obj_id = _warm(cost=cost)
    folded, _ = _warm(cost=cost)
    _apply(oracle, obj_id, steps, 8, _per_op)
    _apply(folded, obj_id, steps, 8, _bulk_done)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    assert folded.sections()["s"].stats.hits > 300
    assert folded.clock.now != round(folded.clock.now, 3)  # nowhere near whole ns


def test_declines_for_native_objects():
    system, obj_id = _warm()
    system.set_native(obj_id, True)
    _declines(system, obj_id)


@pytest.mark.parametrize("bad", [-8, OBJ_BYTES - 4, OBJ_BYTES])
def test_declines_on_out_of_range_offset(bad):
    """The stream's stop contract: the ops ahead of the bad op are
    applied, and the bad op is returned untouched."""
    (oracle, _), (system, obj_id) = _warm(), _warm()
    stops(oracle, system, obj_id, [(0, False), (bad, False), (8, True)], 1)
