"""Twin test of codegen's chunk tier on far memory.

On a cache manager with no path hook -- a plain ``CacheManager``,
FastSwap, Leap -- a straight-line ``scf.for`` runs a chunk of iterations
at a time: the body moves the data and writes each memory event's offset
to a tape, then ``CacheManager.fold_chunk`` -- the one fold loop, which
``stream_access`` walks too -- settles the chunk's
accesses, misses, probes, hints and prefetch fills in program order
(DESIGN.md section 4).  The reference interpreter takes every event as it
comes, so it is the oracle: after the program -- or after the error it
raises -- the codegen run must show the same results, clock and breakdown
(in registry order), every counter, the link, the hint counts and
every resident line and page with its state, in recency order.

Bodies mix loads, stores, touches, prefetches, trailing and range hints,
flushes and compute over objects in a set-associative, a direct-mapped
and a fully-associative section and on the swap path, with iv-based and
gathered indices, optionally inside ``scf.parallel``.  The manager takes
its swap-path prefetch policy from ``REPRO_PREFETCH`` (none when unset):
under a policy a chunk touching a cache section is declined and runs per
element, and one whose objects are all on the swap path folds if the
policy ignores repeats, which CI's prefetch-policy matrix checks against
the same oracle.  FastSwap (with and without its swap lock) and Leap run
the same bodies with every object on the swap path; Leap takes its
policy from the knob too, so the matrix runs its twin under every
policy, the ones ``fold_ok`` refuses included.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import FastSwap, Leap
from repro.cache.config import SectionConfig, Structure
from repro.cache.manager import ACCESS, CacheManager
from repro.cache.section import CacheSection
from repro.errors import MemoryError_
from repro.ir.builder import IRBuilder
from repro.ir.types import F64, I64, INDEX
from repro.ir.verifier import verify
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel
from repro.memsim.resources import SerialResource
from repro.prefetch import policy_from_env
from repro.runtime import codegen
from repro.runtime.interpreter import Interpreter
from tests.test_manager_verbs import _snapshot

LINE = 64
SECTIONS = (
    SectionConfig(
        name="set", size_bytes=16 * LINE, line_size=LINE,
        structure=Structure.SET_ASSOCIATIVE, ways=4,
    ),
    SectionConfig(
        name="dm", size_bytes=8 * LINE, line_size=LINE,
        structure=Structure.DIRECT,
    ),
    SectionConfig(
        name="fa", size_bytes=8 * LINE, line_size=LINE,
        structure=Structure.FULLY_ASSOCIATIVE,
    ),
)
SWAP_PAGES = 3
LOCAL = sum(c.size_bytes for c in SECTIONS) + SWAP_PAGES * PAGE_SIZE
#: name -> (f64 elements, section or None: the swap path)
OBJECTS = {"a": (512, "set"), "b": (256, "dm"), "d": (256, "fa"), "c": (2048, None)}
#: the gather column: ``G`` i64 indices, on the swap path
G = 64


def _build(loops, parallel: int = 0, gather=None):
    """``loops``: one list of statements per ``scf.for``, each loop
    ``(trip, step, stmts)``; ``parallel`` > 0 wraps every loop in an
    ``scf.parallel`` of that many threads."""
    b = IRBuilder()
    with b.func("main", result_types=[F64]):
        refs = {n: b.ralloc(F64, num, n) for n, (num, _) in OBJECTS.items()}
        refs["g"] = b.ralloc(I64, G, "g")
        total = b.f64(0.0)
        for trip, step, stmts in loops:
            if parallel:
                with b.parallel(0, 2 * parallel, num_threads=parallel):
                    _loop(b, refs, trip, step, stmts, b.f64(0.0))
            else:
                total = _loop(b, refs, trip, step, stmts, total)
        b.ret([total])
    verify(b.module)
    values = gather or [(7 * i + 3) % 256 for i in range(G)]

    def data_init(name, mrv):
        if name == "g":
            mrv.fill(values)

    return b.module, data_init


def _loop(b, refs, trip, step, stmts, total):
    with b.for_(0, trip, step=step, iter_args=[total]) as loop:
        acc = loop.args[0]
        for op, name, idx, arg in stmts:
            ref = refs[name]
            num = OBJECTS[name][0]
            if idx[0] == "gather":  # a data-dependent index
                i = b.cast(b.load(refs["g"], b.rem(b.add(loop.iv, idx[1]), G)), INDEX)
            else:
                _, mul, add = idx
                i = b.rem(b.add(b.mul(loop.iv, mul), add), num)
            if op == "load":
                x = b.load(ref, i)
                x.producer.attrs["native"] = arg
                acc = b.add(acc, x)
            elif op == "store":
                b.store(acc, ref, i)
                b.block.ops[-1].attrs["native"] = arg
            elif op == "touch":
                b.touch(ref, b.mul(b.rem(i, num - arg), 8), 8 * arg, is_write=True)
            elif op == "prefetch":  # past the end: clamped, then skipped
                dist, count = arg
                b.prefetch(ref, b.add(i, dist), count)
            elif op == "trail":
                b.evict_hint(ref, i, mode="trailing")
            elif op == "hint":
                b.evict_hint(ref, i, arg)
            elif op == "flush":
                b.flush(ref, i, arg)
            else:
                b.work(float(arg))
        b.yield_([acc])
    return loop.results[0]


def _system(parallel: int):
    """The manager ``run_plan`` would build: a swap lock under threads."""
    system = CacheManager(
        CostModel(),
        LOCAL,
        fault_lock=SerialResource("swap-lock") if parallel else None,
        policy=policy_from_env("none"),
    )
    for config in SECTIONS:
        system.open_section(config, [])
    for name, (_, section) in OBJECTS.items():
        if section is not None:
            system.pending_assignment[name] = section
    return system


#: the cache managers with no section that chunk too, every object on the
#: swap path of a pool of four pages, under half of what the objects span;
#: Leap's ``policy=None`` takes the knob's policy (``leap`` when unset)
SWAP_SYSTEMS = {
    "fastswap": lambda parallel: FastSwap(CostModel(), 4 * PAGE_SIZE),
    "fastswap-lock": lambda parallel: FastSwap(
        CostModel(), 4 * PAGE_SIZE, num_threads=2
    ),
    "leap": lambda parallel: Leap(CostModel(), 4 * PAGE_SIZE, policy=None),
}


def _run(engine: str, module, data_init, parallel: int = 0, build=_system) -> dict:
    """Run ``main`` on the system ``build(parallel)`` makes; the snapshot
    of everything observable, the results, and the error raised, if
    any."""
    ambient = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = engine
    try:
        system = build(parallel)
        if system.policy is not None:
            system.policy.prepare(module, entry="main")
        interp = Interpreter(module, system, data_init)
        try:
            out = {"results": interp.run("main").results}
        except MemoryError_ as exc:
            out = {"error": (type(exc), str(exc))}
    finally:
        if ambient is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = ambient
    out.update(_snapshot(system))
    return out


def _twins(loops, parallel: int = 0, gather=None, build=_system) -> dict:
    module, data_init = _build(loops, parallel, gather)
    reference = _run("reference", module, data_init, parallel, build)
    chunked = _run("codegen", module, data_init, parallel, build)
    assert chunked == reference
    return chunked


class _Folds:
    """Counts ``fold_ok``'s answers; ``folded(...)`` is the test's
    expectation, or, under an ambient policy, that no chunk was
    accepted."""

    def __init__(self, monkeypatch):
        self.seen = Counter()
        ok = CacheManager.fold_ok

        def fold_ok(system, objs):
            accepted = ok(system, objs)
            self.seen["accepted" if accepted else "refused"] += 1
            return accepted

        monkeypatch.setattr(CacheManager, "fold_ok", fold_ok)

    def folded(self, expected: bool) -> bool:
        if policy_from_env("none") is not None:
            return self.seen["accepted"] == 0 < self.seen["refused"]
        return expected


_names = st.sampled_from(sorted(OBJECTS))
_index = st.one_of(
    st.tuples(st.just("iv"), st.sampled_from([1, 3, 8, 17]), st.integers(0, 300)),
    st.tuples(st.just("gather"), st.integers(0, G - 1)),
)
_stmt = st.one_of(
    st.tuples(st.sampled_from(["load", "store"]), _names, _index, st.booleans()),
    st.tuples(st.just("touch"), _names, _index, st.sampled_from([1, 8, 9])),
    st.tuples(
        st.just("prefetch"), _names, _index,
        st.tuples(st.sampled_from([1, 8, 40]), st.sampled_from([1, 2, 9, 40])),
    ),
    st.tuples(st.just("trail"), _names, _index, st.none()),
    st.tuples(st.sampled_from(["hint", "flush"]), _names, _index, st.integers(1, 12)),
    st.tuples(st.just("work"), _names, _index, st.sampled_from([1, 50, 400])),
)
_loops = st.lists(
    st.tuples(
        st.integers(1, 600), st.sampled_from([1, 1, 2, 3]),
        st.lists(_stmt, min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=60, deadline=None)
@given(loops=_loops, parallel=st.sampled_from([0, 0, 0, 2]))
def test_chunks_match_the_reference(loops, parallel):
    _twins(loops, parallel)


@pytest.mark.parametrize("name", sorted(SWAP_SYSTEMS))
@settings(max_examples=25, deadline=None)
@given(loops=_loops, parallel=st.sampled_from([0, 0, 2]))
def test_swap_baselines_chunk_like_the_reference(name, loops, parallel):
    _twins(loops, parallel, build=SWAP_SYSTEMS[name])


# -- seeded cases --------------------------------------------------------------


def _lin(add=0, mul=1):
    return ("iv", mul, add)


def test_access_to_a_line_filled_earlier_in_the_chunk(monkeypatch):
    """Lines prefetched a few elements ahead are read while their fills
    are booked on the held link: some still in flight, most arrived.  A
    fill's booking and a read's ``ready_at`` test both see ``now`` with
    the compute, dram and hit charges the fold holds and the link's own
    evict and issue charges; a fill booked at the bare clock would land
    early."""
    folds = _Folds(monkeypatch)
    waits = []
    for dist in (1, 4, 6, 8):
        for work in (0, 200):
            stmts = [
                ("prefetch", "a", _lin(), (dist, 1)),
                ("prefetch", "d", _lin(), (8, 2)),
                ("work", "a", _lin(), work),
                ("load", "a", _lin(), False),
                ("load", "d", _lin(), False),
                ("store", "a", _lin(200), False),
            ]
            out = _twins([(20, 1, stmts[3:5]), (600, 1, stmts)])
            waits.append(out["stats.set"]["prefetch_hits"])
    assert max(waits) > 1 and min(waits) == 0
    assert folds.folded(folds.seen["accepted"] > folds.seen["refused"])


def test_dirty_trailing_hint_mid_chunk():
    """Each line is written, then the streaming hint behind it finds it
    dirty: the flush goes through the verb, in the middle of a chunk."""
    stmts = [
        ("store", "a", _lin(), False),
        ("trail", "a", _lin(), None),
        ("store", "b", _lin(), True),
        ("trail", "b", _lin(), None),
        ("load", "c", _lin(mul=8), False),
        ("trail", "c", _lin(mul=8), None),
    ]
    out = _twins([(500, 1, stmts)])
    assert out["stats.set"]["writebacks"] > 0


def test_first_chunk_folds_on_a_fresh_clock(monkeypatch):
    """The first loop starts on a clock nothing has charged yet: the
    ledger is keyed up front, so even its first chunk folds -- its first
    miss, eviction and fill included -- and still equals the reference,
    breakdown order and all."""
    folds = _Folds(monkeypatch)
    stmts = [
        ("load", "b", _lin(mul=3), False),
        ("prefetch", "b", _lin(mul=3), (24, 1)),
        ("load", "c", _lin(mul=17), False),
    ]
    module, data_init = _build([(600, 1, stmts)])
    reference = _run("reference", module, data_init)
    chunked = _run("codegen", module, data_init)
    assert chunked == reference
    seen = folds.seen
    assert folds.folded(seen["refused"] == 0 and seen["accepted"] >= 1)
    assert [k for k, _ in chunked["breakdown"]][:2] == ["compute", "dram"]


def test_prefetch_clamped_and_skipped_at_the_end():
    """Near the end a prefetch of 9 elements is cut to what is left; past
    it the range guard skips the hint (a sentinel on the tape)."""
    stmts = [
        ("prefetch", "a", _lin(), (500, 9)),
        ("prefetch", "c", _lin(), (2040, 9)),
        ("flush", "d", _lin(250), 9),
        ("hint", "b", _lin(250), 9),
        ("load", "a", _lin(), False),
    ]
    out = _twins([(300, 1, stmts)])
    assert out["stats.set"]["prefetches_issued"] > 0


@pytest.mark.parametrize("threads", [2, 3])
def test_chunks_inside_a_parallel_region(threads):
    """Each thread runs the loop on a fork of the clock, whose breakdown
    starts empty, with the link shared ``threads`` ways (contention) and
    swap faults queued on the swap lock."""
    stmts = [
        ("prefetch", "a", _lin(8), (8, 2)),
        ("load", "a", _lin(), False),
        ("store", "d", ("gather", 5), False),
        ("trail", "a", _lin(), None),
        ("load", "c", _lin(mul=8), True),
    ]
    _twins([(400, 1, stmts)], parallel=threads)


@pytest.mark.parametrize("name", sorted(SWAP_SYSTEMS))
@pytest.mark.parametrize("parallel", [0, 2])
def test_swap_baselines_fold_their_chunks(name, parallel, monkeypatch):
    """FastSwap and Leap have no path hook: their straight-line loops run
    in chunks the walker settles -- faults, hits, prefetches, trailing
    hints, a gathered index -- and still equal the reference, under the
    swap lock too.  A chunk is refused where ``fold_ok`` refuses it: for
    Leap, under a policy that counts repeats."""
    folds = _Folds(monkeypatch)
    stmts = [
        ("load", "c", _lin(mul=8), False),
        ("prefetch", "c", _lin(mul=8), (64, 2)),
        ("store", "a", _lin(), False),
        ("load", "d", ("gather", 2), False),
        ("trail", "b", _lin(mul=8), None),
    ]
    out = _twins([(600, 1, stmts)], parallel, build=SWAP_SYSTEMS[name])
    swap = out["swap"]
    assert swap["misses"] > 100 and swap["hits"] > 100 and swap["writebacks"] > 0
    policy = SWAP_SYSTEMS[name](parallel).policy
    if policy is None or policy.repeat_is_noop:
        assert folds.seen["accepted"] > 0 == folds.seen["refused"]
    else:
        assert folds.seen["accepted"] == 0 < folds.seen["refused"]


def test_gathered_index_out_of_range_raises_like_the_reference(monkeypatch):
    """A gathered index past the end, in the middle of a chunk: the same
    error, clock and counters as the per-element loop.  The chunk folds
    its tape up to the failing access before the data op's slow branch."""
    folds = _Folds(monkeypatch)
    gather = [(7 * i + 3) % 256 for i in range(G)]
    gather[41] = 300  # past ``d`` (256 elements)
    stmts = [
        ("prefetch", "a", _lin(), (16, 1)),
        ("load", "a", _lin(), False),
        ("load", "d", ("gather", 0), False),
        ("store", "c", _lin(mul=8), False),
    ]
    warm = [  # every object touched once: the first chunk folds
        ("load", "a", _lin(), False),
        ("load", "d", ("gather", 1), False),
        ("load", "c", _lin(), False),
    ]
    out = _twins([(20, 1, warm), (600, 1, stmts)], gather=gather)
    assert out["error"][0] is MemoryError_
    assert "out of bounds" in out["error"][1]
    assert folds.folded(folds.seen["accepted"] >= 1)


def test_a_policy_declines_every_chunk(monkeypatch):
    """A swap-path prefetch policy plans on every swap access: the chunks
    run per element, as with any other observer."""
    monkeypatch.setenv("REPRO_PREFETCH", "leap")
    folds = _Folds(monkeypatch)
    stmts = [("load", "a", _lin(), False), ("store", "c", _lin(mul=8), False)]
    _twins([(20, 1, stmts), (600, 1, stmts)])
    assert folds.folded(False)


def test_a_policy_that_ignores_repeats_folds_a_swap_only_chunk(monkeypatch):
    """A loop whose objects are all on the swap path is no observer of a
    policy that ignores repeats: its chunks fold, calling ``record`` once
    per page transition, and the faults the policy plans on take the
    verb.  Loads, stores, prefetches, trailing hints and a gathered index
    over one object still equal the reference."""
    monkeypatch.setenv("REPRO_PREFETCH", "leap")
    folds = _Folds(monkeypatch)
    stride = [
        ("load", "c", _lin(mul=64), False),
        ("prefetch", "c", _lin(mul=64), (8, 2)),
        ("trail", "c", _lin(mul=64), None),
    ]
    gather = [("store", "c", ("gather", 3), False), ("touch", "c", _lin(), 8)]
    out = _twins([(600, 1, stride), (600, 1, gather)])
    assert folds.seen["accepted"] > 0 == folds.seen["refused"]
    assert out["policy"]["issued"] > 0 and out["swap"]["misses"] > 50


def test_native_lowering_is_untouched(monkeypatch):
    """The chunk tier is for far memory: against NativeMemory the fast
    loop still hoists its charges and pushes nothing."""
    from repro.baselines import NativeMemory

    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    module, data_init = _build([(300, 1, [("load", "a", _lin(), False)])])
    interp = Interpreter(module, NativeMemory(CostModel(), 1 << 24), data_init)
    source = interp._engine.generated_source("main")
    assert "_k" in source and ".append" not in source
    assert f", {codegen._CHUNK}):" not in source


def test_chunk_misses_fold_like_the_reference(monkeypatch):
    """Loads and stores that sweep a direct-mapped and a
    fully-associative section: every access misses on an idle link, into
    free room while the section fills, then evicting a settled line,
    dirty for the stores.  A chunk folds all of those misses -- none takes
    ``_access_line`` -- and still equals the reference, which takes every
    one."""
    calls = Counter()
    per_access = CacheSection._access_line

    def counted(section, *args):
        calls[os.environ["REPRO_ENGINE"]] += 1
        return per_access(section, *args)

    monkeypatch.setattr(CacheSection, "_access_line", counted)
    stmts = [("load", "b", _lin(mul=8), False), ("store", "d", _lin(mul=8), False)]
    out = _twins([(600, 1, stmts)])
    assert out["stats.dm"]["misses"] == out["stats.fa"]["misses"] == 600
    assert out["stats.fa"]["writebacks"] > 500
    assert calls["reference"] == 1200
    if policy_from_env("none") is None:
        assert calls["codegen"] == 0  # the cold misses fold too
    else:  # under a policy the chunk runs per element
        assert calls["codegen"] == 1200


def test_a_victim_line_is_reused_across_geometries(monkeypatch):
    """One chunk's misses alternate between the set-associative and the
    direct-mapped section, and each ``b`` line is read again right after
    its miss: the ``Line`` a set-associative miss evicted becomes the
    next direct-mapped miss's and the other way round, so one that kept
    its old set's bucket as ``order`` would break that set's recency on
    the hit.  Every miss folds, the cold ones too."""
    calls = Counter()
    per_access = CacheSection._access_line

    def counted(section, *args):
        calls[os.environ["REPRO_ENGINE"]] += 1
        return per_access(section, *args)

    monkeypatch.setattr(CacheSection, "_access_line", counted)
    load = [("load", name, _lin(mul=8), False) for name in "abb"]
    out = _twins([(300, 1, load)])
    assert out["stats.set"]["misses"] == out["stats.dm"]["misses"] == 300
    assert out["stats.dm"]["hits"] == 300 and out["stats.dm"]["evictions"] > 0
    assert calls["reference"] == 600
    assert calls["codegen"] == (0 if policy_from_env("none") is None else 600)


def test_a_fill_evicted_in_flight_becomes_the_next_miss(monkeypatch):
    """Each iteration prefetches two ``b`` lines that share a
    direct-mapped slot, so the second fill evicts the first while it is
    still in flight; ``a``'s miss then takes the verb (the fills left the
    link busy) and drains the link, and ``d``'s miss folds into the
    ``Line`` the fill evicted.  Its ``ready_at`` must be cleared, or the
    resident ``d`` line keeps the stamp of a prefetch it never had."""
    calls = Counter()
    per_access = CacheSection._access_line

    def counted(section, *args):
        calls[os.environ["REPRO_ENGINE"], section.config.name] += 1
        return per_access(section, *args)

    monkeypatch.setattr(CacheSection, "_access_line", counted)
    stmts = [
        ("prefetch", "b", _lin(mul=16), (0, 1)),  # line 2i...
        ("prefetch", "b", _lin(mul=16), (64, 1)),  # ...evicted by line 2i + 8
        ("load", "a", _lin(mul=8), False),
        ("load", "d", _lin(mul=8), False),
    ]
    out = _twins([(4, 1, stmts)])
    assert out["stats.dm"]["prefetch_wasted"] == 4
    assert out["stats.fa"]["misses"] == 4
    assert [ready for *_, ready in out["lines.fa"]] == [0.0] * 4
    if policy_from_env("none") is None:
        assert calls["codegen", "fa"] == 0  # every ``d`` miss folded
        assert calls["codegen", "set"] == 4


def test_a_miss_victim_becomes_a_fill_in_another_geometry():
    """Once ``a`` has filled its set-associative section, each folded
    ``a`` miss hands its victim to the next ``b`` fill, in the
    direct-mapped section, whose ``_admit`` sets no ``order``: the reused
    ``Line`` must drop its old set's bucket, or the read of the filled
    line moves it in a bucket that does not hold it."""
    fill = [("load", "a", _lin(mul=8), False)]
    stmts = [
        ("load", "a", _lin(128, mul=8), False),
        ("prefetch", "b", _lin(mul=8), (0, 1)),
        ("load", "b", _lin(mul=8), False),
    ]
    out = _twins([(16, 1, fill), (6, 1, stmts)])
    assert out["stats.set"]["evictions"] == 6
    assert out["stats.dm"]["prefetches_issued"] == 6


def _one_slot_twins():
    """Two managers with a set-associative section of 16 lines and a swap
    pool of 4 pages, each half full."""
    systems = []
    for _ in range(2):
        system = CacheManager(CostModel(), 16 * LINE + 4 * PAGE_SIZE)
        system.open_section(SECTIONS[0], [])
        a = system.allocate(64 * LINE, elem_size=8, name="a").obj_id
        system.assign(a, "set")
        c = system.allocate(14 * PAGE_SIZE, elem_size=8, name="c").obj_id
        for i in range(8):
            system.access(a, i * LINE, 8, i % 3 == 0)
        for i in range(2):
            system.access(c, i * PAGE_SIZE, 8, i % 2 == 0)
        systems.append(system)
    return systems, (a, c)


@pytest.mark.parametrize("start, end", [(0, True), (1, True), (1, False)])
@pytest.mark.parametrize("obj", [0, 1], ids=["section", "swap"])
def test_one_slot_walk_takes_a_write_flag_per_event(obj, start, end):
    """``fold_chunk`` over a stream: a one-slot plan whose events each
    carry their own write flag -- hits, misses into free room and onto
    settled victims, dirty ones included -- equals, per element, the tail
    owed first (``start`` 1), the event's compute and dram, the access
    with its flag, and the tail (the last one only when ``end``)."""
    (oracle, walked), objs = _one_slot_twins()
    oid = objs[obj]
    unit, units = (LINE, 40) if obj == 0 else (PAGE_SIZE, 14)
    offsets = [((i * 9) % units) * unit + 8 * (i % 5) for i in range(300)]
    writes = [(i * 5) % 3 == 0 for i in range(300)]
    compute, dram, tail = 3.0, CostModel().dram_access_ns, 2.0
    clock = oracle.clock
    if start:
        clock.charge(tail)
    for i, (off, w) in enumerate(zip(offsets, writes)):
        clock.advance(dram, "dram")
        clock.charge(compute)
        oracle.access(oid, off, 8, w)
        if end or i < len(offsets) - 1:
            clock.charge(tail)
    plan = (((ACCESS, 0, 8, False, False, compute, dram),), tail)
    assert walked.fold_ok((oid,))
    ops = zip(offsets, writes)
    assert walked.fold_chunk(plan, (oid,), ops, start, end, True) == (300, None)
    assert _snapshot(walked) == _snapshot(oracle)
    stats = walked.swap.stats if obj else walked.sections()["set"].stats
    assert stats.misses > 100 and stats.writebacks > 20
