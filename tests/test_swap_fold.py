"""Differential test of the swap path's ``stream_access`` against its oracle.

The contract (DESIGN.md section 4f) is the one
``tests/test_bulk_access.py`` holds the object path to: a
``stream_access`` call that takes its stream leaves the system exactly
where the per-element loop (in trace order, ``clock.advance(dram);
clock.charge(cpu); access(...)``) leaves an identically built twin, and
a call that returns None has done nothing.
Here the folded events are page hits on
FastSwap, on Leap under each policy whose ``record`` ignores repeats, on a
``CacheManager`` object that stays on the swap path, and on the hybrid
manager, whose groups switch paths mid-stream -- and, on each of them
with no policy and no swap lock, plain page faults, dirty victims
included.  FastSwap and Leap are cache managers that open no section, so
all of these run one stream path, ``CacheManager.stream_access``, and
through it the one fold loop, ``CacheManager.fold_chunk``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import FastSwap, Leap
from repro.cache.config import SectionConfig, Structure
from repro.cache.hybrid import HybridConfig, HybridManager
from repro.cache.manager import CacheManager
from repro.faults import FaultPlan
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel, grid
from repro.obs import TelemetryCollector, Tracer
from tests.bulk_twins import apply as _twin_apply, bulk as _bulk
from tests.bulk_twins import bulk_done as _bulk_done, conserved_pages, declines
from tests.bulk_twins import per_op as _per_op, state as _state, stops

LOCAL_PAGES = 8
OBJ_PAGES = 32  # four times what fits
OBJ_BYTES = OBJ_PAGES * PAGE_SIZE
LOCAL = LOCAL_PAGES * PAGE_SIZE
#: small enough that random streams cross many window boundaries
HYBRID = HybridConfig(window=64)


def _hybrid(cost, policy=None):
    system = HybridManager(cost, LOCAL, policy=policy, hybrid_config=HYBRID)
    system.plan_group(
        SectionConfig(
            name="g",
            size_bytes=4 * PAGE_SIZE,
            line_size=256,
            structure=Structure.SET_ASSOCIATIVE,
        ),
        ["*"],
        path="swap",
    )
    return system


BUILDERS = {
    "fastswap": lambda cost: FastSwap(cost, LOCAL),
    "fastswap-learned": lambda cost: FastSwap(cost, LOCAL, policy="learned"),
    "leap": lambda cost: Leap(cost, LOCAL, policy="leap"),
    "leap-markov": lambda cost: Leap(cost, LOCAL, policy="markov"),
    "leap-learned": lambda cost: Leap(cost, LOCAL, policy="learned"),
    # no policy: faults fold too, with Leap's longer kernel path
    "leap-none": lambda cost: Leap(cost, LOCAL, policy="none"),
    # a kernel path shorter than a page's wire time: the read behind a
    # dirty victim's write-back queues (``net_wait``)
    "fastswap-queued": lambda cost: FastSwap(
        cost.with_overrides(page_fault_ns=100.0), LOCAL
    ),
    # the swap lock queues every fault: hits fold, faults do not
    "fastswap-t2": lambda cost: FastSwap(cost, LOCAL, num_threads=2),
    "manager": lambda cost: CacheManager(cost, LOCAL),
    "manager-markov": lambda cost: CacheManager(cost, LOCAL, policy="markov"),
    "hybrid": _hybrid,
    "hybrid-leap": lambda cost: _hybrid(cost, policy="leap"),
}
#: the systems every declining condition is tried on
PLAIN = ["fastswap", "leap", "manager"]


def _build(name: str, cost: CostModel | None = None):
    system = BUILDERS[name](cost or CostModel())
    return system, system.allocate(OBJ_BYTES, elem_size=8, name="o").obj_id


# -- streams -----------------------------------------------------------------

# anywhere in the object, aligned or not: near a page's end an access of
# 8 or 16 bytes straddles into the next page
_offsets = st.integers(0, OBJ_BYTES - 16)
_ops = st.lists(st.tuples(_offsets, st.booleans()), min_size=1, max_size=80)
# hot ops: three pages, so long runs of hits between the faults
_hot_ops = st.lists(
    st.tuples(st.integers(0, 3 * PAGE_SIZE - 8).map(lambda o: o & ~7), st.booleans()),
    min_size=1,
    max_size=200,
)


@st.composite
def _scan(draw):
    """A strided walk: what the history policies learn and prefetch along."""
    stride = draw(st.sampled_from([512, 1024, 4096, 4104, -2048]))
    count = draw(st.integers(8, 120))
    start = draw(st.integers(0, OBJ_BYTES - 16))
    write = draw(st.booleans())
    return [((start + i * stride) % (OBJ_BYTES - 16), write) for i in range(count)]


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("ops"), _ops),
        st.tuples(st.just("ops"), _hot_ops),
        st.tuples(st.just("ops"), _scan()),
        st.tuples(st.just("prefetch"), _offsets),
        st.tuples(st.just("hint"), _offsets),
        st.tuples(st.just("flush"), _offsets),
        # long enough for an in-flight prefetch to land unobserved: its
        # first touch is then a stale ``ready_at`` (timely feedback)
        st.tuples(st.just("idle"), st.sampled_from([500, 20_000])),
    ),
    min_size=1,
    max_size=8,
)


def _apply(system, obj_id: int, steps, size: int, run_ops) -> None:
    # the public hints follow the object to whichever path it is on
    _twin_apply(system, obj_id, steps, size, run_ops, PAGE_SIZE, conserved_pages)


def _folded(system, obj_id, ops, size):
    done = _bulk(system, obj_id, ops, size)
    if done is not None:
        assert done == (len(ops), None)
        return
    # the one decline these systems allow themselves: a manager holding a
    # policy does not fold an object that sits in a cache section (the
    # hybrid after a promote)
    assert system.policy is not None and system.section_of(obj_id) is not None
    _per_op(system, obj_id, ops, size)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([1, 8, 16]), steps=_steps, suffix=_ops)
def test_bulk_access_matches_per_op_loop(name, size, steps, suffix):
    oracle, obj_id = _build(name)
    folded, _ = _build(name)
    _apply(oracle, obj_id, steps, size, _per_op)
    _apply(folded, obj_id, steps, size, _folded)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    # same residency, recency and learner state => the same victims and
    # the same prefetches from here on
    _per_op(oracle, obj_id, suffix, size)
    _per_op(folded, obj_id, suffix, size)
    assert _state(folded, obj_id) == _state(oracle, obj_id)


def _every_kind_of_event():
    scan = [(i * 512, i % 7 == 0) for i in range(20 * 8)]  # 20 pages, in order
    hot = [((i * 24) % (3 * PAGE_SIZE), i % 3 == 0) for i in range(300)]
    straddle = [(PAGE_SIZE - 4, False), (0, True), (8, False)] * 10
    return [
        ("ops", scan),  # the history policies lock on and prefetch ahead
        # an explicit range whose victims are hinted dirty pages:
        # ``prefetch_pages`` books it on one lent link, write-backs first
        ("hint", 16 * PAGE_SIZE),
        ("prefetch", 26 * PAGE_SIZE),
        ("idle", 20_000),  # ...and what is in flight lands untouched
        ("ops", [(i * 512, False) for i in range(20 * 8, 26 * 8)]),
        ("prefetch", 29 * PAGE_SIZE),
        ("ops", [(29 * PAGE_SIZE, False), (30 * PAGE_SIZE + 8, True)]),  # late hits
        ("hint", 29 * PAGE_SIZE),  # swept out below: a hinted eviction
        ("ops", hot[:150]),
        ("hint", 0),  # touched again below: the hit cancels the hint
        ("ops", hot[150:] + straddle),
        ("ops", [((i * 5 * PAGE_SIZE + 16) % OBJ_BYTES, True) for i in range(40)]),
        # arrived before their first touches: a write, a read, a repeat
        ("prefetch", 12 * PAGE_SIZE),
        ("idle", 20_000),
        ("ops", [(12 * PAGE_SIZE + 8, True), (13 * PAGE_SIZE + 16, False),
                 (12 * PAGE_SIZE, False)]),
        # arrived, then hinted: the first touches take the verb
        ("prefetch", 16 * PAGE_SIZE),
        ("idle", 20_000),
        ("hint", 16 * PAGE_SIZE),
        ("ops", [(16 * PAGE_SIZE, False), (17 * PAGE_SIZE + 8, True)]),
    ]


@pytest.mark.parametrize("name", ["fastswap", "leap", "leap-markov", "manager-markov"])
def test_stream_exercises_every_kind_of_event(name):
    """Meta-check on a fixed stream: folds, faults, dirty evictions, a late
    and (under a policy) a timely prefetch hit, a hinted eviction and a
    straddle all happen, and the fold survives them bit-exactly."""
    steps = _every_kind_of_event()
    oracle, obj_id = _build(name)
    folded, _ = _build(name)
    stats = folded.swap.stats
    evicted_dirty = 0  # write-backs of the explicit prefetches' victims
    for step in steps:
        _apply(oracle, obj_id, [step], 8, _per_op)
        writebacks = stats.writebacks
        _apply(folded, obj_id, [step], 8, _folded)
        if step[0] == "prefetch":
            evicted_dirty += stats.writebacks - writebacks
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    total = sum(len(arg) for kind, arg in steps if kind == "ops")
    assert stats.hits > 400 and stats.misses > 40
    assert stats.evictions > 0 and stats.writebacks > 0
    assert stats.prefetch_hits > 0  # stalled on a page in flight
    assert stats.hinted_evictions > 0
    assert stats.accesses > total  # straddles count two pages
    assert folded.clock.now != int(folded.clock.now)  # a fractional clock
    assert evicted_dirty > 0
    if folded.policy is not None:
        snapshot = folded.policy.snapshot()
        assert snapshot["issued"] > 0
        assert snapshot["useful_timely"] > 0 and snapshot["useful_late"] > 0


@pytest.mark.parametrize("name", ["leap", "leap-markov", "leap-learned", "hybrid-leap"])
def test_arrived_prefetches_fold_under_a_policy(name):
    """The first touch of a page whose prefetch has arrived folds in the
    walker -- the stamp cleared, the policy told ``feedback(page, True,
    True)`` and then ``record(page)``, as ``_access_page`` and
    ``_drive_policy`` would -- and never reaches ``CacheManager.access``;
    a late page, a hinted page and a fault still take the verb, each one
    call.  The policy ends where the per-op loop leaves it."""
    steps = _every_kind_of_event()
    oracle, obj_id = _build(name)
    folded, _ = _build(name)
    swap_path = name != "hybrid-leap"  # (which promotes the object early)

    def takes_the_verb(system, offset, size):
        """Not a one-page touch of a resident, un-hinted, settled page."""
        va = system.address_space.get(obj_id).base_va + offset
        pe = system.swap._pages.get(va // PAGE_SIZE)
        return (
            (va + size - 1) // PAGE_SIZE != va // PAGE_SIZE
            or pe is None
            or pe.evictable
            or pe.ready_at > system.clock.now
        )

    expected, verbs, walked = [], [], []  # walked: timely pages outside a verb
    oracle_access, folded_access = oracle.access, folded.access

    def oracle_counted(oid, offset, size, write, native=False):
        if swap_path and takes_the_verb(oracle, offset, size):
            expected.append(offset)
        oracle_access(oid, offset, size, write, native)

    def folded_counted(oid, offset, size, write, native=False):
        if folded.section_of(oid) is None:
            va = folded.address_space.get(oid).base_va + offset
            pe = folded.swap._pages.get(va // PAGE_SIZE)
            arrived = pe is not None and 0 < pe.ready_at <= folded.clock.now
            assert not arrived or pe.evictable, "an arrived page took the verb"
        verbs.append(offset)
        folded_access(oid, offset, size, write, native)
        verbs.append(None)  # (the verb returned)

    feedback = folded.policy.feedback  # (the swap's ``feedback_policy``)

    def told(page, useful, timely=False):
        if timely and (not verbs or verbs[-1] is None):
            walked.append(page)
        feedback(page, useful, timely)

    oracle.access, folded.access = oracle_counted, folded_counted
    folded.policy.feedback = told
    _apply(oracle, obj_id, steps, 8, _per_op)
    _apply(folded, obj_id, steps, 8, _folded)
    del folded.policy.feedback
    fields = ("plans", "issued", "useful_timely", "useful_late", "wasted")
    snapshot = folded.policy.snapshot()
    assert {k: snapshot[k] for k in fields} == {
        k: oracle.policy.snapshot()[k] for k in fields
    }
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    assert snapshot["useful_timely"] > 0 and snapshot["useful_late"] > 0
    assert walked  # timely feedback the walker gave
    if swap_path:
        # one call per late, hinted, absent or straddling touch, no other
        assert [off for off in verbs if off is not None] == expected
        assert len(walked) >= 5


def _fault_boundaries():
    """A fixed stream through every edge of the fault fold, each step with
    the number of per-access ``Network.read`` calls (those without a
    folded run's ``n``) it costs when plain faults fold (the pool holds 8
    pages; comments name the pages touched)."""
    P = PAGE_SIZE
    return [
        # a cold pool: 0-6 fault into free pages, each hit again at once;
        # 5 and 6 are write faults
        (("ops", [(p * P + d, p >= 5) for p in range(7) for d in (0, 8)]), 0),
        # 7 takes the last free page; 8 and 9 evict clean LRU heads 0, 1
        (("ops", [(7 * P, False), (8 * P, False), (9 * P, False)]), 0),
        (("hint", 2 * P), 0),
        # hinted clean victims 2, 3 go ahead of the LRU head
        (("ops", [(10 * P, False), (11 * P, False)]), 0),
        # 12 evicts clean 4; 13 and 14 evict dirty 5 and 6, the first
        # write-backs ever, and fold (the clock's ledger is keyed from the
        # start), and so does 15
        (("ops", [(p * P, False) for p in range(12, 16)]), 0),
        # dirty 9 written back by a flush, which books the link: 16 reads
        # past it, 17 folds
        (("ops", [(9 * P, True)]), 0),
        (("flush", 9 * P), 0),
        (("ops", [(16 * P, False), (17 * P, False)]), 1),
        # 20, 21 in flight, then made the LRU head: 22 finds the link
        # booked and the head in flight; 23, 24 find settled-but-stamped
        # heads; 25 folds
        (("prefetch", 20 * P), 0),
        (("ops", [(p * P, False) for p in (13, 14, 15, 9, 16, 17, 22, 23, 24, 25)]), 3),
        # a straddle into absent 26; a write fault and its repeat fold
        (("ops", [(26 * P - 4, False), (27 * P, True), (27 * P + 8, False)]), 1),
    ]


@pytest.mark.parametrize(
    "name", ["fastswap", "leap-none", "fastswap-queued", "fastswap-t2", "leap"]
)
def test_fault_fold_stops_at_every_boundary(name):
    """Meta-check on a fixed stream: a fault folds exactly when the page is
    absent, the link idle and the victim (if any) settled, clean or dirty,
    and the fold
    survives every boundary bit-exactly; under a swap lock or a policy no
    fault folds."""
    oracle, obj_id = _build(name)
    folded, _ = _build(name)
    network = folded.network
    reads = []  # per-access reads: a folded run of faults passes its count
    read = network.read

    def counted(*args):
        if len(args) < 3:
            reads.append(1)
        return read(*args)

    network.read = counted
    folds = folded.fault_lock is None and folded.policy is None
    stats = folded.swap.stats
    for step, expected in _fault_boundaries():
        _apply(oracle, obj_id, [step], 8, _per_op)
        fetched, before = stats.misses - stats.prefetch_hits, len(reads)
        _apply(folded, obj_id, [step], 8, _folded)
        if folds:
            assert len(reads) - before == expected, step
        else:  # every fault that fetches reads on its own
            assert len(reads) - before == stats.misses - stats.prefetch_hits - fetched
        assert _state(folded, obj_id) == _state(oracle, obj_id), step
    if folded.policy is None:  # (a policy prefetches pages of its own)
        assert stats.hinted_evictions == 2 and stats.writebacks == 3
        assert stats.prefetch_wasted == 0  # the in-flight head was passed over
        assert stats.misses == 24 and stats.prefetches_issued == 2
    if folds:
        # of 24 misses, 19 folded (``_apply`` checked their traffic)
        assert len(reads) == 5
        # the read behind a write-back queues only past a short kernel path
        waits = "net_wait" in folded.clock.breakdown()
        assert waits is (name == "fastswap-queued")


@pytest.mark.parametrize("name", ["fastswap", "leap", "manager", "hybrid"])
@pytest.mark.parametrize("faults", [1, 2, 5])
def test_run_that_more_than_doubles_the_clock(name, faults):
    """A few faults leave a small fractional clock; 3000 hits then carry it
    across several powers of two.  The run is settled in one ``n * c``
    step like any other (time is exact, DESIGN.md section 4; a float
    clock rounded once per crossing here, and such a run used to be
    charged hit by hit)."""
    ops = [(i * PAGE_SIZE, False) for i in range(faults)]
    ops += [((faults - 1) * PAGE_SIZE + 8 * (i % 64), i % 9 == 0) for i in range(3000)]
    oracle, obj_id = _build(name)
    folded, _ = _build(name)
    oracle.clock.advance(grid(0.91), "other")
    folded.clock.advance(grid(0.91), "other")
    _per_op(oracle, obj_id, ops, 8)
    _bulk_done(folded, obj_id, ops, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    hits = sum(s["hits"] for s in folded.collect_section_stats().values())
    assert hits >= 2990  # (the hybrid promotes after its first window)


@pytest.mark.parametrize("system_cls", [FastSwap, CacheManager])
def test_free_page_faults_stop_at_the_metadata_sample_point(system_cls):
    """A run of faults into free pages grows residency.  The manager
    samples ``metadata_bytes`` every 256 accesses, so a run that spans a
    sample point ends there: the peak is the residency at the 256th
    access, not at the run's end, exactly as per element."""
    pages = 512

    def build():
        system = system_cls(CostModel(), pages * PAGE_SIZE)
        return system, system.allocate(pages * PAGE_SIZE, elem_size=8, name="o").obj_id

    oracle, obj_id = build()
    folded, _ = build()
    warm = [(8 * i, False) for i in range(200)]  # one fault, 199 hits
    faults = [(p * PAGE_SIZE, p % 3 == 0) for p in range(1, 301)]  # all free
    for system, run in ((oracle, _per_op), (folded, _bulk_done)):
        run(system, obj_id, warm, 8)
        run(system, obj_id, faults, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    assert folded._access_counter == 500
    # sampled once, at access 256: the warm page and pages 1-56
    assert folded.peak_metadata_bytes == 57 * 8 < folded.metadata_bytes()


def test_hybrid_switches_paths_inside_a_chunk():
    """One chunk that runs through several windows, a promote and a demote:
    the switches happen after the same accesses, at the same clock."""
    # sparse touches (a page each): high miss rate, whole pages for 8 bytes
    sparse = [((i * 7 * PAGE_SIZE + 64) % OBJ_BYTES, i % 4 == 0) for i in range(400)]
    # 64 lines of 256 B round-robin over a 16-line... section: every one misses
    thrash = [((i * 256) % (64 * 256), False) for i in range(600)]
    dense = [(8 * (i % 512), i % 5 == 0) for i in range(700)]
    ops = dense + sparse + thrash + dense
    oracle, obj_id = _build("hybrid")
    folded, _ = _build("hybrid")
    _per_op(oracle, obj_id, ops, 8)
    _bulk_done(folded, obj_id, ops, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    assert [s["dir"] for s in folded.switch_log][:2] == ["promote", "demote"]


def test_hybrid_finishes_per_element_when_the_new_section_cannot_fold():
    """A promote mid-chunk lands the object in a cache section, where a
    manager holding a prefetch policy declines a new chunk (the policy
    feeds on the swap path only): what is left of this one is walked all
    the same -- no event of a section feeds the policy -- and the call has
    done the whole chunk."""
    # the 20 sparse touches end the fifth window of 64: promote at op 320
    sparse = [((i * 7 * PAGE_SIZE + 64) % OBJ_BYTES, False) for i in range(20)]
    dense = [(8 * (i % 512), i % 5 == 0) for i in range(300)]
    ops = dense + sparse + dense
    oracle, obj_id = _build("hybrid-leap")
    folded, _ = _build("hybrid-leap")
    _per_op(oracle, obj_id, ops, 8)
    _bulk_done(folded, obj_id, ops, 8)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    assert [s["dir"] for s in folded.switch_log] == ["promote"]
    # ...and from then on the chunk is declined whole
    before = _state(folded, obj_id)
    assert _bulk(folded, obj_id, dense, 8) is None
    assert _state(folded, obj_id) == before


def test_ambient_leap_folds_or_declines_cleanly():
    """``Leap()`` takes its policy from ``$REPRO_PREFETCH`` (CI runs this
    file under every value): whichever it is, the chunk is either done
    exactly or not touched."""
    steps = _every_kind_of_event()
    oracle = Leap(CostModel(), LOCAL)
    folded = Leap(CostModel(), LOCAL)
    obj_id = oracle.allocate(OBJ_BYTES, elem_size=8, name="o").obj_id
    folded.allocate(OBJ_BYTES, elem_size=8, name="o")
    policy = folded.policy
    folds = policy is None or policy.repeat_is_noop

    def either(system, obj_id, ops, size):
        before = _state(system, obj_id)
        done = _bulk(system, obj_id, ops, size)
        assert done == ((len(ops), None) if folds else None)
        if done is None:
            assert _state(system, obj_id) == before
            _per_op(system, obj_id, ops, size)

    _apply(oracle, obj_id, steps, 8, _per_op)
    _apply(folded, obj_id, steps, 8, either)
    assert _state(folded, obj_id) == _state(oracle, obj_id)


# -- declining: None, and nothing done ---------------------------------------

_WARM = [(i * 64, i % 4 == 0) for i in range(256)]  # four pages, 64 touches each
_PROBE = [(0, False), (8, True), (5 * PAGE_SIZE, False), (16, False)]


def _warm(name: str, cost: CostModel | None = None):
    system, obj_id = _build(name, cost)
    _per_op(system, obj_id, _WARM, 8)
    return system, obj_id


def _declines(system, obj_id: int, ops=_PROBE) -> None:
    declines(system, obj_id, ops)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_accepts_when_nothing_listens(name):
    system, obj_id = _warm(name)
    _bulk_done(system, obj_id, _PROBE, 8)
    _bulk_done(system, obj_id, [], 8)


@pytest.mark.parametrize(
    "build",
    [
        lambda cost: Leap(cost, LOCAL, policy="programmed"),
        lambda cost: FastSwap(cost, LOCAL, policy="programmed"),
        lambda cost: CacheManager(cost, LOCAL, policy="programmed"),
    ],
    ids=["leap", "fastswap", "manager"],
)
def test_declines_with_a_policy_that_counts_repeats(build):
    system = build(CostModel())
    assert system.policy.repeat_is_noop is False
    obj_id = system.allocate(OBJ_BYTES, elem_size=8, name="o").obj_id
    _per_op(system, obj_id, _WARM, 8)
    _declines(system, obj_id)


@pytest.mark.parametrize("name", PLAIN)
def test_declines_with_tracer_or_access_log(name):
    for tracer in (Tracer(), Tracer(access_log=True)):
        system, obj_id = _warm(name)
        system.set_tracer(tracer)
        _declines(system, obj_id)


@pytest.mark.parametrize("name", PLAIN)
def test_declines_with_telemetry(name):
    system, obj_id = _warm(name)
    system.set_telemetry(TelemetryCollector(window_ns=1000.0))
    _declines(system, obj_id)


@pytest.mark.parametrize("name", PLAIN)
def test_declines_with_fault_plan(name):
    system, obj_id = _warm(name)
    system.enable_faults(FaultPlan(seed=1))
    _declines(system, obj_id)


@pytest.mark.parametrize("name", PLAIN)
@pytest.mark.parametrize("override", [{"dram_access_ns": 33.3}, {"cpu_op_ns": 1.5}])
def test_folds_on_non_integer_charges(name, override):
    """No cost model declines: its durations are snapped to the time grid
    once, and from there ``n * c`` is ``n`` adds of ``c`` (such a model
    used to be refused, and ran per element)."""
    cost = CostModel().with_overrides(**override)
    steps = _every_kind_of_event()
    oracle, obj_id = _build(name, cost)
    folded, _ = _build(name, cost)
    _apply(oracle, obj_id, steps, 8, _per_op)
    _apply(folded, obj_id, steps, 8, _bulk_done)
    assert _state(folded, obj_id) == _state(oracle, obj_id)
    assert folded.swap.stats.hits > 400


@pytest.mark.parametrize("name", PLAIN)
@pytest.mark.parametrize("bad", [-8, OBJ_BYTES - 4, OBJ_BYTES])
def test_declines_on_out_of_range_offset(name, bad):
    """The stream's stop contract: the ops ahead of the bad op are
    applied, and the bad op is returned untouched, so the per-element
    loop raises the canonical error at the op that earns it (``access``
    checks the object's end)."""
    (oracle, _), (system, obj_id) = _warm(name), _warm(name)
    stops(oracle, system, obj_id, [(0, False), (bad, False), (8, True)], 1)
