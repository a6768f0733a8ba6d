"""Replay equivalence: recorded runs must reproduce bit-exactly.

The contract (DESIGN.md section 4h): any run traced with
``Tracer(access_log=True)`` -- raw trace scenarios and full IR workloads
alike -- replays on a freshly built identical system to the *same*
virtual time, the *same* event stream, and the *same* per-section
hit/miss/eviction counters.  The strict-overshoot rule turns any state
drift into a typed :class:`ReplayDivergence` instead of a near-miss.
"""

import importlib.util
import pathlib

import pytest

from repro.bench.harness import BASELINE_SYSTEMS, ModuleMemo
from repro.cache.manager import CacheManager
from repro.core import MiraController, run_on_baseline, run_plan
from repro.errors import ReplayDivergence, TraceError
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.workloads import make_workload
from repro.workloads.trace import (
    SCENARIOS,
    ScenarioSpec,
    compare_traces,
    make_system,
    replay_events,
    replay_trace_file,
    run_scenario,
    split_runs,
    system_counters,
)

#: per-workload sizes small enough for tier-1 yet exercising every op
#: kind the workloads emit (batching, offload RPC, hints, native spans)
WORKLOAD_PARAMS = {
    "array_sum": {"num_elems": 8192},
    "dataframe": {"num_rows": 2048},
    "graph_traversal": {"num_nodes": 500, "num_edges": 1500},
    "mcf": {"num_nodes": 256, "num_arcs": 1024},
    "gpt2": {"layers": 3, "d_model": 64, "seq_len": 32, "batch": 2,
             "passes": 1, "warmup_passes": 1},
}

RATIO = 0.5


@pytest.fixture(autouse=True)
def _pin_prefetch_env(monkeypatch):
    # replay rebuilds systems from scratch; results must not depend on
    # the ambient prefetch-policy override
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)


def _dicts(tracer: Tracer) -> list[dict]:
    return [{"k": k, "t": t, **f} for k, t, f in tracer.events]


def _check_replay(recorded_events, recorded_res, fresh_system, context):
    tr2 = Tracer(access_log=True)
    fresh_system.set_tracer(tr2)
    replayed = replay_events(
        fresh_system, recorded_events, elapsed_ns=recorded_res.elapsed_ns
    )
    n = compare_traces(recorded_events, tr2.events, context=context)
    assert n > 0
    assert replayed.elapsed_ns == recorded_res.elapsed_ns
    assert replayed.counters == system_counters(recorded_res.memsys)
    return replayed


# -- IR workloads, baseline chassis ------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOAD_PARAMS))
def test_ir_workload_replays_bit_exact_on_fastswap(workload):
    cost = CostModel()
    wl = make_workload(workload, **WORKLOAD_PARAMS[workload])
    memo = ModuleMemo(wl)
    local = max(4096, int(memo.footprint_bytes * RATIO))
    tracer = Tracer(access_log=True)
    res = run_on_baseline(
        memo.module,
        BASELINE_SYSTEMS["fastswap"](cost, local),
        wl.data_init,
        entry=wl.entry,
        tracer=tracer,
    )
    _check_replay(
        _dicts(tracer),
        res,
        BASELINE_SYSTEMS["fastswap"](cost, local),
        f"{workload}/fastswap",
    )


# -- IR workloads, full Mira plan --------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOAD_PARAMS))
def test_ir_workload_replays_bit_exact_on_mira(workload):
    cost = CostModel()
    wl = make_workload(workload, **WORKLOAD_PARAMS[workload])
    memo = ModuleMemo(wl)
    local = max(4096, int(memo.footprint_bytes * RATIO))
    controller = MiraController(
        memo.fresh, cost, local, data_init=wl.data_init, entry=wl.entry,
        max_iterations=2,
    )
    program = controller.optimize()  # untraced; only the final run is pinned
    tracer = Tracer(access_log=True)
    res = run_plan(
        program.module, cost, local, data_init=wl.data_init, entry=wl.entry,
        tracer=tracer,
    )
    # a bare CacheManager: the recorded mem.open events rebuild the plan's
    # sections during replay
    _check_replay(_dicts(tracer), res, CacheManager(cost, local), f"{workload}/mira")


# -- raw scenarios, every system ---------------------------------------------

_QUICK = ScenarioSpec(
    "quick_mixed", "mixed",
    {"phases": [
        {"kind": "zipf", "num_pages": 32, "num_events": 1200},
        {"kind": "pointer_chase", "num_pages": 32, "num_events": 800,
         "offset": 1 << 18},
    ]},
    seed=13,
)


@pytest.mark.parametrize(
    "system",
    ["fastswap", "leap", "aifm", "mira-direct", "mira-set", "mira-full",
     "hybrid"],
)
def test_raw_scenario_self_replay_across_systems(system):
    tracer = Tracer(access_log=True)
    res = run_scenario(_QUICK, system, RATIO, tracer=tracer)
    fresh = make_system(system, res.local_mem_bytes)
    tr2 = Tracer(access_log=True)
    fresh.set_tracer(tr2)
    replayed = replay_events(fresh, _dicts(tracer), elapsed_ns=res.elapsed_ns)
    compare_traces(tracer.events, tr2.events, context=f"quick_mixed/{system}")
    assert replayed.elapsed_ns == res.elapsed_ns
    assert replayed.counters == res.sections


def test_scenario_rerun_is_deterministic():
    a = run_scenario("zipf_hot", "mira-set", RATIO)
    b = run_scenario("zipf_hot", "mira-set", RATIO)
    assert a.elapsed_ns == b.elapsed_ns
    assert a.sections == b.sections


# -- address translation at region boundaries --------------------------------

# Two page-aligned regions separated by a gap far larger than
# REGION_GAP_PAGES, so the cached-last-region fast path in replay_ops has
# a stale-cache hazard to get wrong at every boundary.
_REGIONS = [(0, 2 * 4096), (100 * 4096, 4096)]


def _replay_boundary_ops(ops, regions=None):
    from repro.baselines import FastSwap

    system = FastSwap(CostModel(), 1 << 20)
    from repro.workloads.trace.replay import replay_ops

    return replay_ops(system, ops, regions if regions is not None else _REGIONS)


def test_replay_ops_boundary_addresses_translate():
    """First byte, last aligned slot, and cross-region hops -- including
    returning to a region after the cache moved past it -- all resolve."""
    ops = [
        (0, 0),  # first byte of region 0
        (2 * 4096 - 8, 0),  # last aligned 8-byte slot of region 0
        (100 * 4096, 0),  # first byte of region 1 (cache moves forward)
        (100 * 4096 + 4096 - 8, 1),  # last aligned slot of region 1
        (0, 1),  # back to region 0: the cached region 1 must not be used
        (2 * 4096 - 8, 0),
    ]
    assert _replay_boundary_ops(ops) == len(ops)


def test_replay_ops_one_past_region_end_raises():
    from repro.errors import MemoryError_

    with pytest.raises(MemoryError_, match="gap after region 0"):
        _replay_boundary_ops([(2 * 4096, 0)])


def test_replay_ops_gap_address_raises_even_with_stale_cache():
    """After the cache has advanced to region 1, an address one past
    region 0's end must still raise -- never silently mistranslate into
    the cached region's object."""
    from repro.errors import MemoryError_

    with pytest.raises(MemoryError_, match="gap after region 0"):
        _replay_boundary_ops([(100 * 4096, 0), (2 * 4096, 0)])


def test_replay_ops_past_last_region_raises():
    from repro.errors import MemoryError_

    with pytest.raises(MemoryError_, match="gap after region 1"):
        _replay_boundary_ops([(100 * 4096 + 4096, 0)])


def test_replay_ops_below_every_region_raises():
    from repro.errors import MemoryError_

    with pytest.raises(MemoryError_, match="below every mapped region"):
        _replay_boundary_ops([(0, 0)], regions=[(4096, 4096)])


def test_replay_ops_straddling_region_end_raises():
    """An access that starts in-bounds but runs past the region's end is
    the canonical straddle error, not a silent partial read."""
    from repro.errors import MemoryError_

    with pytest.raises(MemoryError_):
        _replay_boundary_ops([(2 * 4096 - 4, 0)])


# -- the stream path against the per-op loop ---------------------------------
#
# ``replay_ops`` hands its op iterator to ``stream_access`` once per run of
# ops in one region; on mira-* the run is folded.  The oracle below is the
# per-op loop written out again (linear region search), so it shares no
# code with either path.

#: a stream length the tests below shape their inputs in
_N = 512


def _mira_twin():
    # a 12-line section: the 12 hot lines of each region evict each other
    return make_system("mira-set", 4096)


def _oracle_replay(system, ops, regions):
    from repro.errors import MemoryError_

    objs = []
    for k, (base, size) in enumerate(regions):
        obj = system.allocate(size, elem_size=8, name=f"trace_region_{k}",
                              attrs={"aifm_obj_bytes": 256})
        system.assign(obj.obj_id, "trace")
        objs.append((base, obj))
    clock, cost = system.clock, system.cost
    for op in ops:
        addr = op[0]
        hit = [(b, o) for b, o in objs if b <= addr and addr + 8 <= b + o.size]
        if not hit:
            raise MemoryError_(f"oracle: {addr:#x} unmapped")
        base, obj = hit[0]
        clock.advance(cost.dram_access_ns, "dram")
        clock.charge(cost.cpu_op_ns)
        system.access(obj.obj_id, addr - base, 8, bool(op[1]))
    clock.flush()


def _observable(system):
    system.clock.flush()
    return (
        system.clock.now,
        system.clock.breakdown(),
        system_counters(system),
        vars(system.network.stats),
        system.peak_metadata_bytes,
    )


def _hot_ops(n, region_base=0, tid=None):
    """``n`` ops over 12 lines of one region: mostly hits, some writes."""
    ops = [(region_base + (i * 40) % (12 * 256), i % 5 == 0) for i in range(n)]
    return ops if tid is None else [(a, w, tid) for a, w in ops]


def test_chunked_replay_matches_per_op_loop_across_regions():
    """Runs inside one region fold; a hop between regions ends a run and
    starts the next (each run's first op per op), mid-stream as often as
    every op.  Same end state either way."""
    from repro.workloads.trace.replay import replay_ops

    hop = [(0, 0), (100 * 4096 + 8, 1)] * (_N // 2)
    ops = (
        _hot_ops(_N + 100)
        + hop
        + _hot_ops(2 * _N, region_base=100 * 4096)
        + _hot_ops(_N // 3)
    )
    chunked, oracle = _mira_twin(), _mira_twin()
    assert replay_ops(chunked, iter(ops), _REGIONS, assign_section="trace") == len(ops)
    _oracle_replay(oracle, ops, _REGIONS)
    assert _observable(chunked) == _observable(oracle)
    stats = system_counters(chunked)["trace"]
    assert stats["hits"] > 3 * _N and stats["evictions"] > 0


def test_chunked_replay_accepts_three_tuple_ops():
    from repro.workloads.trace.replay import replay_ops

    ops = _hot_ops(2 * _N + 7, tid=3)
    # mixed arity inside one run, as a hand-edited trace file yields: a
    # stream that starts with three fields, and one that starts with two
    ops[5] = ops[5][:2]
    columns = [list(column) for column in zip(*_hot_ops(_N, tid=3))]
    for stream in (ops, ops[5:] + [(100 * 4096 + 8, 1, 2)] + ops[:5], columns):
        chunked, oracle = _mira_twin(), _mira_twin()
        # (three columns zipped: three fields each)
        source = zip(*stream) if stream is columns else iter(stream)
        replayed = replay_ops(chunked, source, _REGIONS, assign_section="trace")
        assert replayed == len(stream[0] if stream is columns else stream)
        expected = list(zip(*columns)) if stream is columns else stream
        _oracle_replay(oracle, expected, _REGIONS)
        assert _observable(chunked) == _observable(oracle)


@pytest.mark.parametrize(
    "bad, message",
    [
        (2 * 4096, "gap after region 0"),  # one past region 0's end
        (50 * 4096, "gap after region 0"),  # deep in the gap
        (101 * 4096, "gap after region 1"),  # past the last region
        (2 * 4096 - 4, "straddles"),  # starts inside, ends outside
    ],
)
def test_unmapped_address_mid_chunk_raises_at_its_own_op(bad, message):
    """The bad address sits mid-stream: every op before it has been
    applied, none after, exactly as the per-op loop leaves things."""
    from repro.errors import MemoryError_
    from repro.workloads.trace.replay import replay_ops

    good = _hot_ops(_N + _N // 2)
    ops = good + [(bad, 0)] + _hot_ops(100)
    chunked, oracle = _mira_twin(), _mira_twin()
    with pytest.raises(MemoryError_, match=message):
        replay_ops(chunked, iter(ops), _REGIONS, assign_section="trace")
    with pytest.raises(MemoryError_):
        _oracle_replay(oracle, ops, _REGIONS)
    assert _observable(chunked) == _observable(oracle)
    assert sum(s["accesses"] for s in system_counters(chunked).values()) == len(good)


def test_below_every_region_mid_chunk_raises_at_its_own_op():
    from repro.errors import MemoryError_
    from repro.workloads.trace.replay import replay_ops

    regions = [(4096, 2 * 4096)]
    good = _hot_ops(_N + 10, region_base=4096)
    ops = good + [(4088, 0)] + good
    chunked, oracle = _mira_twin(), _mira_twin()
    with pytest.raises(MemoryError_, match="below every mapped region"):
        replay_ops(chunked, iter(ops), regions, assign_section="trace")
    with pytest.raises(MemoryError_):
        _oracle_replay(oracle, ops, regions)
    assert _observable(chunked) == _observable(oracle)


@pytest.mark.parametrize(
    "system", ["mira-set", "mira-direct", "leap", "fastswap", "hybrid"]
)
def test_stream_replay_at_a_nonzero_base_matches_per_op_loop(system):
    """Regions that start far from address 0, one of them hopped into and
    out of mid-stream: every run is translated to its object's offsets."""
    from repro.workloads.trace.replay import replay_ops

    regions = [(64 * 4096, 8 * 4096), (300 * 4096, 4 * 4096)]
    ops = (
        _scan_ops(pages=8, passes=1, base=64 * 4096)
        + _hot_ops(_N // 2, region_base=300 * 4096)
        + _scan_ops(pages=8, passes=1, base=64 * 4096)
    )
    assign = "trace" if system.startswith("mira-") else None
    oracle = _per_op_twin(make_system(system, 4 * 4096))
    streamed = make_system(system, 4 * 4096)
    replay_ops(oracle, iter(ops), regions, assign_section=assign)
    assert replay_ops(streamed, iter(ops), regions, assign_section=assign) == len(ops)
    assert _observable(streamed) == _observable(oracle)


@pytest.mark.parametrize("system", ["mira-set", "leap"])
@pytest.mark.parametrize("bad", [4996, 5000, -8])
def test_stream_stops_at_the_op_that_leaves_a_partial_object(system, bad):
    """An object whose last line and page are partial: the walk takes
    every op up to the one that leaves the object, charges none of it and
    hands it back, the stream positioned just past it -- the per-element
    loop's state when that op's access raises."""
    from repro.errors import MemoryError_

    cost = CostModel.rdma()
    dram, cpu = cost.dram_access_ns, cost.cpu_op_ns
    ops = [((i * 40) % 4992, i % 3 == 0) for i in range(300)] + [(4992, 1)]
    systems = []
    for _ in range(2):
        built = make_system(system, 4 * 4096)
        obj = built.allocate(5000, elem_size=8, name="partial")
        if system.startswith("mira-"):
            built.assign(obj.obj_id, "trace")
        systems.append((built, obj.obj_id))
    (streamed, oid), (oracle, _) = systems
    it = iter(ops + [(bad, 0), (8, 1)])
    assert streamed.stream_access(oid, it, 8, dram, cpu, 0.0) == (len(ops), (bad, 0))
    assert next(it) == (8, 1)
    for off, w in ops:
        oracle.clock.advance(dram, "dram")
        oracle.clock.charge(cpu)
        oracle.access(oid, off, 8, w)
    with pytest.raises(MemoryError_):
        oracle.access(oid, bad, 8, False)
    assert _observable(streamed) == _observable(oracle)


def test_replay_stops_offering_chunks_once_declined():
    """A system that declines (here: a tracer is listening) is asked once
    per stream, and replays to the same virtual time."""
    from repro.workloads.trace.replay import replay_ops

    ops = _hot_ops(4 * _N)
    plain, traced = _mira_twin(), _mira_twin()
    traced.set_tracer(Tracer())
    offered = []
    declined = traced.stream_access
    traced.stream_access = lambda *a: offered.append(a[0]) or declined(*a)
    replay_ops(plain, iter(ops), _REGIONS, assign_section="trace")
    replay_ops(traced, iter(ops), _REGIONS, assign_section="trace")
    assert len(offered) == 1
    assert traced.clock.now == plain.clock.now
    assert system_counters(traced) == system_counters(plain)


# -- the swap path folds under replay ------------------------------------------


def _scan_ops(pages, passes=2, stride=64, base=0):
    """A sequential scan: 64 touches per page, one write in ten."""
    n = pages * 4096 // stride
    return [(base + (i % n) * stride, i % 10 == 0) for i in range(passes * n)]


def _per_op_twin(system):
    """The same system, made to decline every stream: the per-op oracle."""
    system.stream_access = lambda *a: None
    return system


def _count_per_op(monkeypatch):
    """Record how many ops each ``_replay_per_op`` call replayed."""
    from repro.workloads.trace import replay

    replayed = []
    per_op = replay._replay_per_op

    def counting(*args):
        replayed.append(per_op(*args))
        return replayed[-1]

    monkeypatch.setattr(replay, "_replay_per_op", counting)
    return replayed


@pytest.mark.parametrize("system", ["leap", "fastswap", "hybrid"])
def test_sequential_replay_on_the_swap_path_is_folded(system, monkeypatch):
    """The fold is engaged, not silently declined: ``stream_access`` takes
    every op but the run's first, which the per-op loop takes, and the
    result is the per-op replay's."""
    from repro.workloads.trace.replay import replay_ops

    ops = _scan_ops(pages=64)
    regions = [(0, 64 * 4096)]
    oracle = _per_op_twin(make_system(system, 16 * 4096))
    replay_ops(oracle, iter(ops), regions)
    replayed = _count_per_op(monkeypatch)
    folded = make_system(system, 16 * 4096)
    # two columns zipped, as the benchmark feeds them: the walker takes
    # the zip itself
    columns = zip(*ops)
    assert replay_ops(folded, zip(*columns), regions) == len(ops)
    assert replayed == [1]
    assert folded.clock.now == oracle.clock.now
    assert folded.clock.breakdown() == oracle.clock.breakdown()
    assert system_counters(folded) == system_counters(oracle)
    assert vars(folded.network.stats) == vars(oracle.network.stats)
    swap = system_counters(folded)["swap"]
    assert swap["hits"] > 60 * swap["misses"] > 0


def test_programmed_leap_is_asked_once_then_replayed_per_op(monkeypatch):
    """``programmed`` counts repeats, so Leap declines under it: the
    stream is offered once, and all of it goes per op."""
    from repro.workloads.trace.replay import replay_ops

    ops = _scan_ops(pages=16)
    assert len(ops) > 3 * _N
    system = make_system("leap", 8 * 4096, policy="programmed")
    offered = []
    declined = system.stream_access
    system.stream_access = lambda *a: offered.append(a[0]) or declined(*a)
    replayed = _count_per_op(monkeypatch)
    assert replay_ops(system, iter(ops), [(0, 16 * 4096)]) == len(ops)
    assert len(offered) == 1
    assert replayed == [1, len(ops) - 1]


def test_native_replay_takes_every_chunk_unless_the_access_log_records(monkeypatch):
    """The native reference run folds too (every access is free, a run
    is its charges): the stream taken, the per-op replay's clock; with the
    access log on it declines once and every op is recorded."""
    from repro.workloads.trace.replay import replay_ops

    ops = _scan_ops(pages=16)
    regions = [(0, 16 * 4096)]
    oracle = _per_op_twin(make_system("native", 1 << 20))
    replay_ops(oracle, iter(ops), regions)
    replayed = _count_per_op(monkeypatch)
    folded = make_system("native", 1 << 20)
    assert replay_ops(folded, iter(ops), regions) == len(ops)
    assert replayed == [1]
    assert folded.clock.now == oracle.clock.now
    assert folded.clock.breakdown() == oracle.clock.breakdown()

    logged = make_system("native", 1 << 20)
    tracer = Tracer(access_log=True)
    logged.set_tracer(tracer)
    offered = []
    declined = logged.stream_access
    logged.stream_access = lambda *a: offered.append(a[0]) or declined(*a)
    del replayed[:]
    assert replay_ops(logged, iter(ops), regions) == len(ops)
    assert len(offered) == 1
    assert replayed == [1, len(ops) - 1]
    assert logged.clock.now == oracle.clock.now
    assert sum(kind == "mem.access" for kind, _, _ in tracer.events) == len(ops)


def test_hybrid_replay_switches_where_the_per_op_replay_does():
    """``trace_rw_hybrid``-shaped input -- a read-only scan, then skewed
    traffic with writes: the stream straddles window boundaries and the promote,
    and every switch lands after the same access, at the same clock, with
    the same windowed signals."""
    from repro.workloads.trace.replay import replay_ops

    spec = ScenarioSpec(
        "rw", "mixed",
        {"phases": [
            {"kind": "sequential", "num_bytes": 1 << 20, "num_events": 9000,
             "read_ratio": 1.0},
            {"kind": "zipf", "num_pages": 192, "num_events": 9000,
             "alpha": 0.8, "read_ratio": 0.3},
        ]},
        seed=8,
    )
    regions = [(0, spec.footprint_bytes)]
    local = spec.footprint_bytes // 4

    def windows(system):
        return {
            name: (g.path, g.win_acc, g.win_miss, g.win_bytes, g.cooldown)
            for name, g in system.groups().items()
        }

    oracle = _per_op_twin(make_system("hybrid", local))
    folded = make_system("hybrid", local)
    replay_ops(oracle, spec.ops(), regions)
    assert replay_ops(folded, spec.ops(), regions) == 18000
    assert folded.switch_log == oracle.switch_log
    assert [s["dir"] for s in folded.switch_log] == ["promote"]
    assert windows(folded) == windows(oracle)
    assert _observable(folded) == _observable(oracle)
    counters = system_counters(folded)
    assert counters["swap"]["hits"] > 5000 and counters["trace"]["writebacks"] > 0


# -- divergence detection ----------------------------------------------------


def _small_recorded_run():
    tracer = Tracer(access_log=True)
    # 8 pages of skewed traffic at 4 resident: evictions happen, so the
    # recorded timing is sensitive to the system's geometry
    spec = ScenarioSpec("tiny", "zipf", {"num_pages": 8, "num_events": 400},
                        seed=3)
    res = run_scenario(spec, "fastswap", RATIO, tracer=tracer)
    return _dicts(tracer), res


def test_strict_overshoot_raises():
    events, res = _small_recorded_run()
    # pull one op's entry time earlier than its predecessor: the replay
    # clock will already be past it
    ops = [e for e in events if e["k"] == "mem.access"]
    ops[50]["t"] = ops[49]["t"] - 1.0
    fresh = make_system("fastswap", res.local_mem_bytes)
    with pytest.raises(ReplayDivergence, match="overshot"):
        replay_events(fresh, events, elapsed_ns=res.elapsed_ns)


def test_end_of_run_overshoot_raises():
    events, res = _small_recorded_run()
    fresh = make_system("fastswap", res.local_mem_bytes)
    with pytest.raises(ReplayDivergence, match="overshot"):
        replay_events(fresh, events, elapsed_ns=res.elapsed_ns / 2)


def test_forbidden_kinds_rejected():
    events, res = _small_recorded_run()
    events.insert(3, {"k": "thread.fork", "t": 0.0, "tid": 1})
    fresh = make_system("fastswap", res.local_mem_bytes)
    with pytest.raises(ReplayDivergence, match="not replayable"):
        replay_events(fresh, events, elapsed_ns=res.elapsed_ns)


def test_compare_traces_reports_first_difference():
    events, _ = _small_recorded_run()
    mutated = [dict(e) for e in events]
    mutated[10]["t"] = mutated[10]["t"] + 1.0
    with pytest.raises(ReplayDivergence, match="compared event 10"):
        compare_traces(events, mutated)
    with pytest.raises(ReplayDivergence, match="recorded events"):
        compare_traces(events, events[:-1])
    assert compare_traces(events, [dict(e) for e in events]) == len(events)


def test_wrong_geometry_diverges():
    events, res = _small_recorded_run()
    # half the local memory: the replayed system faults where the original
    # hit, so some access entry lands with the clock already past it
    fresh = make_system("fastswap", max(4096, res.local_mem_bytes // 2))
    with pytest.raises(ReplayDivergence):
        replay_events(fresh, events, elapsed_ns=res.elapsed_ns)


# -- multi-run traces --------------------------------------------------------


def test_split_runs_on_clock_resets():
    mk = lambda t: {"k": "mem.access", "t": t}
    events = [mk(0.0), mk(5.0), mk(9.0), mk(0.0), mk(2.0), mk(1.0)]
    runs = split_runs(events)
    assert [len(r) for r in runs] == [3, 2, 1]
    assert split_runs([]) == []
    # equal successive times never split (many ops share one entry time)
    assert len(split_runs([mk(0.0), mk(0.0), mk(3.0)])) == 1


# -- file-level round trip (scripts/make_trace.py) ---------------------------


def _load_make_trace():
    path = (
        pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_trace.py"
    )
    spec = importlib.util.spec_from_file_location("make_trace", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_make_trace_file_replays_bit_exact(tmp_path):
    mt = _load_make_trace()
    out = tmp_path / "t.jsonl"
    rc = mt.main(
        ["--workload", "array_sum", "--system", "fastswap", "--out", str(out)]
    )
    assert rc == 0
    result = replay_trace_file(str(out))  # raises ReplayDivergence on drift
    assert result.num_ops > 0 and result.elapsed_ns > 0


def test_make_trace_refuses_overwrite(tmp_path):
    mt = _load_make_trace()
    out = tmp_path / "t.jsonl"
    args = ["--workload", "array_sum", "--system", "native", "--out", str(out)]
    assert mt.main(args) == 0
    assert mt.main(args) == 2  # exists, no --force
    assert mt.main(args + ["--force"]) == 0


def test_replay_requires_access_log(tmp_path):
    tracer = Tracer()  # no op log
    run_scenario(_QUICK, "fastswap", RATIO, tracer=tracer)
    path = tmp_path / "plain.jsonl"
    tracer.write_jsonl(path)
    with pytest.raises(TraceError, match="access_log"):
        replay_trace_file(str(path))


def test_scenario_corpus_is_complete():
    # the pinned corpus the benchmark and CI golden tests sweep
    assert len(SCENARIOS) >= 8
    kinds = {spec.kind for spec in SCENARIOS.values()}
    assert kinds == {"zipf", "sequential", "pointer_chase", "mixed"}
