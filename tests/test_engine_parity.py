"""Engine parity: the codegen engine must be bit-identical to the
reference interpreter.

The source-lowering codegen engine (``repro/runtime/codegen.py``, the
default) is a pure performance optimization; its contract is that every
observable output -- program results, total virtual time, and the
per-category breakdown -- is *exactly* equal to the reference
tree-walker's, on every workload and every memory system.  These tests
run each paper workload under both engines (native plus all four systems
at two local-memory ratios) and compare complete run fingerprints with
``==``: no tolerances anywhere.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.baselines import NativeMemory
from repro.bench.harness import BASELINE_SYSTEMS, ModuleMemo, effective_ns
from repro.core import MiraController, run_on_baseline, run_plan
from repro.errors import AllocationError
from repro.ir.builder import IRBuilder
from repro.ir.types import I64, INDEX, FloatType
from repro.ir.verifier import verify
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.workloads import make_workload

COST = CostModel()
RATIOS = (0.25, 0.6)
SYSTEMS = ("fastswap", "leap", "aifm", "mira")

#: small but structurally faithful instances of the five paper workloads
WORKLOADS: dict[str, dict] = {
    "graph_traversal": {"num_edges": 1500, "num_nodes": 500},
    "dataframe": {"num_rows": 2048},
    "gpt2": {
        "layers": 3,
        "d_model": 64,
        "seq_len": 32,
        "batch": 2,
        "passes": 1,
        "warmup_passes": 1,
    },
    "mcf": {"num_nodes": 2048, "num_arcs": 2048, "iterations": 1, "chases": 32},
    "array_sum": {"num_elems": 4096},
}


def _run_fingerprint(result, workload):
    workload.verify_results(result.results)
    return {
        "results": list(result.results),
        "elapsed_ns": result.elapsed_ns,
        "effective_ns": effective_ns(result),
        "breakdown": result.breakdown,
    }


def _system_fingerprint(workload, memo, system, ratio):
    local = max(4096, int(memo.footprint_bytes * ratio))
    if system == "mira":
        controller = MiraController(
            memo.fresh,
            COST,
            local,
            data_init=workload.data_init,
            entry=workload.entry,
            max_iterations=1,
        )
        program = controller.optimize()
        result = run_plan(
            program.module, COST, local, data_init=workload.data_init,
            entry=workload.entry,
        )
        return _run_fingerprint(result, workload)
    cls = BASELINE_SYSTEMS[system]
    try:
        result = run_on_baseline(
            memo.module, cls(COST, local), workload.data_init, entry=workload.entry
        )
    except AllocationError as e:
        # AIFM's metadata failures (Fig. 18) must reproduce identically too
        return {"failed": str(e)}
    return _run_fingerprint(result, workload)


def _fingerprint(name: str) -> dict:
    """Everything observable about one workload under the current engine."""
    workload = make_workload(name, **WORKLOADS[name])
    memo = ModuleMemo(workload)
    native = run_on_baseline(
        memo.module,
        NativeMemory(COST, 2 * memo.footprint_bytes + (1 << 20)),
        workload.data_init,
        entry=workload.entry,
    )
    fp = {"native": _run_fingerprint(native, workload)}
    for ratio in RATIOS:
        for system in SYSTEMS:
            fp[f"{system}@{ratio}"] = _system_fingerprint(
                workload, memo, system, ratio
            )
    return fp


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_engines_bit_identical(name, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    reference = _fingerprint(name)
    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    codegen = _fingerprint(name)
    assert set(reference) == set(codegen)
    for point in reference:
        assert reference[point] == codegen[point], (
            f"{name}: codegen diverges from reference at {point}"
        )


# -- randomized differential fuzzing ----------------------------------------
#
# Small random IR programs, generated deterministically from a seed, run
# under both engines on native memory and on FastSwap at a tight local
# ratio.  The fingerprint adds the *trace digest* to the parity contract:
# both engines must emit byte-identical event streams, not just identical
# end-of-run aggregates.

F64 = FloatType(64)


def _build_fuzz_module(seed: int):
    """One random program: an init loop, then 4-8 random statements over
    1-2 f64 arrays, returning an f64 accumulator."""
    rng = random.Random(seed)
    b = IRBuilder()
    n = rng.choice((64, 96, 128, 192, 256))
    num_arrays = rng.choice((1, 2))
    with b.func("main", result_types=[F64]):
        # remotable allocations so rmem hint ops (prefetch/flush/evict)
        # are legal; native memory simply ignores the hints
        arrays = [
            b.ralloc(F64, n, f"arr{a}") for a in range(num_arrays)
        ]
        # deterministic init so loads see defined values
        with b.for_(0, n) as loop:
            fv = b.cast(loop.iv, F64)
            for a, arr in enumerate(arrays):
                b.store(b.add(b.mul(fv, float(a + 1)), 1.0), arr, loop.iv)
        total = b.f64(0.0)
        for _ in range(rng.randint(4, 8)):
            stmt = rng.choice(
                ("sum", "write", "if", "hints", "work", "touch", "parallel")
            )
            arr = rng.choice(arrays)
            if stmt == "sum":
                k = rng.randint(0, n - 1)
                stride = rng.choice((1, 2, 3, 7))
                with b.for_(0, n, step=stride, iter_args=[total]) as loop:
                    idx = b.rem(b.add(loop.iv, k), n)
                    x = b.load(arr, idx)
                    b.yield_([b.add(loop.args[0], x)])
                total = loop.results[0]
            elif stmt == "write":
                stride = rng.choice((1, 3, 5))
                with b.for_(0, n, step=stride) as loop:
                    fv = b.cast(loop.iv, F64)
                    b.store(b.mul(fv, float(rng.randint(1, 9))), arr, loop.iv)
            elif stmt == "if":
                cond = b.cmp("lt", total, float(rng.randint(0, 10_000)))
                h = b.if_(cond, result_types=[F64])
                with h.then():
                    b.yield_([b.add(total, float(rng.randint(1, 5)))])
                with h.else_():
                    b.yield_([b.mul(total, 0.5)])
                total = h.results[0]
            elif stmt == "hints":
                idx = rng.randint(0, n - 1)
                count = rng.randint(1, 16)
                kind = rng.choice(("prefetch", "flush", "evict"))
                if kind == "prefetch":
                    b.prefetch(arr, idx, count)
                elif kind == "flush":
                    b.flush(arr, idx, count)
                else:
                    b.evict_hint(arr, idx, count)
            elif stmt == "work":
                b.work(float(rng.randint(1, 200)))
            elif stmt == "touch":
                length = rng.randint(1, n) * 8
                start = rng.randint(0, n * 8 - length)
                b.touch(arr, start, length, is_write=rng.random() < 0.3)
            else:  # parallel
                with b.parallel(0, rng.choice((8, 16)), num_threads=2) as loop:
                    fv = b.cast(loop.iv, F64)
                    b.store(fv, arr, loop.iv)
                    b.work(float(rng.randint(1, 20)))
        b.ret([total])
    verify(b.module)
    footprint = num_arrays * n * 8
    return b.module, footprint


def _fuzz_fingerprint(seed: int, engine: str, cost: CostModel = COST) -> dict:
    import os

    os.environ["REPRO_ENGINE"] = engine
    try:
        fp = {}
        for system in ("native", "fastswap"):
            module, footprint = _build_fuzz_module(seed)
            if system == "native":
                memsys = NativeMemory(cost, 2 * footprint + (1 << 20))
            else:
                memsys = BASELINE_SYSTEMS["fastswap"](
                    cost, max(4096, int(footprint * 0.3))
                )
            tracer = Tracer()
            result = run_on_baseline(module, memsys, tracer=tracer)
            fp[system] = {
                "results": list(result.results),
                "elapsed_ns": result.elapsed_ns,
                "breakdown": result.breakdown,
                "trace_digest": tracer.digest(),
                "trace_events": len(tracer),
            }
        return fp
    finally:
        os.environ.pop("REPRO_ENGINE", None)


def _assert_fuzz_parity(seed: int, cost: CostModel = COST) -> None:
    reference = _fuzz_fingerprint(seed, "reference", cost)
    codegen = _fuzz_fingerprint(seed, "codegen", cost)
    for system in reference:
        assert reference[system] == codegen[system], (
            f"seed {seed}: codegen diverges from reference on {system}"
        )


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_engines_bit_identical(seed, monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    _assert_fuzz_parity(seed)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_engines_bit_identical_on_a_non_integer_cost_model(seed, monkeypatch):
    """Codegen hoists and folds under every cost model, so the contract
    holds on one nowhere near whole nanoseconds too -- trace bytes
    included (time is exact, DESIGN.md section 4)."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    odd = CostModel(
        dram_access_ns=33.3, cpu_op_ns=1.7, dram_stream_bpns=7.0,
        net_bandwidth_bpns=6.1, net_rtt_ns=2999.9, page_fault_ns=3500.7,
    )
    _assert_fuzz_parity(seed, odd)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 40))
def test_fuzz_engines_bit_identical_deep(seed, monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    _assert_fuzz_parity(seed)


# -- the error paths of the guards codegen elides ---------------------------
#
# Codegen tests ``type(i) is int`` only on an index it cannot prove an
# int, and bounds-checks an (index, memref) pair once where a guard in the
# same or an enclosing block has already passed it.  These seeded
# programs gather an index from a column and use it twice -- the second
# use has no guard of its own -- in the three tiers a loop lowers to: the
# native fast loop, the general loop (an ``scf.if`` arm uses the index
# first in half of the iterations) and a chunk on a plain
# ``CacheManager``.  The gathered index is in bounds, past the end at a
# random iteration, or at that iteration a float, as an f64 column holds.

GUARD_CASES = ("ok", "past_end", "float")
#: tier -> (memory system, body with a branch)
GUARD_TIERS = {
    "native_fast": ("native", False),
    "general": ("native", True),
    "manager_chunk": ("manager", False),
}


def _build_guard_module(seed: int, case: str, branchy: bool):
    rng = random.Random(seed)
    n = rng.choice((64, 96, 128))
    trip = rng.choice((200, 300, 600))  # a chunk boundary or two inside
    gather = [rng.randrange(n) for _ in range(trip)]
    bad = rng.randrange(trip)
    if case == "past_end":
        gather[bad] = n + rng.randrange(3)
    elif case == "float":
        gather[bad] = float(gather[bad])
    b = IRBuilder()
    with b.func("main", result_types=[F64]):
        data = b.ralloc(F64, n, "data")
        col = b.ralloc(INDEX if case == "float" else I64, trip, "idx")
        with b.for_(0, trip, iter_args=[b.f64(0.0)]) as loop:
            raw = b.load(col, loop.iv)
            j = raw if case == "float" else b.cast(raw, INDEX)
            if branchy:  # a guard in an arm covers nothing past the scf.if
                h = b.if_(b.cmp("lt", loop.iv, b.index(trip // 2)))
                with h.then():
                    b.store(b.load(data, j), data, j)
                with h.else_():
                    pass
            x = b.load(data, j)
            b.store(b.add(x, 1.0), data, j)  # the second use
            b.yield_([b.add(loop.args[0], x)])
        b.ret([loop.results[0]])
    verify(b.module)

    def data_init(name, mrv):
        mrv.fill(gather if name == "idx" else [float(i) for i in range(n)])

    return b.module, data_init, n * 8 + trip * 8, f"v{j.uid}"


def _guard_fingerprint(seed: int, case: str, tier: str, engine: str) -> dict:
    from repro.cache.manager import CacheManager
    from repro.errors import MiraError
    from repro.runtime.interpreter import Interpreter
    from tests.test_manager_verbs import _snapshot

    system_name, branchy = GUARD_TIERS[tier]
    module, data_init, footprint, index = _build_guard_module(seed, case, branchy)
    if system_name == "native":
        memsys = NativeMemory(COST, 2 * footprint + (1 << 20))
    else:
        memsys = CacheManager(COST, max(4096, footprint // 2))
    os.environ["REPRO_ENGINE"] = engine
    try:
        interp = Interpreter(module, memsys, data_init)
        try:
            out = {"results": interp.run("main").results}
        except MiraError as exc:
            out = {"error": (type(exc).__name__, str(exc))}
        if engine == "codegen":
            out["source"] = (index, interp._engine.generated_source("main"))
    finally:
        os.environ.pop("REPRO_ENGINE", None)
    if system_name == "native":
        out["now"] = memsys.clock.now
        out["breakdown"] = list(memsys.clock.breakdown().items())
        out["objects"] = [
            (o, vars(s).copy()) for o, s in memsys.stats.per_object.items()
        ]
    else:
        out.update(_snapshot(memsys))
    return out


@pytest.mark.parametrize("tier", sorted(GUARD_TIERS))
@pytest.mark.parametrize("case", GUARD_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_elided_guards_fail_like_the_reference(seed, case, tier, monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    reference = _guard_fingerprint(seed, case, tier, "reference")
    codegen = _guard_fingerprint(seed, case, tier, "codegen")
    j, source = codegen.pop("source")
    assert codegen == reference
    if case == "ok":
        assert "results" in codegen
    elif case == "past_end":
        assert "out of bounds" in codegen["error"][1]
    else:
        assert "must be an int" in codegen["error"][1]
    # the tier the loop took (a chunk has a per-element twin)
    assert ("_k" in source) == (tier == "native_fast")
    assert (".append" in source) == (tier == "manager_chunk")
    loads, stores = source.count(f".load({j}, "), source.count(f".store({j}, ")
    assert loads == (1 if tier == "native_fast" else 2)
    if case == "float":  # not provably an int: each use tests its type
        assert stores == loads and source.count(f"type({j}) is int") == 2 * loads
    else:  # an int cast: one guard, with no type test, for both uses
        assert stores == 0 and f"type({j})" not in source


# -- parity under fault injection --------------------------------------------
#
# The fault injector consumes its RNG only inside shared Network/FarNode
# code, which both engines call in identical order at identical virtual
# times -- so a seeded fault plan must leave the engines byte-identical:
# same results, same elapsed time, same breakdown (including the
# net_timeout/net_backoff categories), same JSONL trace digest.


def _faulty_fingerprint(name: str, system: str, plan, engine: str) -> dict:
    import os

    from repro.faults.chaos import CHAOS_WORKLOADS

    os.environ["REPRO_ENGINE"] = engine
    try:
        workload = make_workload(name, **CHAOS_WORKLOADS[name])
        memo = ModuleMemo(workload)
        local = max(4096, int(memo.footprint_bytes * 0.25))
        tracer = Tracer()
        if system == "mira":
            controller = MiraController(
                memo.fresh,
                COST,
                local,
                data_init=workload.data_init,
                entry=workload.entry,
                max_iterations=1,
            )
            program = controller.optimize()
            result = run_plan(
                program.module, COST, local, data_init=workload.data_init,
                entry=workload.entry, tracer=tracer, faults=plan,
            )
        else:
            result = run_on_baseline(
                memo.module,
                BASELINE_SYSTEMS[system](COST, local),
                workload.data_init,
                entry=workload.entry,
                tracer=tracer,
                faults=plan,
            )
        workload.verify_results(result.results)
        stats = result.memsys.network.faults.stats
        return {
            "results": list(result.results),
            "elapsed_ns": result.elapsed_ns,
            "breakdown": result.breakdown,
            "trace_digest": tracer.digest(),
            "trace_events": len(tracer),
            "fault_stats": vars(stats).copy(),
        }
    finally:
        os.environ.pop("REPRO_ENGINE", None)


@pytest.mark.parametrize("system", ("fastswap", "mira"))
@pytest.mark.parametrize("name", ("graph_traversal", "mcf"))
def test_engines_bit_identical_under_faults(name, system, monkeypatch):
    from repro.faults import FaultPlan

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    plan = FaultPlan.generate(1, intensity="medium", horizon_ns=2e7)
    reference = _faulty_fingerprint(name, system, plan, "reference")
    assert reference == _faulty_fingerprint(name, system, plan, "codegen"), (
        f"{name}/{system}: codegen diverges under faults"
    )
    # the plan actually did something, on both engines identically
    assert reference["fault_stats"]["retries"] > 0
    assert reference["breakdown"].get("net_timeout", 0.0) > 0.0


@pytest.mark.slow
@pytest.mark.parametrize("seed", (2, 3, 4))
def test_fault_parity_across_seeds(seed, monkeypatch):
    from repro.faults import FaultPlan

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    plan = FaultPlan.generate(seed, intensity="heavy", horizon_ns=2e7)
    reference = _faulty_fingerprint("graph_traversal", "mira", plan, "reference")
    assert reference == _faulty_fingerprint(
        "graph_traversal", "mira", plan, "codegen"
    )


# -- prefetch-policy parity ---------------------------------------------------
#
# Policies (repro.prefetch) run inside shared MemorySystem code, so every
# engine drives them through the identical record/plan/feedback sequence
# at identical virtual times.  The fingerprint therefore adds the trace
# digest (prefetch.plan / prefetch.feedback events included) and the
# policy's own counters to the parity contract.

PREFETCH_POLICIES = ("markov", "programmed", "learned")
PREFETCH_WORKLOADS = {
    "array_sum": {"num_elems": 4096},
    "dataframe": {"num_rows": 2048, "num_locations": 2048},
}


def _policy_fingerprint(name: str, policy: str, engine: str) -> dict:
    import os

    from repro.baselines.leap import Leap

    os.environ["REPRO_ENGINE"] = engine
    try:
        workload = make_workload(name, **PREFETCH_WORKLOADS[name])
        memo = ModuleMemo(workload)
        local = max(4096, int(memo.footprint_bytes * 0.5))
        tracer = Tracer()
        system = Leap(COST, local, policy=policy)
        result = run_on_baseline(
            memo.module, system, workload.data_init,
            entry=workload.entry, tracer=tracer,
        )
        workload.verify_results(result.results)
        return {
            "results": list(result.results),
            "elapsed_ns": result.elapsed_ns,
            "breakdown": result.breakdown,
            "trace_digest": tracer.digest(),
            "trace_events": len(tracer),
            "policy": system.policy.snapshot(),
            "swap": vars(system.swap.stats).copy(),
        }
    finally:
        os.environ.pop("REPRO_ENGINE", None)


@pytest.mark.parametrize("policy", PREFETCH_POLICIES)
@pytest.mark.parametrize("name", sorted(PREFETCH_WORKLOADS))
def test_policy_engines_bit_identical(name, policy, monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)
    reference = _policy_fingerprint(name, policy, "reference")
    assert reference == _policy_fingerprint(name, policy, "codegen"), (
        f"{name}/{policy}: codegen diverges from reference"
    )


def test_policy_env_knob_parity(monkeypatch):
    """``REPRO_PREFETCH`` selects Leap's policy; the env path must be
    byte-identical to passing the same policy explicitly."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setenv("REPRO_PREFETCH", "markov")
    via_env = _policy_fingerprint("array_sum", None, "codegen")
    monkeypatch.delenv("REPRO_PREFETCH")
    explicit = _policy_fingerprint("array_sum", "markov", "codegen")
    assert via_env == explicit


def test_fastswap_policy_engines_bit_identical(monkeypatch):
    """A policy on the plain FastSwap chassis (no Leap fault surcharge)
    is engine-identical too."""
    import os

    monkeypatch.delenv("REPRO_ENGINE", raising=False)

    def fingerprint(engine):
        os.environ["REPRO_ENGINE"] = engine
        try:
            workload = make_workload("array_sum", num_elems=4096)
            memo = ModuleMemo(workload)
            local = max(4096, int(memo.footprint_bytes * 0.5))
            tracer = Tracer()
            system = BASELINE_SYSTEMS["fastswap"](COST, local, policy="learned")
            result = run_on_baseline(
                memo.module, system, workload.data_init,
                entry=workload.entry, tracer=tracer,
            )
            return {
                "results": list(result.results),
                "elapsed_ns": result.elapsed_ns,
                "trace_digest": tracer.digest(),
                "policy": system.policy.snapshot(),
            }
        finally:
            os.environ.pop("REPRO_ENGINE", None)

    assert fingerprint("reference") == fingerprint("codegen")


def test_run_plan_prefetch_policy_engines_bit_identical(monkeypatch):
    """``run_plan(prefetch_policy=...)`` attaches a policy to the Mira
    CacheManager's swap path and injects the lowered prefetch program at
    plan time; both engines must agree byte-for-byte."""
    import os

    monkeypatch.delenv("REPRO_ENGINE", raising=False)

    def fingerprint(engine):
        os.environ["REPRO_ENGINE"] = engine
        try:
            workload = make_workload("array_sum", num_elems=4096)
            memo = ModuleMemo(workload)
            local = max(4096, int(memo.footprint_bytes * 0.5))
            tracer = Tracer()
            result = run_plan(
                memo.fresh(), COST, local, data_init=workload.data_init,
                entry=workload.entry, tracer=tracer,
                prefetch_policy="programmed",
            )
            workload.verify_results(result.results)
            return {
                "results": list(result.results),
                "elapsed_ns": result.elapsed_ns,
                "trace_digest": tracer.digest(),
                "policy": result.memsys.policy.snapshot(),
            }
        finally:
            os.environ.pop("REPRO_ENGINE", None)

    assert fingerprint("reference") == fingerprint("codegen")


def test_engine_selection(monkeypatch):
    """The env knob actually selects the engine (guards against a future
    regression silently running reference twice), and it is the only
    selector: a clean environment gets codegen, anything but the two
    engines is a typed error naming them."""
    from repro.errors import InterpreterError
    from repro.runtime.codegen import CodegenEngine
    from repro.runtime.interpreter import ENGINES, Interpreter

    workload = make_workload("array_sum", num_elems=64)
    module = workload.build_module()

    def build():
        return Interpreter(module, NativeMemory(COST, 1 << 20), workload.data_init)

    assert ENGINES == ("codegen", "reference")
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    default = build()
    assert default.engine_name == "codegen"
    assert isinstance(default._engine, CodegenEngine)
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    ref = build()
    assert ref.engine_name == "reference" and ref._engine is None
    # the deleted tier's name is as unknown as any other
    for gone in "compiled bogus".split():
        monkeypatch.setenv("REPRO_ENGINE", gone)
        with pytest.raises(InterpreterError) as err:
            build()
        assert repr(gone) in str(err.value)
        assert "('codegen', 'reference')" in str(err.value)
