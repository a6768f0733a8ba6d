"""Unit tests for the codegen engine's IR -> Python source lowering.

Two angles per op family:

* **Source shape** -- the generated source (``CodegenEngine.
  generated_source``) must contain the pinned lowering idiom: inline
  expressions for arith/compare/select, native ``for``/``while`` for scf
  loops, and the hoisted-charge fast loop for straight-line bodies on
  native memory.  Pinned as substrings (not full-file golden text) so
  gensym counters can move without churn.

* **Execution** -- each tiny fragment runs under the reference
  interpreter and the codegen engine and must produce identical results,
  elapsed virtual ns, and per-category breakdowns, on native memory and
  (where the fragment is legal there) on FastSwap at a tight ratio,
  exercising the per-element fallback paths.
"""

from __future__ import annotations

import os

import pytest

from repro.baselines import NativeMemory
from repro.bench.harness import BASELINE_SYSTEMS
from repro.cache.config import SectionConfig, Structure
from repro.cache.manager import CacheManager
from repro.core import run_on_baseline
from repro.errors import InterpreterError
from repro.ir.builder import IRBuilder
from repro.ir.dialects import rmem
from repro.ir.types import FloatType, IntType, MemRefType
from repro.ir.verifier import verify
from repro.memsim.cost_model import CostModel, grid
from repro.runtime.interpreter import Interpreter

COST = CostModel()
F64 = FloatType(64)
I64 = IntType(64)


# -- helpers -------------------------------------------------------------------


def _source(module, fn_name: str = "main", cost: CostModel = COST) -> str:
    """The codegen source for one function, compiled against native."""
    return _source_on(module, NativeMemory(cost, 1 << 24), fn_name)


def _source_on(module, memsys, fn_name: str = "main") -> str:
    """The codegen source for one function, compiled against ``memsys``."""
    os.environ["REPRO_ENGINE"] = "codegen"
    try:
        return Interpreter(module, memsys)._engine.generated_source(fn_name)
    finally:
        os.environ.pop("REPRO_ENGINE", None)


def _run_on(module, engine: str, memsys):
    os.environ["REPRO_ENGINE"] = engine
    try:
        result = run_on_baseline(module, memsys)
        return {
            "results": list(result.results),
            "elapsed_ns": result.elapsed_ns,
            "breakdown": result.breakdown,
        }
    finally:
        os.environ.pop("REPRO_ENGINE", None)


def _run(
    module, engine: str, system: str = "native", local: int = 1 << 24,
    cost: CostModel = COST,
):
    if system == "native":
        memsys = NativeMemory(cost, 1 << 30)
    else:
        memsys = BASELINE_SYSTEMS[system](cost, local)
    return _run_on(module, engine, memsys)


def _manager(section_for: str | None = None) -> CacheManager:
    """A ``CacheManager``; the object allocated as ``section_for`` goes to
    a small set-associative section, everything else stays on swap."""
    system = CacheManager(COST, 1 << 16)
    if section_for is not None:
        system.open_section(
            SectionConfig(
                name="s", size_bytes=1024, line_size=64,
                structure=Structure.SET_ASSOCIATIVE, ways=4,
            ),
            [],
        )
        system.pending_assignment[section_for] = "s"
    return system


def _assert_engines_agree(
    module, systems=("native", "fastswap"), cost: CostModel = COST
) -> None:
    for system in systems:
        local = 8192 if system != "native" else 0
        ref = _run(module, "reference", system, local, cost)
        cg = _run(module, "codegen", system, local, cost)
        assert ref == cg, f"codegen diverges from reference on {system}"


# -- arith / compare / select lowering ----------------------------------------


def _arith_module():
    b = IRBuilder()
    with b.func("main", result_types=[F64, I64, F64, F64]):
        x = b.add(b.mul(b.f64(3.0), 4.0), 1.5)
        q = b.div(b.i64(17), b.i64(5))  # C-style truncating division
        r = b.min(x, b.f64(9.0))
        cond = b.cmp("lt", x, 100.0)
        s = b.select(cond, r, b.f64(-1.0))
        b.ret([x, q, r, s])
    verify(b.module)
    return b.module


def test_arith_lowering_source_shape():
    src = _source(_arith_module())
    assert " * " in src and " + " in src  # inline binary expressions
    assert "_int_div(" in src  # integer division helper
    assert " if " in src  # min/select conditional expressions
    assert "(1 if " in src  # compare lowers to 0/1 int
    assert "_eng." not in src  # pure arith makes no engine calls at all


def test_arith_execution_matches_reference():
    module = _arith_module()
    fp = _run(module, "codegen")
    assert fp["results"] == [13.5, 3, 9.0, 9.0]
    _assert_engines_agree(module, systems=("native",))


# -- scf.for: general, straight-line fast tier, bulk tiers ---------------------


def _sum_loop_module(n: int = 64):
    b = IRBuilder()
    with b.func("main", result_types=[F64]):
        arr = b.alloc(F64, n, "a")
        with b.for_(0, n) as loop:
            b.store(b.cast(loop.iv, F64), arr, loop.iv)
        total = b.f64(0.0)
        with b.for_(0, n, iter_args=[total]) as loop:
            x = b.load(arr, loop.iv)
            b.yield_([b.add(loop.args[0], x)])
        b.ret([loop.results[0]])
    verify(b.module)
    return b.module


def test_for_lowering_has_native_loop_and_bulk_gate():
    src = _source(_sum_loop_module())
    assert " in range(" in src  # native for loop
    assert "scf.for with non-positive step" in src  # fallback guard
    assert "_clk._pending += _k" in src  # the straight-line tier's hoisted charge
    assert "num_elems" in src  # the hoisted bound of the load's guard


def test_straightline_fast_loop_hoists_charges():
    b = IRBuilder()
    n = 32
    with b.func("main", result_types=[F64]):
        arr = b.alloc(F64, n, "a")
        acc = b.f64(0.0)
        with b.for_(0, n, iter_args=[acc]) as loop:
            x = b.load(arr, loop.iv)
            y = b.mul(x, 2.0)
            b.store(y, arr, loop.iv)  # load+pure+store: not a bulk pattern
            b.yield_([b.add(loop.args[0], y)])
        b.ret([loop.results[0]])
    verify(b.module)
    src = _source(b.module)
    # the straight-line tier: charges hoisted out of the loop body; with
    # no offload in the module there is no far-mode twin
    assert "_far" not in src
    assert "len(range(" in src
    assert "_clk._pending +=" in src
    # hoisted _data / num_elems locals feed the body's fast paths
    assert "._data" in src and ".num_elems" in src
    _assert_engines_agree(b.module)


def test_non_integer_cost_model_takes_every_fast_tier():
    """No tier is gated on the values of the cost constants: a model
    nowhere near whole nanoseconds gets the hoisted straight-line loop --
    with a touch and fractional work in its body, which alone used to
    send a loop to the general tier -- and both engines agree to the bit
    (time is exact, DESIGN.md section 4)."""
    odd = CostModel(
        dram_access_ns=33.3, cpu_op_ns=1.7, dram_stream_bpns=7.0,
        far_cpu_slowdown=3.3, net_bandwidth_bpns=6.1,
    )
    b = IRBuilder()
    n = 48
    with b.func("main", result_types=[F64]):
        arr = b.ralloc(F64, n, "a")
        with b.for_(0, n) as loop:  # a fill
            b.store(b.cast(loop.iv, F64), arr, loop.iv)
        with b.for_(0, n) as loop:  # straight-line: load, pure, store, touch, work
            y = b.mul(b.load(arr, loop.iv), 2.0)
            b.store(y, arr, loop.iv)
            b.touch(arr, 0, 40, is_write=False)
            b.work(2.3)
        total = b.f64(0.0)
        with b.for_(0, n, iter_args=[total]) as loop:  # a reduction
            b.yield_([b.add(loop.args[0], b.load(arr, loop.iv))])
        b.ret([loop.results[0]])
    verify(b.module)
    src = _source(b.module, cost=odd)
    assert "_far" not in src and "len(range(" in src  # the hoisted loop, alone
    assert src.count("_clk._pending += _k") == 3  # each loop hoists its charges
    assert repr(grid(40 / 7.0)) in src and repr(grid(2.3 * odd.cpu_op_ns)) in src
    _assert_engines_agree(b.module, cost=odd)
    _assert_engines_agree(_call_module(offloaded=True), cost=odd)


def test_loop_iv_guard_has_no_type_test():
    """A loop IV is an int: its bounds guard skips ``type(i) is int``,
    and the store behind a load of the same element needs no guard."""
    b = IRBuilder()
    n = 40
    with b.func("main", result_types=[F64]):
        arr = b.alloc(F64, n, "a")
        with b.for_(0, n) as loop:
            b.store(b.mul(b.load(arr, loop.iv), 3.0), arr, loop.iv)
        b.ret([b.load(arr, b.index(n - 1))])
    verify(b.module)
    src = _source(b.module)
    iv = f"v{loop.iv.uid}"
    assert "type(" not in src
    assert src.count(f"if 0 <= {iv} < ") == 1
    assert f".store({iv}, " not in src  # the store's guard is the load's
    _assert_engines_agree(b.module)


def _far_module(marked: bool):
    """``main`` runs a straight-line loop, then hands the array to
    ``scale``, which runs one too: through a call when ``scale`` is
    marked ``offloaded``, else through an ``rmem.offload_call`` of an
    unmarked function."""
    n = 48
    arr_t = MemRefType(F64, remote=True)
    b = IRBuilder()
    with b.func("scale", arg_types=[arr_t], result_types=[F64]) as fn:
        if marked:
            fn.attrs["offloaded"] = True
        ref = fn.args[0]
        with b.for_(0, n) as loop:
            b.store(b.mul(b.load(ref, loop.iv), 2.0), ref, loop.iv)
            b.work(3.0)
        b.ret([b.load(ref, b.index(1))])
    with b.func("main", result_types=[F64]):
        arr = b.ralloc(F64, n, "a")
        with b.for_(0, n) as loop:
            b.store(b.add(b.cast(loop.iv, F64), 0.5), arr, loop.iv)
            b.work(1.0)
        if marked:
            out = b.call("scale", [arr], result_types=[F64]).results[0]
        else:
            out = b.insert(rmem.OffloadCallOp("scale", [arr], [F64])).results[0]
        b.ret([out])
    verify(b.module)
    return b.module


@pytest.mark.parametrize("marked", (True, False))
def test_an_offload_keeps_the_far_mode_twin(marked):
    """Either way into far mode -- a call of an ``offloaded`` function, or
    an ``rmem.offload_call`` of one without the attr -- keeps ``_far`` and
    the general twin of every native fast loop."""
    module = _far_module(marked)
    for name in ("main", "scale"):
        src = _source(module, name)
        assert "_far = _st._far_depth" in src
        assert "if not _far:" in src and "len(range(" in src
    assert _run(module, "codegen")["results"] == [2 * 1.5]
    _assert_engines_agree(module)


def test_bulk_fill_lowering_and_parity():
    b = IRBuilder()
    n = 48
    with b.func("main", result_types=[F64]):
        arr = b.alloc(F64, n, "a")
        with b.for_(0, n) as loop:
            fv = b.cast(loop.iv, F64)
            b.store(b.add(b.mul(fv, 3.0), 1.0), arr, loop.iv)
        b.ret([b.load(arr, n - 1)])
    verify(b.module)
    src = _source(b.module)
    assert "_clk._pending += _k" in src  # the straight-line tier
    _assert_engines_agree(b.module)


def test_bulk_copy_lowering_and_parity():
    b = IRBuilder()
    n = 40
    with b.func("main", result_types=[F64]):
        src_arr = b.alloc(F64, n, "src")
        dst = b.alloc(F64, n, "dst")
        with b.for_(0, n) as loop:
            b.store(b.cast(loop.iv, F64), src_arr, loop.iv)
        with b.for_(0, n) as loop:
            b.store(b.load(src_arr, loop.iv), dst, loop.iv)
        b.ret([b.load(dst, n - 1)])
    verify(b.module)
    src = _source(b.module)
    assert src.count("_clk._pending += _k") == 2  # both loops: the straight-line tier
    _assert_engines_agree(b.module)


def test_strided_and_offset_loops_match_reference():
    """Partial ranges and strides: the hoisted trip count must stay
    exact."""
    for lb, ub, step in ((0, 64, 1), (8, 64, 2), (3, 61, 7), (0, 64, 3)):
        b = IRBuilder()
        with b.func("main", result_types=[F64]):
            arr = b.alloc(F64, 64, "a")
            with b.for_(0, 64) as loop:
                b.store(b.cast(loop.iv, F64), arr, loop.iv)
            total = b.f64(0.0)
            with b.for_(lb, ub, step=step, iter_args=[total]) as loop:
                x = b.load(arr, loop.iv)
                b.yield_([b.add(loop.args[0], x)])
            b.ret([loop.results[0]])
        verify(b.module)
        _assert_engines_agree(b.module)


def test_native_promise_load_takes_the_per_element_loop():
    """A load carrying the compile-time ``native`` promise (section 4.4)
    keeps it per element: a chunk's slot carries the promise, and the
    per-element loop a declined chunk runs passes it to each access.  On
    a cache section both engines agree to the bit (the promised accesses
    skip the hit overhead, and are counted)."""
    b = IRBuilder()
    n = 256
    with b.func("main", result_types=[F64]):
        arr = b.ralloc(F64, n, "a")
        with b.for_(0, n) as loop:
            b.store(b.cast(loop.iv, F64), arr, loop.iv)
        total = b.f64(0.0)
        with b.for_(0, n, iter_args=[total]) as loop:
            x = b.load(arr, loop.iv)
            b.yield_([b.add(loop.args[0], x)])
        b.ret([loop.results[0]])
    verify(b.module)
    x.producer.attrs["native"] = True
    ref_sys, cg_sys = _manager("a"), _manager("a")
    ref = _run_on(b.module, "reference", ref_sys)
    assert ref == _run_on(b.module, "codegen", cg_sys)
    stats = cg_sys.sections()["s"].stats
    assert stats.native_accesses > n // 2  # (its hits; a miss pays in full)
    assert vars(stats) == vars(ref_sys.sections()["s"].stats)


def test_bulk_fill_charges_its_pures_ahead_of_the_store():
    """The fill's pures run before its store in IR order, so a store that
    stalls on a page in flight has them on the clock already: they are
    charged ahead of the store's slot in the chunk's plan, the store and
    the back-edge behind it."""
    b = IRBuilder()
    n = 1024
    with b.func("main", result_types=[F64]):
        arr = b.ralloc(F64, n, "a")
        b.prefetch(arr, 0, n)
        with b.for_(0, n) as loop:
            fv = b.cast(loop.iv, F64)
            b.store(b.add(b.mul(fv, 3.0), 1.0), arr, loop.iv)
        b.ret([b.load(arr, n - 1)])
    verify(b.module)
    cg_sys = _manager()
    assert _run_on(b.module, "reference", _manager()) == _run_on(b.module, "codegen", cg_sys)
    assert cg_sys.swap.stats.prefetch_hits  # the first store did stall


def _dividing_loop_module(shape: str):
    """64 iterations storing ``x / (iv - 40)``: iteration 40 divides by
    zero.  ``fill`` divides a constant, ``load`` a loaded element (both
    the straight-line tier on native memory and on a cache manager, the
    general loop on AIFM)."""
    b = IRBuilder()
    n = 64
    with b.func("main", result_types=[I64]):
        src = b.alloc(I64, n, "src")
        arr = b.alloc(I64, n, "a")
        with b.for_(0, n) as loop:
            d = b.sub(b.cast(loop.iv, I64), b.i64(40))
            x = b.i64(1000) if shape == "fill" else b.load(src, loop.iv)
            b.store(b.div(x, d), arr, loop.iv)
        b.ret([b.load(arr, n - 1)])
    verify(b.module)
    return b.module


@pytest.mark.parametrize("system", ["native", "manager", "fastswap", "aifm"])
@pytest.mark.parametrize("shape", ["fill", "load"])
def test_a_pure_op_that_raises_mid_loop_meets_the_reference_clock(shape, system):
    """The division by zero raises the reference's error with the clock,
    breakdown and counters the reference shows: a native fast loop
    charges its iterations up to the op, a chunk folds its tape and
    charges its iteration's compute since, and the general loop charges
    its pending units."""
    seen = []
    for engine in ("reference", "codegen"):
        if system == "native":
            memsys = NativeMemory(COST, 1 << 24)
        elif system == "manager":
            memsys = CacheManager(COST, 1 << 16)
        else:
            memsys = BASELINE_SYSTEMS[system](COST, 1 << 16)
        os.environ["REPRO_ENGINE"] = engine
        try:
            with pytest.raises(InterpreterError, match="division by zero"):
                run_on_baseline(_dividing_loop_module(shape), memsys)
        finally:
            os.environ.pop("REPRO_ENGINE", None)
        memsys.clock.flush()
        counters = getattr(memsys, "collect_section_stats", dict)()
        seen.append((memsys.clock.now, memsys.clock.breakdown(), counters))
    assert seen[0] == seen[1]
    assert seen[0][0] > 40 * COST.dram_access_ns  # 40 iterations ran


# -- scf.if / scf.while --------------------------------------------------------


def test_if_lowering_and_parity():
    b = IRBuilder()
    with b.func("main", result_types=[F64]):
        x = b.f64(5.0)
        cond = b.cmp("lt", x, 10.0)
        h = b.if_(cond, result_types=[F64])
        with h.then():
            b.yield_([b.add(x, 1.0)])
        with h.else_():
            b.yield_([b.mul(x, 2.0)])
        b.ret([h.results[0]])
    verify(b.module)
    src = _source(b.module)
    assert "if v" in src and "else:" in src
    _assert_engines_agree(b.module, systems=("native",))


def test_while_lowering_and_parity():
    b = IRBuilder()
    with b.func("main", result_types=[F64]):
        h = b.while_([b.f64(1.0)])
        with h.before() as args:
            b.condition(b.cmp("lt", args[0], 100.0), [args[0]])
        with h.body() as args:
            b.yield_([b.mul(args[0], 2.0)])
        b.ret([h.results[0]])
    verify(b.module)
    src = _source(b.module)
    assert "scf.while exceeded iteration limit" in src
    assert "break" in src
    fp = _run(b.module, "codegen")
    assert fp["results"] == [128.0]
    _assert_engines_agree(b.module, systems=("native",))


# -- scf.parallel --------------------------------------------------------------


def test_parallel_lowering_and_parity():
    b = IRBuilder()
    n = 32
    with b.func("main", result_types=[F64]):
        arr = b.alloc(F64, n, "a")
        with b.parallel(0, n, num_threads=4) as loop:
            b.store(b.cast(loop.iv, F64), arr, loop.iv)
            b.work(3.0)
        b.ret([b.load(arr, n - 1)])
    verify(b.module)
    src = _source(b.module)
    # every thread switch (clock fork/join, link timeline, contention,
    # fork/join events) is the interpreter's one region generator
    assert "_st._thread_region(" in src
    for owned_by_the_region in ("fork()", "_link_free_at", "contention", "fault_lock"):
        assert owned_by_the_region not in src
    _assert_engines_agree(b.module)


# -- calls and offload ---------------------------------------------------------


def _call_module(offloaded: bool):
    b = IRBuilder()
    with b.func("helper", arg_types=[F64], result_types=[F64]):
        fn_args = b.module.get("helper").args
        b.work(10.0)
        b.ret([b.mul(fn_args[0], 3.0)])
    with b.func("main", result_types=[F64]):
        if offloaded:
            op = b.insert(rmem.OffloadCallOp("helper", [b.f64(7.0)], [F64]))
            b.ret([op.results[0]])
        else:
            op = b.call("helper", [b.f64(7.0)], result_types=[F64])
            b.ret([op.results[0]])
    verify(b.module)
    return b.module


def test_call_lowering_and_parity():
    module = _call_module(offloaded=False)
    src = _source(module)
    assert "_eng.call_function(" in src
    fp = _run(module, "codegen")
    assert fp["results"] == [21.0]
    _assert_engines_agree(module, systems=("native",))


def test_offload_call_lowering_and_parity():
    module = _call_module(offloaded=True)
    src = _source(module)
    assert "_eng.offloaded_invoke(" in src
    _assert_engines_agree(module)


# -- rmem hints stay exact -----------------------------------------------------


def test_hints_and_touch_parity():
    b = IRBuilder()
    n = 64
    with b.func("main", result_types=[F64]):
        arr = b.ralloc(F64, n, "arr")
        with b.for_(0, n) as loop:
            b.store(b.cast(loop.iv, F64), arr, loop.iv)
        b.prefetch(arr, 0, 16)
        b.touch(arr, 0, n * 8, is_write=False)
        total = b.f64(0.0)
        with b.for_(0, n, iter_args=[total]) as loop:
            x = b.load(arr, loop.iv)
            b.yield_([b.add(loop.args[0], x)])
        b.evict_hint(arr, 0, 16)
        b.flush(arr, 0, 16)
        b.ret([loop.results[0]])
    verify(b.module)
    _assert_engines_agree(b.module)


# -- generated-source hygiene --------------------------------------------------


def test_generated_source_compiles_per_function_once():
    module = _sum_loop_module()
    os.environ["REPRO_ENGINE"] = "codegen"
    try:
        interp = Interpreter(module, NativeMemory(COST, 1 << 24))
        a = interp._engine.generated_source("main")
        b_src = interp._engine.generated_source("main")
        assert a is b_src  # cached, not re-lowered
        assert a.startswith("def _factory(")
        assert "def _g_main(" in a
    finally:
        os.environ.pop("REPRO_ENGINE", None)


def test_codegen_requires_exact_arg_count():
    module = _sum_loop_module()
    os.environ["REPRO_ENGINE"] = "codegen"
    try:
        interp = Interpreter(module, NativeMemory(COST, 1 << 24))
        from repro.errors import InterpreterError

        with pytest.raises(InterpreterError, match="expects"):
            interp.run("main", [1.0])
    finally:
        os.environ.pop("REPRO_ENGINE", None)


def test_lowering_refuses_a_category_outside_the_clock_registry(monkeypatch):
    """Generated code folds into the clock's ledger inline, with no
    run-time check: an unknown category is refused when the function is
    lowered, with the clock's typed error.  (Here ``dram`` is struck from
    the registry the lowering reads, as a rename on one side would.)"""
    from repro.errors import MiraError
    from repro.memsim.clock import CATEGORIES
    from repro.runtime import codegen

    monkeypatch.setattr(
        codegen, "CATEGORIES", tuple(c for c in CATEGORIES if c != "dram")
    )
    with pytest.raises(MiraError, match="unknown clock category 'dram'"):
        _source(_sum_loop_module())
