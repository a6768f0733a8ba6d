"""Unit tests for the codegen engine's IR -> Python source lowering.

Two angles per op family:

* **Source shape** -- the generated source (``CodegenEngine.
  generated_source``) must contain the pinned lowering idiom: inline
  expressions for arith/compare/select, native ``for``/``while`` for scf
  loops, the bulk-pattern gate + vectorized body for recognized memref
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
from repro.ir.builder import IRBuilder
from repro.ir.dialects import rmem
from repro.ir.types import FloatType, IntType
from repro.ir.verifier import verify
from repro.memsim.cost_model import CostModel, grid
from repro.runtime.interpreter import Interpreter

COST = CostModel()
F64 = FloatType(64)
I64 = IntType(64)


# -- helpers -------------------------------------------------------------------


def _source(module, fn_name: str = "main", cost: CostModel = COST) -> str:
    """The codegen source for one function, compiled against native."""
    os.environ["REPRO_ENGINE"] = "codegen"
    try:
        interp = Interpreter(module, NativeMemory(cost, 1 << 24))
        return interp._engine.generated_source(fn_name)
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
    assert "_st.tracer is None" in src  # bulk gate
    assert "sum(" in src  # vectorized reduce body
    assert "num_elems" in src  # bounds part of the gate


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
    # the straight-line tier: charges hoisted out of the loop body
    assert "if not _far:" in src
    assert "len(range(" in src
    assert "_clk._pending +=" in src
    # hoisted _data / num_elems locals feed the body's fast paths
    assert "._data" in src and ".num_elems" in src
    _assert_engines_agree(b.module)


def test_non_integer_cost_model_takes_every_fast_tier():
    """No tier is gated on the values of the cost constants: a model
    nowhere near whole nanoseconds gets the bulk gate and the hoisted
    straight-line loop -- with a touch and fractional work in its body,
    which alone used to send a loop to the general tier -- and both
    engines agree to the bit (time is exact, DESIGN.md section 4)."""
    odd = CostModel(
        dram_access_ns=33.3, cpu_op_ns=1.7, dram_stream_bpns=7.0,
        far_cpu_slowdown=3.3, net_bandwidth_bpns=6.1,
    )
    b = IRBuilder()
    n = 48
    with b.func("main", result_types=[F64]):
        arr = b.ralloc(F64, n, "a")
        with b.for_(0, n) as loop:  # a bulk fill
            b.store(b.cast(loop.iv, F64), arr, loop.iv)
        with b.for_(0, n) as loop:  # straight-line: load, pure, store, touch, work
            y = b.mul(b.load(arr, loop.iv), 2.0)
            b.store(y, arr, loop.iv)
            b.touch(arr, 0, 40, is_write=False)
            b.work(2.3)
        total = b.f64(0.0)
        with b.for_(0, n, iter_args=[total]) as loop:  # a bulk reduction
            b.yield_([b.add(loop.args[0], b.load(arr, loop.iv))])
        b.ret([loop.results[0]])
    verify(b.module)
    src = _source(b.module, cost=odd)
    assert "_st.tracer is None" in src and "sum(" in src  # the bulk gate
    assert "if not _far:" in src and "len(range(" in src  # the hoisted loop
    assert repr(grid(40 / 7.0)) in src and repr(grid(2.3 * odd.cpu_op_ns)) in src
    _assert_engines_agree(b.module, cost=odd)
    _assert_engines_agree(_call_module(offloaded=True), cost=odd)


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
    assert "] = [" in src  # slice-assign of a comprehension
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
    assert "_clk.advance(" in src  # aggregated dram charge of the copy
    _assert_engines_agree(b.module)


def test_strided_and_offset_loops_match_reference():
    """Partial ranges and strides: bulk gates must stay exact."""
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
    """A load carrying the compile-time ``native`` promise (section 4.4) is
    no bulk pattern: the promise is per element, and the per-element loop
    is its path.  On a cache section both engines then agree to the bit
    (the promised accesses skip the hit overhead, and are counted)."""
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
    assert "sum(" in _source(b.module)
    x.producer.attrs["native"] = True
    assert "sum(" not in _source(b.module)  # the fill keeps its bulk body
    ref_sys, cg_sys = _manager("a"), _manager("a")
    ref = _run_on(b.module, "reference", ref_sys)
    assert ref == _run_on(b.module, "codegen", cg_sys)
    stats = cg_sys.sections()["s"].stats
    assert stats.native_accesses > n // 2  # (its hits; a miss pays in full)
    assert vars(stats) == vars(ref_sys.sections()["s"].stats)


def test_bulk_fill_charges_its_pures_ahead_of_the_store():
    """The fill's pures run before its store in IR order, so a store that
    stalls on a page in flight has them on the clock already: they are
    ``bulk_access``'s ``before_ns``, store and back-edge its
    ``after_ns``."""
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
