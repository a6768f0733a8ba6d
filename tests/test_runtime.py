"""Interpreter and object-store tests."""

import pytest

from repro.baselines import FastSwap, NativeMemory
from repro.errors import InterpreterError
from repro.ir import IRBuilder, verify
from repro.ir.types import F64, I64, INDEX, StructType
from repro.memsim.cost_model import CostModel
from repro.runtime import Interpreter, MemRefVal
from repro.runtime.objects import ObjectStore


def _run(build, data_init=None, local=1 << 24, cost=None):
    cost = cost or CostModel()
    b = IRBuilder()
    build(b)
    verify(b.module)
    interp = Interpreter(b.module, NativeMemory(cost, local), data_init)
    return interp.run()


# -- object store -------------------------------------------------------------


def test_memref_scalar_roundtrip():
    m = MemRefVal(1, F64, 4, "a")
    m.store(2, 3.5)
    assert m.load(2) == 3.5
    assert m.load(0) == 0.0


def test_memref_struct_fields():
    t = StructType("p", (("x", F64), ("y", I64)))
    m = MemRefVal(1, t, 4, "p")
    m.store(1, 2.0, field="x")
    m.store(1, 7, field="y")
    assert m.load(1, "x") == 2.0
    assert m.load(1, "y") == 7
    assert m.load(1) == (2.0, 7)


def test_memref_bounds_checked():
    m = MemRefVal(1, F64, 4)
    with pytest.raises(InterpreterError):
        m.load(4)
    with pytest.raises(InterpreterError):
        m.load(-1)
    with pytest.raises(InterpreterError):
        m.load(1.5)  # non-int index


def test_memref_byte_offsets():
    t = StructType("p", (("x", F64), ("y", I64)))
    m = MemRefVal(1, t, 4)
    assert m.byte_offset(0, "x") == (0, 8)
    assert m.byte_offset(1, "y") == (24, 8)
    assert m.byte_offset(2) == (32, 16)


def test_memref_fill_validates_length():
    m = MemRefVal(1, F64, 4)
    with pytest.raises(InterpreterError):
        m.fill([1.0, 2.0])


def _materialised(m: MemRefVal) -> bool:
    """Whether ``_data`` exists yet (asked of the slot itself: ``hasattr``
    would build it)."""
    try:
        MemRefVal._data.__get__(m)
    except AttributeError:
        return False
    return True


def test_memref_data_is_built_on_first_use():
    t = StructType("p", (("x", F64), ("y", I64)))
    scalar, struct = MemRefVal(1, I64, 4, "a"), MemRefVal(2, t, 4, "p")
    assert not _materialised(scalar) and not _materialised(struct)
    assert scalar.byte_offset(3) == (24, 8) and scalar.size_bytes == 32
    assert not _materialised(scalar)
    assert scalar.load(3) == 0  # a first load reads the type's default
    assert struct.load(2) == (0.0, 0)
    assert _materialised(scalar) and _materialised(struct)
    with pytest.raises(AttributeError):
        scalar.no_such_attribute


@pytest.mark.parametrize("engine", ["codegen", "reference"])
def test_touched_only_objects_never_materialise(engine, monkeypatch):
    """A program that only *touches* an object (simulated accesses, no
    value read or written -- GPT-2's weights) never pays for its backing
    lists; the object it does load from reads defaults."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    t = StructType("p", (("x", F64), ("y", I64)))
    objs = {}
    b = IRBuilder()
    with b.func("main", result_types=[F64, I64]):
        weights = b.alloc(F64, 1 << 16, "weights")
        rows = b.alloc(t, 1 << 10, "rows")
        out = b.alloc(t, 4, "out")
        with b.for_(0, 1 << 16, step=512) as loop:
            b.touch(weights, loop.iv, 512)
        b.touch(rows, 0, 1 << 10, is_write=True)
        b.ret([b.load(out, 1, "x"), b.load(out, 3, "y")])
    verify(b.module)
    memsys = FastSwap(CostModel(), 1 << 16)
    res = Interpreter(b.module, memsys, objs.__setitem__).run()
    assert res.results == [0.0, 0]
    assert memsys.swap.stats.accesses > 128  # the touches ran
    assert not _materialised(objs["weights"])
    assert not _materialised(objs["rows"])
    assert _materialised(objs["out"])


def test_object_store_lookup():
    store = ObjectStore()
    m = MemRefVal(1, F64, 4, "arr")
    store.register(m)
    assert store.by_id(1) is m
    assert store.by_name("arr") is m
    with pytest.raises(InterpreterError):
        store.by_id(2)


# -- interpreter semantics --------------------------------------------------------


def test_arith_and_return():
    def build(b):
        with b.func("main", result_types=[INDEX]):
            x = b.add(b.index(2), 3)
            y = b.mul(x, x)
            b.ret([y])

    assert _run(build).results == [25]


def test_integer_division_truncates_like_c():
    def build(b):
        with b.func("main", result_types=[I64, I64]):
            a = b.div(b.i64(-7), b.i64(2))
            r = b.rem(b.i64(-7), b.i64(2))
            b.ret([a, r])

    assert _run(build).results == [-3, -1]


def test_loop_reduction():
    def build(b):
        with b.func("main", result_types=[INDEX]):
            z = b.index(0)
            with b.for_(0, 10, iter_args=[z]) as loop:
                b.yield_([b.add(loop.args[0], loop.iv)])
            b.ret([loop.results[0]])

    assert _run(build).results == [45]


def test_if_branches():
    def build(b):
        with b.func("main", result_types=[INDEX]):
            c = b.cmp("lt", b.index(1), 2)
            h = b.if_(c, [INDEX])
            with h.then():
                b.yield_([b.index(10)])
            with h.else_():
                b.yield_([b.index(20)])
            b.ret([h.results[0]])

    assert _run(build).results == [10]


def test_while_countdown():
    def build(b):
        with b.func("main", result_types=[INDEX]):
            n = b.index(5)
            wh = b.while_([n])
            with wh.before() as (cur,):
                b.condition(b.cmp("gt", cur, 0), [cur])
            with wh.body() as (cur,):
                b.yield_([b.sub(cur, 1)])
            b.ret([wh.results[0]])

    assert _run(build).results == [0]


def test_memory_roundtrip_through_ir():
    def build(b):
        with b.func("main", result_types=[F64]):
            arr = b.alloc(F64, 8, "arr")
            with b.for_(0, 8) as loop:
                b.store(b.cast(loop.iv, F64), arr, loop.iv)
            z = b.f64(0.0)
            with b.for_(0, 8, iter_args=[z]) as loop:
                b.yield_([b.add(loop.args[0], b.load(arr, loop.iv))])
            b.ret([loop.results[0]])

    assert _run(build).results == [28.0]


def test_data_init_called_with_alloc_name():
    seen = {}

    def init(name, mrv):
        seen[name] = mrv.num_elems
        if name == "arr":
            mrv.fill([5.0] * 4)

    def build(b):
        with b.func("main", result_types=[F64]):
            arr = b.alloc(F64, 4, "arr")
            b.ret([b.load(arr, 2)])

    res = _run(build, init)
    assert res.results == [5.0]
    assert seen == {"arr": 4}


def test_function_calls_and_profiling():
    def build(b):
        with b.func("helper", [INDEX], [INDEX], ["x"]) as fn:
            b.ret([b.add(fn.args[0], 1)])
        with b.func("main", result_types=[INDEX]):
            r = b.call("helper", [b.index(41)], [INDEX]).results[0]
            b.ret([r])

    res = _run(build)
    assert res.results == [42]
    assert res.profiler.functions["helper"].calls == 1
    assert res.profiler.functions["main"].calls == 1


def test_virtual_time_charged_for_loads():
    def build(b):
        with b.func("main"):
            arr = b.alloc(F64, 4, "arr")
            b.load(arr, 0)

    res = _run(build)
    assert res.breakdown.get("dram", 0) == pytest.approx(100.0)


def test_touch_charges_streaming_bandwidth():
    def build(b):
        with b.func("main"):
            arr = b.alloc(F64, 1024, "arr")
            b.touch(arr, 0, 8192)

    res = _run(build)
    cost = CostModel()
    assert res.breakdown["dram_stream"] == pytest.approx(8192 / cost.dram_stream_bpns)


def test_parallel_loop_joins_max_time():
    def build(b):
        with b.func("main"):
            arr = b.alloc(F64, 64, "arr")
            with b.parallel(0, 64, num_threads=4) as loop:
                b.load(arr, loop.iv)

    par = _run(build)

    def build_seq(b):
        with b.func("main"):
            arr = b.alloc(F64, 64, "arr")
            with b.for_(0, 64) as loop:
                b.load(arr, loop.iv)

    seq = _run(build_seq)
    # 4 threads split the DRAM time roughly four ways
    assert par.elapsed_ns < seq.elapsed_ns * 0.5


def test_parallel_results_are_correct():
    def build(b):
        with b.func("main", result_types=[F64]):
            arr = b.alloc(F64, 32, "arr")
            with b.parallel(0, 32, num_threads=4) as loop:
                b.store(1.0, arr, loop.iv)
            z = b.f64(0.0)
            with b.for_(0, 32, iter_args=[z]) as red:
                b.yield_([b.add(red.args[0], b.load(arr, red.iv))])
            b.ret([red.results[0]])

    assert _run(build).results == [32.0]


def test_profiling_instrumentation_charges_time():
    def build(b):
        with b.func("main"):
            b.index(0)

    cost = CostModel()
    b1 = IRBuilder()
    build(b1)
    b1.module.attrs["profiling"] = True
    r1 = Interpreter(b1.module, NativeMemory(cost, 1 << 20)).run()
    assert r1.breakdown.get("profiling", 0) > 0


def test_offloaded_function_runs_on_far_node():
    cost = CostModel()

    def build(b, offload):
        with b.func("work", [INDEX], [INDEX], ["n"]) as fn:
            b.work(10_000)
            b.ret([fn.args[0]])
        if offload:
            b.module.get("work").attrs["offloaded"] = True
        with b.func("main", result_types=[INDEX]):
            r = b.call("work", [b.index(1)], [INDEX]).results[0]
            b.ret([r])

    b_local = IRBuilder()
    build(b_local, offload=False)
    local = Interpreter(b_local.module, NativeMemory(cost, 1 << 20)).run()
    b_far = IRBuilder()
    build(b_far, offload=True)
    far = Interpreter(b_far.module, NativeMemory(cost, 1 << 20)).run()
    assert far.results == local.results == [1]
    # far compute is slower and pays an RPC
    assert far.elapsed_ns > local.elapsed_ns + cost.rpc_ns * 0.9
    assert far.breakdown.get("rpc", 0) > 0


def test_missing_handler_is_reported():
    from repro.ir.core import Operation

    class WeirdOp(Operation):
        opname = "weird.op"

    b = IRBuilder()
    with b.func("main"):
        b.insert(WeirdOp())
    interp = Interpreter(b.module, NativeMemory(CostModel(), 1 << 20))
    with pytest.raises(InterpreterError):
        interp.run()
