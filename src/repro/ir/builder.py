"""Ergonomic IR construction.

Workloads build programs through this API::

    b = IRBuilder()
    with b.func("main") as fn:
        edges = b.alloc(edge_t, n_edges, "edges")
        with b.for_(0, n_edges) as loop:
            src = b.load(edges, loop.iv, field="src")
            ...

Python ints/floats auto-promote to constants where a Value is expected;
``load``/``store``/``touch`` dispatch to the local (``memref``) or remote
(``rmem``) dialect based on the reference's type, so the same builder code
serves hand-written remote programs and pass-converted ones.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import IRError
from repro.ir.core import Block, Function, Module, Operation, Value
from repro.ir.dialects import arith, compute, func, memref, prof, remotable, rmem, scf
from repro.ir.types import BoolType, FloatType, INDEX, IndexType, IntType, IRType


class ForHandle:
    """Yielded by ``for_``/``parallel``: exposes the induction variable,
    body-carried values, and (after the with-block) the loop results."""

    def __init__(self, op) -> None:
        self.op = op

    @property
    def iv(self) -> Value:
        return self.op.induction_var

    @property
    def args(self) -> list[Value]:
        return self.op.body_iter_args

    @property
    def results(self) -> list[Value]:
        return self.op.results


class IfHandle:
    def __init__(self, op: scf.IfOp, builder: "IRBuilder") -> None:
        self.op = op
        self._builder = builder

    @property
    def results(self) -> list[Value]:
        return self.op.results

    @contextmanager
    def then(self):
        self._builder._push(self.op.then_block)
        try:
            yield
        finally:
            self._builder._ensure_yield(self.op.then_block)
            self._builder._pop()

    @contextmanager
    def else_(self):
        self._builder._push(self.op.else_block)
        try:
            yield
        finally:
            self._builder._ensure_yield(self.op.else_block)
            self._builder._pop()


class WhileHandle:
    def __init__(self, op: scf.WhileOp, builder: "IRBuilder") -> None:
        self.op = op
        self._builder = builder

    @property
    def results(self) -> list[Value]:
        return self.op.results

    @contextmanager
    def before(self):
        """Condition region; yield its carried values; finish with
        ``b.condition(pred, forwarded)``."""
        self._builder._push(self.op.before)
        try:
            yield self.op.before.args
        finally:
            self._builder._pop()

    @contextmanager
    def body(self):
        """Body region; yield the forwarded values; finish with
        ``b.yield_(next_values)``."""
        self._builder._push(self.op.after)
        try:
            yield self.op.after.args
        finally:
            self._builder._pop()


class IRBuilder:
    """Builds IR into a module, tracking an insertion-block stack."""

    def __init__(self, module: Module | None = None) -> None:
        self.module = module or Module()
        self._blocks: list[Block] = []

    # -- insertion machinery ---------------------------------------------

    def _push(self, block: Block) -> None:
        self._blocks.append(block)

    def _pop(self) -> None:
        self._blocks.pop()

    @property
    def block(self) -> Block:
        if not self._blocks:
            raise IRError("no insertion point: use 'with builder.func(...)'")
        return self._blocks[-1]

    def insert(self, op: Operation) -> Operation:
        return self.block.append(op)

    def _ensure_yield(self, block: Block) -> None:
        if block.terminator is None:
            block.append(scf.YieldOp([]))

    # -- functions ----------------------------------------------------------

    @contextmanager
    def func(self, name: str, arg_types=(), result_types=(), arg_names=()):
        fn = Function(name, list(arg_types), list(result_types), list(arg_names))
        self.module.add(fn)
        self._push(fn.body)
        try:
            yield fn
        finally:
            if fn.body.terminator is None:
                fn.body.append(func.ReturnOp([]))
            self._pop()

    # -- constants and coercion ----------------------------------------------

    def index(self, value: int) -> Value:
        return self.insert(arith.ConstantOp(int(value), INDEX)).result

    def i64(self, value: int) -> Value:
        return self.insert(arith.ConstantOp(int(value), IntType(64))).result

    def f64(self, value: float) -> Value:
        return self.insert(arith.ConstantOp(float(value), FloatType(64))).result

    def true(self) -> Value:
        return self.insert(arith.ConstantOp(1, BoolType)).result

    def false(self) -> Value:
        return self.insert(arith.ConstantOp(0, BoolType)).result

    def _coerce(self, v, like: Value | None = None, type: IRType | None = None) -> Value:
        """Promote a Python literal to a constant of the right type."""
        if isinstance(v, Value):
            return v
        t = type or (like.type if like is not None else None)
        if t is None:
            t = INDEX if isinstance(v, int) else FloatType(64)
        if isinstance(t, FloatType):
            v = float(v)
        elif isinstance(t, (IntType, IndexType)):
            v = int(v)
        return self.insert(arith.ConstantOp(v, t)).result

    # -- arithmetic -----------------------------------------------------------

    def _binary(self, kind: str, a, b_) -> Value:
        a_v = a if isinstance(a, Value) else None
        b_v = b_ if isinstance(b_, Value) else None
        if a_v is None and b_v is None:
            raise IRError(f"arith.{kind}: at least one operand must be a Value")
        a = self._coerce(a, like=b_v)
        b_ = self._coerce(b_, like=a)
        return self.insert(arith.BinaryOp(kind, a, b_)).result

    def add(self, a, b) -> Value:
        return self._binary("add", a, b)

    def sub(self, a, b) -> Value:
        return self._binary("sub", a, b)

    def mul(self, a, b) -> Value:
        return self._binary("mul", a, b)

    def div(self, a, b) -> Value:
        return self._binary("div", a, b)

    def rem(self, a, b) -> Value:
        return self._binary("rem", a, b)

    def min(self, a, b) -> Value:
        return self._binary("min", a, b)

    def max(self, a, b) -> Value:
        return self._binary("max", a, b)

    def cmp(self, pred: str, a, b) -> Value:
        a_v = a if isinstance(a, Value) else None
        b_v = b if isinstance(b, Value) else None
        a = self._coerce(a, like=b_v)
        b = self._coerce(b, like=a)
        return self.insert(arith.CmpOp(pred, a, b)).result

    def select(self, cond: Value, a: Value, b: Value) -> Value:
        return self.insert(arith.SelectOp(cond, a, b)).result

    def cast(self, v: Value, to_type: IRType) -> Value:
        if v.type == to_type:
            return v
        return self.insert(arith.CastOp(v, to_type)).result

    # -- memory ---------------------------------------------------------------

    def alloc(
        self,
        elem_type: IRType,
        num_elems: int,
        name: str = "",
        obj_attrs: dict | None = None,
    ) -> Value:
        return self.insert(
            memref.AllocOp(elem_type, num_elems, name, obj_attrs)
        ).result

    def ralloc(
        self,
        elem_type: IRType,
        num_elems: int,
        name: str = "",
        obj_attrs: dict | None = None,
    ) -> Value:
        return self.insert(
            remotable.RAllocOp(elem_type, num_elems, name, obj_attrs)
        ).result

    def load(self, ref: Value, index, field: str | None = None) -> Value:
        index = self._coerce(index, type=INDEX)
        if ref.type.remote:
            return self.insert(rmem.RLoadOp(ref, index, field)).result
        return self.insert(memref.LoadOp(ref, index, field)).result

    def store(self, value, ref: Value, index, field: str | None = None) -> None:
        index = self._coerce(index, type=INDEX)
        elem = ref.type.elem
        slot_t = elem.field_type(field) if field is not None else elem
        value = self._coerce(value, type=slot_t)
        if ref.type.remote:
            self.insert(rmem.RStoreOp(value, ref, index, field))
        else:
            self.insert(memref.StoreOp(value, ref, index, field))

    def touch(self, ref: Value, start, length: int, is_write: bool = False) -> None:
        start = self._coerce(start, type=INDEX)
        if ref.type.remote:
            self.insert(rmem.RTouchOp(ref, start, length, is_write))
        else:
            self.insert(memref.TouchOp(ref, start, length, is_write))

    def dealloc(self, ref: Value) -> None:
        self.insert(memref.DeallocOp(ref))

    # -- rmem hints ------------------------------------------------------------

    def prefetch(self, ref: Value, index, count: int = 1) -> None:
        self.insert(rmem.PrefetchOp(ref, self._coerce(index, type=INDEX), count))

    def flush(self, ref: Value, index, count: int = 1) -> None:
        self.insert(rmem.FlushOp(ref, self._coerce(index, type=INDEX), count))

    def evict_hint(self, ref: Value, index, count: int = 1, mode: str = "exact") -> None:
        self.insert(
            rmem.EvictHintOp(ref, self._coerce(index, type=INDEX), count, mode)
        )

    def discard(self, ref: Value) -> None:
        self.insert(rmem.DiscardOp(ref))

    # -- control flow -----------------------------------------------------------

    @contextmanager
    def for_(self, lb, ub, step=1, iter_args=()):
        op = scf.ForOp(
            self._coerce(lb, type=INDEX),
            self._coerce(ub, type=INDEX),
            self._coerce(step, type=INDEX),
            list(iter_args),
        )
        self.insert(op)
        self._push(op.body)
        try:
            yield ForHandle(op)
        finally:
            self._ensure_yield(op.body)
            self._pop()

    @contextmanager
    def parallel(self, lb, ub, step=1, num_threads: int = 1):
        op = scf.ParallelOp(
            self._coerce(lb, type=INDEX),
            self._coerce(ub, type=INDEX),
            self._coerce(step, type=INDEX),
            num_threads,
        )
        self.insert(op)
        self._push(op.body)
        try:
            yield ForHandle(op)
        finally:
            self._ensure_yield(op.body)
            self._pop()

    def if_(self, cond: Value, result_types=()) -> IfHandle:
        op = scf.IfOp(cond, list(result_types))
        self.insert(op)
        return IfHandle(op, self)

    def while_(self, init_args: list[Value]) -> WhileHandle:
        op = scf.WhileOp(list(init_args))
        self.insert(op)
        return WhileHandle(op, self)

    def yield_(self, values=()) -> None:
        self.insert(scf.YieldOp(list(values)))

    def condition(self, cond: Value, forwarded=()) -> None:
        self.insert(scf.ConditionOp(cond, list(forwarded)))

    # -- calls, compute, profiling ---------------------------------------------

    def call(self, callee: str, args=(), result_types=()) -> Operation:
        return self.insert(func.CallOp(callee, list(args), list(result_types)))

    def ret(self, values=()) -> None:
        self.insert(func.ReturnOp(list(values)))

    def work(self, units: float, label: str = "") -> None:
        self.insert(compute.WorkOp(units, label))

    def prof_begin(self, label: str) -> None:
        self.insert(prof.RegionBeginOp(label))

    def prof_end(self, label: str) -> None:
        self.insert(prof.RegionEndOp(label))
