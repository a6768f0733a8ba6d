"""Codegen execution engine: IR -> Python source lowering.

The reference :class:`~repro.runtime.interpreter.Interpreter` pays a
``type(op)`` dict dispatch, a handler call, a chain of attribute lookups
and an ``env`` dict round-trip for *every* op it executes.  This engine,
the default, removes all of that.  Each function is lowered once to real
Python source -- one generated function per IR function, ``compile()``d
to bytecode, reused across calls (GPT-2 calls the same layer function
hundreds of times) -- with SSA values as local variables (``v<uid>``; uids are globally unique),
cost constants inlined as literals, and callees/handlers/bound methods
passed in through a factory so they become closure cells.  Arithmetic,
compares, selects and casts become inline expressions; ``scf`` loops
become native ``for``/``while`` statements; clock charges become inline
fast paths against :class:`~repro.memsim.clock.VirtualClock` internals.

On top of the scalar lowering sits a **vectorized bulk path** for the
dominant memref loop shapes the Mira transforms produce (contiguous
scans, strided columnar reductions, memcpy-style moves).  When a
``scf.for`` body matches one of the recognized patterns, the generated
code executes the whole loop as one batch call into the memory system
(``MemorySystem.bulk_access`` over the ``range`` of byte offsets the
loop touches, which folds runs of hits) plus a single Python
slice/``sum`` over the backing data.  The batch call charges the virtual
clock in aggregated steps that are bit-identical in total to the
per-element path (time is exact: DESIGN.md section 4): it is only taken
when no tracer is attached, no fault plan is installed and the whole
range is in bounds -- in every other case the generated code falls back
to its per-element loop, which emits byte-identical trace JSONL by
construction.

A ``scf.for`` whose body is straight-line (loads, stores, touches, hints,
work, pure ops) charges a compile-time constant per iteration.  Against
``NativeMemory`` the loop charges ``k * const`` up front and the body is
pure data movement.  On a plain ``CacheManager`` it runs ``_CHUNK``
iterations at a time: data values never depend on simulated time, so a
chunk's data movement runs first and writes each memory event's byte
offset to a tape, and one ``CacheManager.fold_chunk`` then settles the
chunk's accesses, prefetches and hints in program order.  A chunk in
far mode, or one the manager refuses (``chunk_ok``: an observer, a
policy, a fault plan), runs the per-element loop.

Virtual-time parity with the reference interpreter is a hard contract
(``tests/test_engine_parity.py``): the generated code issues the same
clock charges, in the same order, against the same memory-system calls.
The only accounting difference is mechanical: consecutive pure-compute
ops (arith, casts, ``compute.work``) are charged as one
:meth:`~repro.memsim.clock.VirtualClock.charge` of their summed units,
which the clock buffers and flushes before any observable read.  The
parity suite enforces exact equality of ``elapsed_ns``, breakdowns,
results and trace bytes on every workload.

Rare ops with complicated bookkeeping (alloc/dealloc, sections, profiling
markers, discard, batched prefetch) delegate to the reference handlers --
they are off the hot path, and delegation keeps one source of truth.
Fault injection (``repro.faults``) needs no engine-specific code: the
injector's RNG is consumed, and every ``fault.*``/``retry.*`` event
emitted, inside the shared network and far-node methods both engines call
in the same order at the same virtual times.

This is what a clean environment runs; ``REPRO_ENGINE=reference`` opts
out (see :mod:`repro.runtime.interpreter`).
"""

from __future__ import annotations

import builtins
import re
from typing import TYPE_CHECKING

from repro.cache.manager import (
    ACCESS,
    FLUSH,
    HINT,
    PREFETCH,
    TOUCH,
    TRAIL,
    CacheManager,
)
from repro.errors import InterpreterError
from repro.ir.core import Block, Function, Operation, Value
from repro.ir.dialects import (
    arith,
    compute,
    func as func_d,
    memref,
    prof,
    remotable,
    rmem,
    scf,
)
from repro.ir.types import FloatType, IndexType, IntType, StructType
from repro.memsim.clock import CATEGORIES, unknown_category
from repro.memsim.cost_model import grid

if TYPE_CHECKING:
    from repro.runtime.interpreter import Interpreter

#: cap on an inlined bulk-fill expression; longer chains fall back to the
#: per-element loop (duplication through min/max/select could blow up)
_MAX_EXPR_LEN = 400

#: iterations per chunk of a straight-line loop on far memory: the data
#: movement of one chunk runs, then one fold settles its memory events
_CHUNK = 256

#: ops lowered to inline expressions (one compute unit each, batched)
_PURE_OPS = (
    arith.ConstantOp,
    arith.BinaryOp,
    arith.CmpOp,
    arith.SelectOp,
    arith.CastOp,
)

#: rare / bookkeeping-heavy ops delegated to the reference handlers
_DELEGATED_OPS = (
    memref.AllocOp,
    remotable.RAllocOp,
    memref.DeallocOp,
    rmem.BatchPrefetchOp,
    rmem.DiscardOp,
    rmem.SectionOpenOp,
    rmem.SectionCloseOp,
    prof.RegionBeginOp,
    prof.RegionEndOp,
)


def _v(val: Value) -> str:
    """The local-variable name of an SSA value (uids are globally unique)."""
    return f"v{val.uid}"


class GeneratedFunction:
    """One function lowered to a compiled Python function."""

    __slots__ = ("name", "nargs", "run", "source")

    def __init__(self, name: str, nargs: int, run, source: str) -> None:
        self.name = name
        self.nargs = nargs
        #: the generated callable: positional args, returns a list
        self.run = run
        #: full generated source (factory + body), kept for the unit tests
        self.source = source


class CodegenEngine:
    """Compiles each function of one module to Python source, once.

    Shares all execution state with its interpreter (clock, memory
    system, far-mode depth, profiler), so generated code and the
    reference handlers it delegates rare ops to can interleave.
    """

    def __init__(self, interp: "Interpreter") -> None:
        self.interp = interp
        self.module = interp.module
        self.cost = interp.cost
        self._functions: dict[int, GeneratedFunction] = {}
        from repro.baselines.native import NativeMemory

        #: NativeMemory.access is a pure no-op (no stats, no bounds, no
        #: clock): against it, access calls are semantically invisible
        #: and the lowering omits them entirely
        self._elide_access = type(interp.memsys) is NativeMemory
        #: a plain CacheManager settles a straight-line loop's memory
        #: events a chunk at a time (``fold_chunk``); its subclasses, and
        #: every other system, take each event as it comes
        self._fold_chunks = type(interp.memsys) is CacheManager

    # -- execution ---------------------------------------------------------

    def call_function(self, fn: Function, args: list) -> list:
        """Mirror of ``Interpreter._call_function`` over a generated function."""
        st = self.interp
        gf = self._functions.get(id(fn))
        if gf is None:
            gf = self._compile_function(fn)
        if len(args) != gf.nargs:
            raise InterpreterError(
                f"@{fn.name} called with {len(args)} args, expects {gf.nargs}"
            )
        st.clock.charge(self.cost.call_ns, "compute")
        if st.instrumented:
            st.clock.advance(self.cost.profile_event_ns, "profiling")
        prev_fn = st._current_fn
        st._current_fn = gf.name
        st.profiler.enter(gf.name)
        try:
            return gf.run(*args)
        finally:
            st.profiler.exit(gf.name)
            st._current_fn = prev_fn
            if st.instrumented:
                st.clock.advance(self.cost.profile_event_ns, "profiling")

    def offloaded_invoke(self, fn: Function, args: list) -> list:
        """Mirror of ``Interpreter._offloaded_invoke`` (section 4.8)."""
        st = self.interp
        memsys = st.memsys
        request_bytes = 64
        from repro.runtime.objects import MemRefVal

        for a in args:
            if isinstance(a, MemRefVal):
                memsys.flush(a.obj_id, 0, a.size_bytes)
                memsys.discard(a.obj_id)
                request_bytes += 16
            else:
                request_bytes += 8
        tr = st.tracer
        if tr is not None:
            # mirrored emission point (trace parity contract)
            tr.emit("offload.dispatch", st.clock.now, fn=fn.name, req=request_bytes)
        memsys.network.rpc(request_bytes, 64)
        st._enter_far()
        try:
            return self.call_function(fn, args)
        finally:
            st._exit_far()

    # -- introspection (unit tests) ----------------------------------------

    def generated_source(self, fn_name: str) -> str:
        """The generated source of a function, compiling it if needed."""
        fn = self.module.get(fn_name)
        gf = self._functions.get(id(fn))
        if gf is None:
            gf = self._compile_function(fn)
        return gf.source

    # -- compilation -------------------------------------------------------

    def _compile_function(self, fn: Function) -> GeneratedFunction:
        gf = _FunctionLowering(self, fn).build()
        self._functions[id(fn)] = gf
        return gf


class _FunctionLowering:
    """Lowers one IR function to Python source and compiles it."""

    def __init__(self, eng: CodegenEngine, fn: Function) -> None:
        self.eng = eng
        self.st = eng.interp
        self.cost = eng.cost
        self.fn = fn
        self.lines: list[tuple[int, str]] = []
        self.indent = 2  # inside factory + inside the generated def
        self._pool: list[object] = []
        self._pool_names: list[str] = []
        self._pool_ids: dict[int, str] = {}
        self._tmp = 0
        #: uids of SSA values already assigned at the current emission
        #: point (function args, op results, loop block args); a memref's
        #: backing ``_data`` may only be hoisted once its value exists
        self._defined: set[int] = set()
        #: active hoist scope: ``(ref_uid, field) -> local`` for a
        #: ``_data`` column, ``("n", ref_uid) -> local`` for ``num_elems``;
        #: loop emitters install hoists on entry and restore on exit
        self._hoisted: dict = {}
        #: inside a straight-line fast loop: all clock charges were
        #: hoisted out as ``k * const``, the body is pure data movement
        self._fast = False
        #: inside a chunk of a fast loop on far memory: ``(push, fold,
        #: end)``, the local that appends an offset to the tape, the
        #: statement that folds the tape so far (ahead of a data op's slow
        #: branch) and the one that folds it at the chunk's end
        self._chunk = None

    # -- source assembly ---------------------------------------------------

    def out(self, text: str) -> None:
        self.lines.append((self.indent, text))

    def gensym(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def bind(self, obj) -> str:
        """Pass an object into the generated code as a factory parameter."""
        name = self._pool_ids.get(id(obj))
        if name is None:
            name = f"_p{len(self._pool)}"
            self._pool_ids[id(obj)] = name
            self._pool.append(obj)
            self._pool_names.append(name)
        return name

    def build(self) -> GeneratedFunction:
        fn = self.fn
        pyname = "_g_" + re.sub(r"\W", "_", fn.name)
        self._defined.update(a.uid for a in fn.args)
        self.lower_block(fn.body)
        term = fn.body.terminator
        if isinstance(term, func_d.ReturnOp):
            self.out("return [" + ", ".join(_v(x) for x in term.operands) + "]")
        else:
            self.out(f"raise _IE({f'@{fn.name} did not return'!r})")
        params = ", ".join(_v(a) for a in fn.args)
        header = [
            "def _factory(_st, _eng, _IE, _int_div, _int_rem, _access"
            + "".join(f", {n}" for n in self._pool_names)
            + "):",
            f"    def {pyname}({params}):",
            "        _clk = _st.clock",
            "        _cpu = _st._cpu_unit",
            "        _far = _st._far_depth",
        ]
        body = ["    " * ind + text for ind, text in self.lines]
        footer = [f"    return {pyname}"]
        source = "\n".join(header + body + footer) + "\n"
        code = compile(source, f"<repro-codegen:{fn.name}>", "exec")
        g: dict = {"__builtins__": builtins}
        exec(code, g)
        st = self.st
        run = g["_factory"](
            st,
            self.eng,
            InterpreterError,
            _int_div_ref(),
            _int_rem_ref(),
            st.memsys.access,
            *self._pool,
        )
        return GeneratedFunction(fn.name, len(fn.args), run, source)

    # -- clock fast paths --------------------------------------------------

    def emit_charge(self, units: float) -> None:
        """Inline ``clock.charge(units * cpu_unit)`` (category compute)."""
        amt = "_cpu" if units == 1.0 else f"{units!r} * _cpu"
        self.out(f"if _clk._pending_cat == 'compute': _clk._pending += {amt}")
        self.out(f"else: _clk.charge({amt})")

    def emit_advance(self, amt_expr: str, category: str) -> None:
        """Inline ``clock.advance(amt, category)`` (amt known non-negative),
        its ``_flush`` of a buffered charge included.  The category is
        checked against the clock's registry here, at lowering: the
        inlined fold has no run-time check."""
        if category not in CATEGORIES:
            raise unknown_category(category)
        q = self.gensym("_q")
        self.out(f"{q} = _clk._pending")
        self.out(f"if {q}:")
        self.indent += 1
        self.out("_clk._pending = 0.0")
        self.out(f"_clk._now += {q}")
        self._emit_fold(q, "_clk._pending_cat")
        self.indent -= 1
        self.out(f"_clk._now += {amt_expr}")
        self._emit_fold(amt_expr, repr(category))

    def _emit_fold(self, amt_expr: str, category_expr: str) -> None:
        """The tail of ``VirtualClock._flush``/``advance``: the category,
        then the telemetry tick check, ordered as in the reference engine
        (one compare against +inf when telemetry is off)."""
        self.out(f"_clk._breakdown[{category_expr}] += {amt_expr}")
        self.out(
            "if _clk._now >= _clk._next_tick:"
            " _clk._next_tick = _clk._tick_cb(_clk._now)"
        )

    # -- loop-invariant data hoisting --------------------------------------

    def _note_ref_use(self, ref_v: Value, field, uses: dict) -> None:
        if field is None and isinstance(ref_v.type.elem, StructType):
            return  # whole-struct access reads _data.values(); not hoisted
        uses.setdefault((ref_v.uid, field), ref_v)

    def _collect_ref_uses(self, block: Block, uses: dict) -> None:
        for o in block.ops:
            t = type(o)
            if t in (memref.LoadOp, rmem.RLoadOp):
                self._note_ref_use(o.operands[0], o.attrs.get("field"), uses)
            elif t in (memref.StoreOp, rmem.RStoreOp):
                self._note_ref_use(o.operands[1], o.attrs.get("field"), uses)
            elif t is scf.ForOp or t is scf.ParallelOp:
                self._collect_ref_uses(o.body, uses)
            elif t is scf.IfOp:
                self._collect_ref_uses(o.then_block, uses)
                self._collect_ref_uses(o.else_block, uses)
            elif t is scf.WhileOp:
                self._collect_ref_uses(o.before, uses)
                self._collect_ref_uses(o.after, uses)

    def emit_hoists(self, blocks: list[Block]) -> dict:
        """Bind the ``_data`` columns and ``num_elems`` of every memref
        accessed under ``blocks`` to locals at a loop entry.

        Loop-invariant by construction: ``MemRefVal.fill`` is the only
        thing that replaces ``_data``, and it only runs while an alloc op
        initializes the fresh ref -- a ref allocated inside the loop is
        not in ``_defined`` at the loop header and is skipped.  Returns
        the previous scope for the caller to restore after the loop.
        """
        saved = self._hoisted
        uses: dict = {}
        for b in blocks:
            self._collect_ref_uses(b, uses)
        if not uses:
            return saved
        scope = dict(saved)
        for (uid, field), ref_v in uses.items():
            if uid not in self._defined or (uid, field) in scope:
                continue
            ref = _v(ref_v)
            d = self.gensym("_d")
            col = f"[{field!r}]" if field is not None else ""
            self.out(f"{d} = {ref}._data{col}")
            scope[(uid, field)] = d
            if ("n", uid) not in scope:
                n = self.gensym("_n")
                self.out(f"{n} = {ref}.num_elems")
                scope[("n", uid)] = n
        self._hoisted = scope
        return saved

    # -- block lowering ----------------------------------------------------

    def lower_block(self, block: Block) -> None:
        """Emit statements for a block's non-terminator ops.

        Pure ops become inline expressions; their unit costs accumulate at
        compile time and flush as one buffered charge before the next
        clock-observable op and at block end (the buffered ``charge`` of
        the module docstring).
        """
        units = 0.0
        for op in block.ops:
            if op.is_terminator:
                break
            if isinstance(op, _PURE_OPS):
                self.emit_pure(op)
                units += 1.0
            else:
                if units and not self._fast:
                    self.emit_charge(units)
                units = 0.0
                units += self.emit_side(op)
            for r in op.results:
                self._defined.add(r.uid)
        if units and not self._fast:
            self.emit_charge(units)

    # -- pure ops ----------------------------------------------------------

    def pure_expr(self, op: Operation, sub: dict[int, str] | None = None) -> str:
        """The Python expression for a pure op's result.

        ``sub`` optionally maps operand uids to replacement expressions
        (used by the bulk-fill recognizer to inline whole chains).
        """

        def opnd(i: int) -> str:
            val = op.operands[i]
            if sub is not None and val.uid in sub:
                return sub[val.uid]
            return _v(val)

        if isinstance(op, arith.ConstantOp):
            value = op.attrs["value"]
            if isinstance(value, (bool, int, float, str)):
                return repr(value)
            return self.bind(value)
        if isinstance(op, arith.BinaryOp):
            kind = op.attrs["kind"]
            a, b = opnd(0), opnd(1)
            if kind == "div":
                if isinstance(op.result.type, FloatType):
                    return f"({a} / {b})"
                return f"_int_div({a}, {b})"
            if kind == "rem":
                return f"_int_rem({a}, {b})"
            if kind == "min":
                # exactly builtin min(a, b): b wins only when strictly less
                return f"({b} if {b} < {a} else {a})"
            if kind == "max":
                return f"({b} if {a} < {b} else {a})"
            sym = {"add": "+", "sub": "-", "mul": "*",
                   "and": "&", "or": "|", "xor": "^"}[kind]
            return f"({a} {sym} {b})"
        if isinstance(op, arith.CmpOp):
            sym = {"eq": "==", "ne": "!=", "lt": "<",
                   "le": "<=", "gt": ">", "ge": ">="}[op.attrs["pred"]]
            return f"(1 if {opnd(0)} {sym} {opnd(1)} else 0)"
        if isinstance(op, arith.SelectOp):
            return f"({opnd(1)} if {opnd(0)} else {opnd(2)})"
        if isinstance(op, arith.CastOp):
            t = op.result.type
            if isinstance(t, FloatType):
                return f"float({opnd(0)})"
            if isinstance(t, (IntType, IndexType)):
                return f"int({opnd(0)})"
            return None  # error cast: handled statement-side
        raise InterpreterError(f"no codegen expression for {op.opname}")

    def emit_pure(self, op: Operation) -> None:
        expr = self.pure_expr(op)
        if expr is None:  # bad cast target: the error fires at execution
            self.out(f"raise _IE({f'bad cast target {op.result.type}'!r})")
            return
        self.out(f"{_v(op.result)} = {expr}")

    # -- side ops (returns trailing compute units) -------------------------

    def emit_side(self, op: Operation) -> float:
        t = type(op)
        if t in (memref.LoadOp, rmem.RLoadOp):
            return self.emit_load(op)
        if t in (memref.StoreOp, rmem.RStoreOp):
            return self.emit_store(op)
        if t in (memref.TouchOp, rmem.RTouchOp):
            return self.emit_touch(op)
        if t is compute.WorkOp:
            return self.emit_work(op)
        if t is rmem.PrefetchOp:
            return self.emit_hint(op, self.st.memsys.prefetch)
        if t is rmem.FlushOp:
            return self.emit_hint(op, self.st.memsys.flush)
        if t is rmem.EvictHintOp:
            return self.emit_evict_hint(op)
        if t is scf.ForOp:
            return self.emit_for(op)
        if t is scf.IfOp:
            return self.emit_if(op)
        if t is scf.WhileOp:
            return self.emit_while(op)
        if t is scf.ParallelOp:
            return self.emit_parallel(op)
        if t is func_d.CallOp:
            return self.emit_call(op)
        if t is rmem.OffloadCallOp:
            return self.emit_offload_call(op)
        if isinstance(op, _DELEGATED_OPS):
            return self.emit_delegated(op)
        raise InterpreterError(f"no codegen handler for {op.opname}")

    # -- memory ops --------------------------------------------------------

    def _layout(self, op: Operation, ref_index: int) -> tuple[int, int, int]:
        elem = op.operands[ref_index].type.elem
        esz = elem.byte_size
        field = op.attrs.get("field")
        if field is not None:
            return esz, elem.field_offset(field), elem.field_type(field).byte_size
        return esz, 0, esz

    def _offset_expr(self, idx: str, esz: int, foff: int) -> str:
        expr = idx if esz == 1 else f"{idx} * {esz}"
        if foff:
            expr += f" + {foff}"
        return expr

    def emit_chunk_fold(self) -> None:
        """Inside a chunk, ahead of a data op's slow branch (which may
        raise): fold the tape so far, so the error -- the out-of-bounds
        ``access`` of a gathered index first of all -- meets the clock
        and counters the per-element loop shows it."""
        if self._chunk is not None:
            self.out(self._chunk[1])

    def emit_access(
        self, ref: str, off_expr: str, size: int, is_write: bool, native: bool
    ) -> None:
        """Guarded memsys.access call (omitted entirely for NativeMemory,
        whose access() is a pure no-op)."""
        if self.eng._elide_access:
            return
        self.out("if not _far:")
        self.indent += 1
        self.out(f"_access({ref}.obj_id, {off_expr}, {size}, {is_write}, {native})")
        self.indent -= 1

    def emit_load(self, op: Operation) -> float:
        ref, idx, res = _v(op.operands[0]), _v(op.operands[1]), _v(op.result)
        field = op.attrs.get("field")
        esz, foff, size = self._layout(op, 0)
        native = bool(op.attrs.get("native"))
        struct_whole = field is None and isinstance(
            op.operands[0].type.elem, StructType
        )
        # stage-1 of a chained prefetch charges its issue cost only: the
        # data read below, with no dram advance or memory access
        if not op.attrs.get("prefetch_stage"):
            if not self._fast:
                self.emit_advance(repr(self.cost.dram_access_ns), "dram")
                self.emit_access(
                    ref, self._offset_expr(idx, esz, foff), size, False, native
                )
            elif self._chunk is not None:
                self.out(f"{self._chunk[0]}({self._offset_expr(idx, esz, foff)})")
        col = self._hoisted.get((op.operands[0].uid, field))
        n = self._hoisted.get(("n", op.operands[0].uid)) or f"{ref}.num_elems"
        self.out(f"if type({idx}) is int and 0 <= {idx} < {n}:")
        self.indent += 1
        if struct_whole:
            self.out(f"{res} = tuple(col[{idx}] for col in {ref}._data.values())")
        elif col is not None:
            self.out(f"{res} = {col}[{idx}]")
        elif field is not None:
            self.out(f"{res} = {ref}._data[{field!r}][{idx}]")
        else:
            self.out(f"{res} = {ref}._data[{idx}]")
        self.indent -= 1
        self.out("else:")
        self.indent += 1
        self.emit_chunk_fold()
        self.out(f"{res} = {ref}.load({idx}, {field!r})")
        self.indent -= 1
        return 1.0

    def emit_store(self, op: Operation) -> float:
        val, ref, idx = _v(op.operands[0]), _v(op.operands[1]), _v(op.operands[2])
        field = op.attrs.get("field")
        esz, foff, size = self._layout(op, 1)
        native = bool(op.attrs.get("native"))
        struct_whole = field is None and isinstance(
            op.operands[1].type.elem, StructType
        )
        if not self._fast:
            self.emit_advance(repr(self.cost.dram_access_ns), "dram")
            self.emit_access(
                ref, self._offset_expr(idx, esz, foff), size, True, native
            )
        elif self._chunk is not None:
            self.out(f"{self._chunk[0]}({self._offset_expr(idx, esz, foff)})")
        if struct_whole:
            # whole-struct stores are an error; keep the reference message
            self.out(f"{ref}.store({idx}, {val}, None)")
            return 1.0
        col = self._hoisted.get((op.operands[1].uid, field))
        n = self._hoisted.get(("n", op.operands[1].uid)) or f"{ref}.num_elems"
        self.out(f"if type({idx}) is int and 0 <= {idx} < {n}:")
        self.indent += 1
        if col is not None:
            self.out(f"{col}[{idx}] = {val}")
        elif field is not None:
            self.out(f"{ref}._data[{field!r}][{idx}] = {val}")
        else:
            self.out(f"{ref}._data[{idx}] = {val}")
        self.indent -= 1
        self.out("else:")
        self.indent += 1
        self.emit_chunk_fold()
        self.out(f"{ref}.store({idx}, {val}, {field!r})")
        self.indent -= 1
        return 1.0

    def emit_touch(self, op: Operation) -> float:
        ref, start = _v(op.operands[0]), _v(op.operands[1])
        length = op.attrs["length"]
        is_write = op.attrs["is_write"]
        stream_ns = grid(length / self.cost.dram_stream_bpns)
        self.out(f"if {start} < 0 or {start} + {length} > {ref}.size_bytes:")
        self.indent += 1
        self.emit_chunk_fold()
        self.out(
            f'raise _IE(f"touch [{{{start}}}, {{{start} + {length}}}) out of '
            f'bounds for {{{ref}.name or {ref}.obj_id}} ({{{ref}.size_bytes}} B)")'
        )
        self.indent -= 1
        if self._fast:  # stream charge hoisted; bounds check kept above
            if self._chunk is not None:
                self.out(f"{self._chunk[0]}({start})")
            return 1.0
        self.emit_advance(repr(stream_ns), "dram_stream")
        if not self.eng._elide_access:
            self.out("if not _far:")
            self.indent += 1
            self.out(f"_access({ref}.obj_id, {start}, {length}, {is_write})")
            self.indent -= 1
        return 1.0

    def emit_work(self, op: compute.WorkOp) -> float:
        if self._fast:  # base-rate work ns hoisted into the loop charge
            return 0.0
        # advance (not charge): replicate the reference's flush-then-add
        base = grid(op.units * self.cost.cpu_op_ns)
        slow = grid(op.units * self.st._far_cpu_unit)
        w = self.gensym("_w")
        self.out(f"{w} = {slow!r} if _far else {base!r}")
        self.emit_advance(w, "compute")
        return 0.0

    # -- rmem hints --------------------------------------------------------

    def emit_hint(self, op: Operation, method) -> float:
        """``method(obj_id, idx * esz, n * esz)`` for an in-bounds ``idx``,
        ``n`` = ``min(count, num_elems - idx)`` (as a compare: builtin
        ``min`` is a call per hint)."""
        ref, idx = _v(op.operands[0]), _v(op.operands[1])
        esz = op.operands[0].type.elem.byte_size
        num = self._hoisted.get(("n", op.operands[0].uid)) or f"{ref}.num_elems"
        if self._fast:  # native hint methods are no-ops; unit cost hoisted
            if self._chunk is not None:  # the fold clamps the count
                self.out(
                    f"{self._chunk[0]}({idx} * {esz} if 0 <= {idx} < {num} else None)"
                )
            return 0.0
        count = op.attrs["count"]
        call = self.bind(method)
        self.emit_charge(1.0)
        self.out(f"if 0 <= {idx} < {num}:")
        self.indent += 1
        n = self.gensym("_n")
        self.out(f"{n} = {num} - {idx}")
        self.out(f"if {n} > {count}: {n} = {count}")
        self.out(f"{call}({ref}.obj_id, {idx} * {esz}, {n} * {esz})")
        self.indent -= 1
        return 0.0

    def emit_evict_hint(self, op: Operation) -> float:
        if self._fast and self._chunk is None:
            return 0.0  # native hint methods are no-ops; unit cost hoisted
        if op.attrs["mode"] != "trailing":
            return self.emit_hint(op, self.st.memsys.evict_hint)
        ref, idx = _v(op.operands[0]), _v(op.operands[1])
        esz = op.operands[0].type.elem.byte_size
        num = self._hoisted.get(("n", op.operands[0].uid)) or f"{ref}.num_elems"
        if not self._fast:
            call = self.bind(self.st.memsys.evict_hint_trailing)
            self.emit_charge(1.0)
        # ``min(max(idx, 0), num - 1)``, as compares
        i = self.gensym("_i")
        self.out(f"{i} = 0 if {idx} < 0 else {idx}")
        self.out(f"if {i} > {num} - 1: {i} = {num} - 1")
        if self._fast:
            self.out(f"{self._chunk[0]}({i} * {esz})")
        else:
            self.out(f"{call}({ref}.obj_id, {i} * {esz})")
        return 0.0

    # -- control flow ------------------------------------------------------

    def _assign(self, lhs: list[str], rhs: list[str]) -> None:
        pairs = [(a, b) for a, b in zip(lhs, rhs) if a != b]
        if not pairs:
            return
        if len(pairs) == 1:
            self.out(f"{pairs[0][0]} = {pairs[0][1]}")
        else:  # tuple assign: RHS fully evaluated first (permutation-safe)
            self.out(
                ", ".join(a for a, _ in pairs)
                + " = "
                + ", ".join(b for _, b in pairs)
            )

    def emit_for(self, op: scf.ForOp) -> float:
        bulk = self._match_bulk(op)
        if bulk is not None:
            self.out(f"if {bulk['gate']}:")
            self.indent += 1
            for line in bulk["body"]:
                self.out(line)
            self.indent -= 1
            self.out("else:")
            self.indent += 1
            self._emit_for_scalar(op)
            self.indent -= 1
        else:
            self._emit_for_scalar(op)
        return 0.0

    def _emit_for_scalar(self, op: scf.ForOp) -> None:
        """A scf.for as a native loop: the straight-line fast tier when
        the body qualifies (charges hoisted out, or folded a chunk at a
        time on far memory), else the general tier."""
        sl = None
        if self.eng._elide_access or self.eng._fold_chunks:
            sl = self._match_straightline(op)
        if sl is None:
            self._emit_for_general(op)
            return
        if not self.eng._elide_access:
            self._emit_for_fast(op, sl)  # a chunk declines in far mode
            return
        self.out("if not _far:")
        self.indent += 1
        self._emit_for_fast(op, sl)
        self.indent -= 1
        self.out("else:")
        self.indent += 1
        self._emit_for_general(op)
        self.indent -= 1

    def _for_shape(self, op: scf.ForOp):
        body = op.body
        term = body.terminator
        return (
            [_v(op.operands[i]) for i in range(3)],
            _v(body.args[0]),
            [_v(a) for a in body.args[1:]],
            [_v(x) for x in op.operands[3:]],
            [_v(x) for x in term.operands] if term is not None else [],
            [_v(r) for r in op.results],
        )

    def _emit_for_entry(self, op: scf.ForOp) -> dict:
        """A loop's entry: the step check, the iter args, the hoists;
        returns the hoist scope to restore after the loop."""
        step = _v(op.operands[2])
        args = [_v(a) for a in op.body.args[1:]]
        self.out(f"if {step} <= 0:")
        self.indent += 1
        self.out(
            f'raise _IE(f"scf.for with non-positive step {{{step}}}")'
        )
        self.indent -= 1
        self._assign(args, [_v(x) for x in op.operands[3:]])
        self._defined.update(a.uid for a in op.body.args)
        return self.emit_hoists([op.body])

    def _emit_for_general(self, op: scf.ForOp) -> None:
        (lb, ub, step), _, args, _, _, res = self._for_shape(op)
        saved = self._emit_for_entry(op)
        self._emit_loop(op, f"range({lb}, {ub}, {step})")
        self._assign(res, args)
        self._hoisted = saved

    def _emit_loop(self, op: scf.ForOp, iterable: str) -> None:
        """The per-element loop over ``iterable``: every charge and
        memory call in the body, back-edge included."""
        _, iv, args, _, yields, _ = self._for_shape(op)
        self.out(f"for {iv} in {iterable}:")
        self.indent += 1
        self.lower_block(op.body)
        self._assign(args, yields)
        self.emit_charge(1.0)  # loop back-edge
        self.indent -= 1

    def _match_straightline(self, op: scf.ForOp) -> dict | None:
        """Per-iteration clock cost of a straight-line body and its memory
        event slots, or None.

        A body of loads/stores/pures/touch/work/hints charges a
        compile-time-constant amount per iteration.  Against NativeMemory
        (access/hints are pure no-ops, nothing is traced per element) the
        whole loop's clock movement hoists out as ``k * const``, leaving
        pure data movement inside.  On far memory (a plain CacheManager)
        the data movement of a chunk runs first and writes each memory
        event's offset to a tape, which one ``fold_chunk`` then settles in
        program order: ``slots`` are the body's events in IR order, each
        ``(kind, memref, nbytes, write, native)`` with the charges since
        the event before (``units`` of compute, ``work`` ns, ``dram``
        advances, ``stream`` ns), and ``tail`` the units and work after
        the last, back-edge included.  A chunk needs one event at least
        and every memref defined ahead of the loop.  Error paths (bad
        index, touch bounds) stop charging early but propagate out of
        run(); a chunk folds its tape first (``emit_chunk_fold``), so the
        memory system shows the state the per-element loop would (less
        the compute since the last event, where the failing op is not an
        event).  An error a pure op raises (a division by zero) leaves
        the chunk's tape unfolded.
        """
        term = op.body.terminator
        if term is not None and not isinstance(term, scf.YieldOp):
            return None
        slots = []
        since = [0.0, 0.0]  # compute units and work ns since the last event

        def event(kind, ref, nbytes, write=False, native=False, dram=0, stream=0.0):
            slots.append((kind, ref, nbytes, write, native, *since, dram, stream))
            since[:] = [0.0, 0.0]

        for o in op.body.ops:
            if o.is_terminator:
                continue
            t = type(o)
            if isinstance(o, _PURE_OPS):
                if isinstance(o, arith.CastOp) and self.pure_expr(o) is None:
                    return None  # bad cast raises per-element
            elif t in (memref.LoadOp, rmem.RLoadOp):
                if not o.attrs.get("prefetch_stage"):
                    event(ACCESS, o.operands[0], self._layout(o, 0)[2], False,
                          bool(o.attrs.get("native")), dram=1)
            elif t in (memref.StoreOp, rmem.RStoreOp):
                if o.attrs.get("field") is None and isinstance(
                    o.operands[1].type.elem, StructType
                ):
                    return None  # whole-struct store raises per-element
                event(ACCESS, o.operands[1], self._layout(o, 1)[2], True,
                      bool(o.attrs.get("native")), dram=1)
            elif t in (memref.TouchOp, rmem.RTouchOp):
                length = o.attrs["length"]
                event(TOUCH, o.operands[0], length, bool(o.attrs["is_write"]),
                      stream=grid(length / self.cost.dram_stream_bpns))
            elif t is compute.WorkOp:
                since[1] += grid(o.units * self.cost.cpu_op_ns)
                continue  # (no compute unit: its ns are the charge)
            elif t in (rmem.PrefetchOp, rmem.FlushOp, rmem.EvictHintOp):
                since[0] += 1.0  # a hint's unit is charged ahead of it
                if t is rmem.EvictHintOp and o.attrs["mode"] == "trailing":
                    kind = TRAIL
                else:
                    kind = {rmem.PrefetchOp: PREFETCH, rmem.FlushOp: FLUSH,
                            rmem.EvictHintOp: HINT}[t]
                esz = o.operands[0].type.elem.byte_size
                event(kind, o.operands[0], o.attrs.get("count", 1) * esz)
                continue
            else:
                return None  # control flow / calls / delegated: general
            since[0] += 1.0  # an op's unit, charged behind its event
        tail = (since[0] + 1.0, since[1])  # + the back-edge
        if not self.eng._elide_access and (
            not slots or any(slot[1].uid not in self._defined for slot in slots)
        ):
            return None
        return {
            "dram": sum(slot[7] for slot in slots),  # advances per iteration
            "stream": sum(slot[8] for slot in slots),  # dram_stream ns
            "units": sum(slot[5] for slot in slots) + tail[0],
            "work": sum(slot[6] for slot in slots) + tail[1],
            "slots": slots,
            "tail": tail,
        }

    def _emit_for_fast(self, op: scf.ForOp, sl: dict) -> None:
        """The straight-line tier; the body is pure data movement.
        Against NativeMemory the clock charges are hoisted out of the
        loop as one dram advance, one stream advance and one buffered
        compute charge scaled by the trip count.  On far memory the loop
        runs ``_CHUNK`` iterations at a time: a chunk the manager accepts
        (``chunk_ok``) pushes each event's offset to a tape that
        ``fold_chunk`` settles behind it; one it refuses runs the
        per-element loop."""
        (lb, ub, step), iv, args, _, yields, res = self._for_shape(op)
        saved = self._emit_for_entry(op)
        if self.eng._elide_access:
            k = self.gensym("_k")
            self.out(f"{k} = len(range({lb}, {ub}, {step}))")
            self.out(f"if {k}:")
            self.indent += 1
            if sl["dram"]:
                self.emit_advance(
                    f"{k} * {sl['dram'] * self.cost.dram_access_ns!r}", "dram"
                )
            if sl["stream"]:
                self.emit_advance(f"{k} * {sl['stream']!r}", "dram_stream")
            per_iter = f"{sl['units']!r} * _cpu"
            if sl["work"]:
                per_iter = f"({per_iter} + {sl['work']!r})"
            self.out(
                f"if _clk._pending_cat == 'compute': _clk._pending += {k} * {per_iter}"
            )
            self.out(f"else: _clk.charge({k} * {per_iter})")
            self.indent -= 1
            iterable = f"range({lb}, {ub}, {step})"
        else:
            iterable = self._emit_chunk_entry(op, sl)
        self.out(f"for {iv} in {iterable}:")
        self.indent += 1
        self._fast = True
        self.lower_block(op.body)
        self._fast = False
        self._assign(args, yields)
        self.indent -= 1
        if self._chunk is not None:
            self.out(self._chunk[2])  # the last iteration's tail too
            self._chunk = None
            self.indent -= 1
            self.out("else:")
            self.indent += 1
            self._emit_loop(op, iterable)
            self.indent -= 2
        self._assign(res, args)
        self._hoisted = saved

    def _emit_chunk_entry(self, op: scf.ForOp, sl: dict) -> str:
        """Open the chunk loop of a fast loop on far memory, down to the
        accepted chunk's body; returns the chunk's iterable.  The plan
        (``CacheManager.fold_chunk``) turns the slots' charges into ns:
        outside far mode the compute unit is ``cpu_op_ns``."""
        lb, ub, step = (_v(op.operands[i]) for i in range(3))
        cpu, dram_ns = self.cost.cpu_op_ns, self.cost.dram_access_ns
        refs = list({slot[1].uid: slot[1] for slot in sl["slots"]}.values())
        slots = tuple(
            (kind, refs.index(ref), nbytes, write, native,
             units * cpu + work, dram * dram_ns + stream)
            for kind, ref, nbytes, write, native, units, work, dram, stream
            in sl["slots"]
        )
        units, work = sl["tail"]
        plan = self.bind((slots, units * cpu + work))
        memsys = self.st.memsys
        ok, fold = self.bind(memsys.chunk_ok), self.bind(memsys.fold_chunk)
        r, objs, tape, push, j, at = (
            self.gensym(p) for p in ("_r", "_o", "_tp", "_ta", "_j", "_s")
        )
        self.out(f"{r} = range({lb}, {ub}, {step})")
        self.out(f"{objs} = ({''.join(f'{_v(x)}.obj_id, ' for x in refs)})")
        self.out(f"{tape} = []")
        self.out(f"{push} = {tape}.append")
        self.out(f"for {j} in range(0, len({r}), {_CHUNK}):")
        self.indent += 1
        self.out(f"if not _far and {ok}():")
        self.indent += 1
        self.out(f"{at} = 0")
        call = f"{fold}({plan}, {objs}, {tape}, {at}, "
        self._chunk = (push, f"{at} = {call}False)", f"{call}True)")
        return f"{r}[{j}:{j} + {_CHUNK}]"

    def emit_if(self, op: scf.IfOp) -> float:
        cond = _v(op.operands[0])
        res_names = [_v(r) for r in op.results]
        self.out(f"if {cond}:")
        for blk in (op.then_block, op.else_block):
            self.indent += 1
            self.emit_charge(1.0)
            self.lower_block(blk)
            term = blk.terminator
            if res_names:
                if term is None:
                    self.out(
                        f"raise _IE({'scf.if arm missing yield for results'!r})"
                    )
                else:
                    self._assign(res_names, [_v(x) for x in term.operands])
            self.indent -= 1
            if blk is op.then_block:
                self.out("else:")
        return 0.0

    def emit_while(self, op: scf.WhileOp) -> float:
        before, after = op.before, op.after
        cond_term = before.terminator
        assert isinstance(cond_term, scf.ConditionOp)
        cond = _v(cond_term.operands[0])
        fwd_names = [_v(x) for x in cond_term.operands[1:]]
        after_term = after.terminator
        yield_names = (
            [_v(x) for x in after_term.operands] if after_term is not None else []
        )
        init_names = [_v(x) for x in op.operands]
        before_args = [_v(a) for a in before.args]
        after_args = [_v(a) for a in after.args]
        res_names = [_v(r) for r in op.results]
        w = self.gensym("_wh")
        self._assign(before_args, init_names)
        self._defined.update(a.uid for a in before.args)
        self._defined.update(a.uid for a in after.args)
        saved = self.emit_hoists([before, after])
        self.out(f"for {w} in range(100000000):")
        self.indent += 1
        self.lower_block(before)
        self.emit_charge(1.0)
        self.out(f"if not {cond}:")
        self.indent += 1
        self._assign(res_names, fwd_names)
        self.out("break")
        self.indent -= 1
        self._assign(after_args, fwd_names)
        self.lower_block(after)
        self._assign(before_args, yield_names)
        self.indent -= 1
        self.out("else:")
        self.indent += 1
        self.out(f"raise _IE({'scf.while exceeded iteration limit'!r})")
        self.indent -= 1
        self._hoisted = saved
        return 0.0

    def emit_parallel(self, op: scf.ParallelOp) -> float:
        lb, ub, step = (_v(op.operands[i]) for i in range(3))
        iv = _v(op.body.args[0])
        num_threads = op.attrs["num_threads"]
        chunk = self.gensym("_pl")
        self._defined.add(op.body.args[0].uid)
        saved = self.emit_hoists([op.body])
        # the interpreter's region generator does every thread switch
        # (clocks, link, lock contention, thread id, fork/join events)
        self.out(
            f"for _clk, {chunk} in "
            f"_st._thread_region({lb}, {ub}, {step}, {num_threads}):"
        )
        self.indent += 1
        self.out(f"for {iv} in {chunk}:")
        self.indent += 1
        self.lower_block(op.body)
        self.emit_charge(1.0)
        self.indent -= 2
        self.out("_clk = _st.clock")
        self._hoisted = saved
        return 0.0

    # -- calls -------------------------------------------------------------

    def _emit_call_results(self, op: Operation, call_expr: str) -> None:
        res = [_v(r) for r in op.results]
        if not res:
            self.out(call_expr)
        elif len(res) == 1:
            self.out(f"{res[0]} = {call_expr}[0]")
        else:
            self.out(", ".join(res) + f" = {call_expr}")

    def emit_call(self, op: func_d.CallOp) -> float:
        callee = self.eng.module.get(op.attrs["callee"])
        cal = self.bind(callee)
        args = "[" + ", ".join(_v(x) for x in op.operands) + "]"
        if callee.is_offloaded:
            expr = (
                f"(_eng.call_function({cal}, {args}) if _far "
                f"else _eng.offloaded_invoke({cal}, {args}))"
            )
        else:
            expr = f"_eng.call_function({cal}, {args})"
        self._emit_call_results(op, expr)
        return 0.0

    def emit_offload_call(self, op: rmem.OffloadCallOp) -> float:
        callee = self.eng.module.get(op.attrs["callee"])
        cal = self.bind(callee)
        args = "[" + ", ".join(_v(x) for x in op.operands) + "]"
        self._emit_call_results(op, f"_eng.offloaded_invoke({cal}, {args})")
        return 0.0

    # -- delegation to the reference interpreter ---------------------------

    def emit_delegated(self, op: Operation) -> float:
        handler = self.bind(self.st._dispatch[type(op)])
        opref = self.bind(op)
        env = self.gensym("_env")
        items = ", ".join(f"{x.uid}: {_v(x)}" for x in op.operands)
        self.out(f"{env} = {{{items}}}")
        self.out(f"{handler}({opref}, {env})")
        for r in op.results:
            self.out(f"{_v(r)} = {env}[{r.uid}]")
        return 0.0

    # -- bulk memref recognition -------------------------------------------

    def _match_bulk(self, op: scf.ForOp) -> dict | None:
        """Recognize reduce/fill/copy loops; returns gate + bulk body."""
        body = op.body
        term = body.terminator
        if not isinstance(term, scf.YieldOp):
            return None
        real = [o for o in body.ops if o is not term]
        if len(real) != len(body.ops) - 1:
            return None
        m = self._match_reduce(op, body, term, real)
        if m is None:
            m = self._match_fill(op, body, term, real)
        if m is None:
            m = self._match_copy(op, body, term, real)
        return m

    def _load_parts(self, load: Operation) -> tuple | None:
        """(ref value, field, esz, foff, size, data_expr_suffix) of a
        plain single-element load/store ref, or None if not bulk-able."""
        ref_v = load.operands[0] if not isinstance(
            load, (memref.StoreOp, rmem.RStoreOp)
        ) else load.operands[1]
        field = load.attrs.get("field")
        elem = ref_v.type.elem
        if field is None and isinstance(elem, StructType):
            return None  # whole-struct values cannot vectorize
        esz = elem.byte_size
        if field is not None:
            foff = elem.field_offset(field)
            size = elem.field_type(field).byte_size
            data = f"._data[{field!r}]"
        else:
            foff, size, data = 0, esz, "._data"
        return ref_v, field, esz, foff, size, data

    def _bulk_gate(
        self, op: scf.ForOp, refs: list[str], extra: str = ""
    ) -> str:
        lb, ub, step = (_v(op.operands[i]) for i in range(3))
        parts = [
            "_st.tracer is None",
            "not _far",
            f"type({lb}) is int",
            f"type({ub}) is int",
            f"type({step}) is int",
            f"{step} > 0",
            f"0 <= {lb}",
        ]
        for ref in refs:
            parts.append(f"0 <= {ub} <= {ref}.num_elems")
        if extra:
            parts.append(extra)
        return " and ".join(parts)

    def _bulk_call(
        self, op: scf.ForOp, ref: str, esz: int, foff: int, size: int,
        is_write: bool, before: float, after: float,
    ) -> str:
        """``bulk_access`` over the byte offsets the loop touches, charging
        ``before``/``after`` compute units around each access (the body's
        ops ahead of and behind it in IR order, back-edge included)."""
        lb, ub, step = (_v(op.operands[i]) for i in range(3))
        bulk = self.bind(self.st.memsys.bulk_access)
        n = f"len(range({lb}, {ub}, {step}))"
        flags = f"b'\\x01' * {n}" if is_write else f"bytes({n})"
        plus = f" + {foff}" if foff else ""
        return (
            f"{bulk}({ref}.obj_id, "
            f"range({lb} * {esz}{plus}, {ub} * {esz}{plus}, {step} * {esz}), "
            f"{flags}, {size}, "
            f"{self.cost.dram_access_ns!r}, {before!r} * _cpu, {after!r} * _cpu)"
        )

    def _match_reduce(self, op, body, term, real) -> dict | None:
        """acc = init; for i: acc = acc + A[i]  ->  sum(slice, init)."""
        if len(op.operands) != 4 or len(op.results) != 1 or len(real) != 2:
            return None
        load, binop = real
        if not isinstance(load, (memref.LoadOp, rmem.RLoadOp)):
            return None
        if not isinstance(binop, arith.BinaryOp):
            return None
        iv, acc = body.args[0], body.args[1]
        if (
            load.attrs.get("prefetch_stage")
            or load.attrs.get("native")  # (that promise is per element)
            or load.operands[1] is not iv
            or binop.attrs["kind"] != "add"
            or binop.operands[0] is not acc
            or binop.operands[1] is not load.result
            or len(term.operands) != 1
            or term.operands[0] is not binop.result
        ):
            return None
        parts = self._load_parts(load)
        if parts is None:
            return None
        ref_v, _field, esz, foff, size, data = parts
        if ref_v is iv or ref_v is acc:
            return None
        ref = _v(ref_v)
        lb, ub, step = (_v(op.operands[i]) for i in range(3))
        init = _v(op.operands[3])
        res = _v(op.results[0])
        # 3 units/iter behind the access: load + add + back-edge
        call = self._bulk_call(op, ref, esz, foff, size, False, 0.0, 3.0)
        return {
            "gate": self._bulk_gate(op, [ref], call),
            "body": [f"{res} = sum({ref}{data}[{lb}:{ub}:{step}], {init})"],
        }

    def _match_fill(self, op, body, term, real) -> dict | None:
        """for i: A[i] = f(i)  ->  slice-assign a comprehension."""
        if len(op.operands) != 3 or op.results or len(term.operands) != 0:
            return None
        if not real or not isinstance(real[-1], (memref.StoreOp, rmem.RStoreOp)):
            return None
        store = real[-1]
        pures = real[:-1]
        iv = body.args[0]
        if store.operands[2] is not iv or store.attrs.get("native"):
            return None
        parts = self._load_parts(store)
        if parts is None:
            return None
        ref_v, _field, esz, foff, size, data = parts
        if ref_v is iv:
            return None
        val_v = store.operands[0]
        # every pure must feed the stored value: the comprehension only
        # evaluates reachable expressions, and a skipped op that would
        # raise per-element (e.g. a dead div-by-zero) must not vanish
        used = {val_v.uid}
        for p in reversed(pures):
            if not isinstance(p, _PURE_OPS) or p.result.uid not in used:
                return None
            for o in p.operands:
                used.add(o.uid)
        # inline the pure chain into one expression of the induction var
        sub: dict[int, str] = {}
        for p in pures:
            expr = self.pure_expr(p, sub)
            if expr is None or len(expr) > _MAX_EXPR_LEN:
                return None
            sub[p.result.uid] = expr
        val_expr = sub.get(val_v.uid, _v(val_v))
        ref = _v(ref_v)
        lb, ub, step = (_v(op.operands[i]) for i in range(3))
        # the pures ahead of the access, store + back-edge behind it
        call = self._bulk_call(op, ref, esz, foff, size, True, float(len(pures)), 2.0)
        return {
            "gate": self._bulk_gate(op, [ref], call),
            "body": [
                f"{ref}{data}[{lb}:{ub}:{step}] = "
                f"[{val_expr} for {_v(iv)} in range({lb}, {ub}, {step})]"
            ],
        }

    def _match_copy(self, op, body, term, real) -> dict | None:
        """for i: B[i] = A[i]  ->  slice copy (native memory only: the
        per-element path interleaves two access streams, which only a
        no-op access() lets us reorder into one aggregate)."""
        if not self.eng._elide_access:
            return None
        if len(op.operands) != 3 or op.results or len(term.operands) != 0:
            return None
        if len(real) != 2:
            return None
        load, store = real
        if not isinstance(load, (memref.LoadOp, rmem.RLoadOp)):
            return None
        if not isinstance(store, (memref.StoreOp, rmem.RStoreOp)):
            return None
        iv = body.args[0]
        if (
            load.attrs.get("prefetch_stage")
            or load.operands[1] is not iv
            or store.operands[2] is not iv
            or store.operands[0] is not load.result
        ):
            return None
        lp = self._load_parts(load)
        sp = self._load_parts(store)
        if lp is None or sp is None:
            return None
        src_v, *_, src_data = lp
        dst_v, *_, dst_data = sp
        if src_v is iv or dst_v is iv:
            return None
        src, dst = _v(src_v), _v(dst_v)
        lb, ub, step = (_v(op.operands[i]) for i in range(3))
        k = self.gensym("_k")
        dram2 = 2.0 * self.cost.dram_access_ns
        body_lines = [
            f"{k} = len(range({lb}, {ub}, {step}))",
            f"if {k}:",
            # per iter: two dram advances + 3 compute units (load, store,
            # back-edge)
            f"    _clk.advance({k} * {dram2!r}, 'dram')",
            f"    _clk.charge({k} * 3.0 * _cpu)",
            f"{dst}{dst_data}[{lb}:{ub}:{step}] = {src}{src_data}[{lb}:{ub}:{step}]",
        ]
        return {
            "gate": self._bulk_gate(op, [src, dst] if src != dst else [src]),
            "body": body_lines,
        }


def _int_div_ref():
    from repro.runtime.interpreter import _int_div

    return _int_div


def _int_rem_ref():
    from repro.runtime.interpreter import _int_rem

    return _int_rem
