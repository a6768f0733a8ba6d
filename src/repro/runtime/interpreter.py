"""The IR interpreter.

Executes a module against a :class:`~repro.cache.interface.MemorySystem`
under the virtual clock, producing both real computation results and the
virtual-time profile every figure is built from.

Charging policy (uniform across all systems, so normalized performance is
meaningful):

* every op: ``cpu_op_ns`` of compute;
* element loads/stores: ``dram_access_ns`` plus the memory system's data
  path;
* range touches: streaming DRAM bandwidth plus the data path;
* ``compute.work``: ``units * cpu_op_ns``;
* offloaded functions: executed in *far mode* -- compute is slowed by
  ``far_cpu_slowdown``, memory accesses are local to the far node (DRAM
  only, no network), and the call pays an RPC plus pre-call flushes
  (section 4.8).

Fault injection lives entirely below this layer: when a run installs a
:class:`~repro.faults.FaultPlan`, the timeout/retry/backoff/breaker
machinery (and its trace events) runs inside the shared network and
far-node code, so this interpreter and the codegen engine stay
byte-identical under faults without any mirrored emission points here.

Two engines run a program.  ``codegen`` (what a clean environment gets)
lowers each function once to Python source via
:mod:`repro.runtime.codegen` and delegates rare bookkeeping ops to the
handlers below; ``reference`` is the op-at-a-time tree walk in this
file, the oracle the parity suite (``tests/test_engine_parity.py``)
holds codegen bit-identical to.  ``REPRO_ENGINE`` is the one selector.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import InterpreterError
from repro.ir.core import Block, Function, Module, Operation, Value
from repro.ir.dialects import arith, compute, func as func_d, memref, prof, remotable, rmem, scf
from repro.ir.types import FloatType, IndexType, IntType
from repro.cache.interface import MemorySystem
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import grid
from repro.runtime.codegen import CodegenEngine
from repro.runtime.objects import MemRefVal, ObjectStore
from repro.runtime.profiler import Profiler, runtime_ns

#: data_init callback type: (alloc name, MemRefVal) -> None
DataInit = Callable[[str, MemRefVal], None]

#: environment variable selecting the engine; the first of ``ENGINES`` is
#: the default, ``reference`` opts out of code generation
ENGINE_ENV = "REPRO_ENGINE"
ENGINES = ("codegen", "reference")


def engine_from_env() -> str:
    """The engine name selected by ``REPRO_ENGINE`` (default: codegen)."""
    name = os.environ.get(ENGINE_ENV, "").strip() or ENGINES[0]
    if name not in ENGINES:
        raise InterpreterError(
            f"unknown {ENGINE_ENV}={name!r}; expected one of {ENGINES}"
        )
    return name


@dataclass
class RunResult:
    """Outcome of one program execution."""

    results: list
    elapsed_ns: float
    breakdown: dict[str, float]
    profiler: Profiler
    memsys: MemorySystem

    @property
    def runtime_ns(self) -> float:
        """Time in the far-memory runtime (vs. program execution)."""
        return runtime_ns(self.breakdown)


def _int_div(a: int, b: int) -> int:
    """C-style truncating integer division."""
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_rem(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


class Interpreter:
    """Executes one module; one instance per run.

    ``engine_name`` is what ``REPRO_ENGINE`` selected; ``_engine`` is the
    :class:`~repro.runtime.codegen.CodegenEngine`, or None when the
    reference tree walk below runs the program itself.
    """

    def __init__(
        self,
        module: Module,
        memsys: MemorySystem,
        data_init: DataInit | None = None,
    ) -> None:
        self.module = module
        self.memsys = memsys
        self.clock = memsys.clock
        self.cost = memsys.cost
        self.store = ObjectStore()
        self.data_init = data_init
        self.profiler = Profiler(self.clock)
        #: tracer inherited from the memory system (attach one with
        #: ``memsys.set_tracer(...)`` *before* building the interpreter)
        self.tracer = getattr(memsys, "tracer", None)
        self.profiler.tracer = self.tracer
        self.instrumented = bool(module.attrs.get("profiling"))
        self._far_depth = 0
        self._cpu_unit = self.cost.cpu_op_ns  # tracks far-mode slowdown
        self._far_cpu_unit = grid(self.cost.cpu_op_ns * self.cost.far_cpu_slowdown)
        self._current_fn = "<none>"
        self._dispatch = self._build_dispatch()
        self.engine_name = engine_from_env()
        self._engine = (
            CodegenEngine(self) if self.engine_name == "codegen" else None
        )

    # -- public API -----------------------------------------------------------

    def run(self, entry: str = "main", args: list | None = None) -> RunResult:
        fn = self.module.get(entry)
        if self._engine is not None:
            results = self._engine.call_function(fn, args or [])
        else:
            results = self._call_function(fn, args or [])
        breakdown = self.clock.breakdown()
        tr = self.tracer
        if tr is not None:
            # end-of-run snapshot; shared by both engines (run() is common)
            now = self.clock.now
            tr.emit(
                "prof.snapshot",
                now,
                elapsed=now,
                runtime=runtime_ns(breakdown),
                funcs=len(self.profiler.functions),
                allocs=len(self.profiler.allocations),
                bd=breakdown,
            )
        return RunResult(
            results=results,
            elapsed_ns=self.clock.now,
            breakdown=breakdown,
            profiler=self.profiler,
            memsys=self.memsys,
        )

    # -- function execution ----------------------------------------------------

    def _call_function(self, fn: Function, arg_values: list) -> list:
        if len(arg_values) != len(fn.args):
            raise InterpreterError(
                f"@{fn.name} called with {len(arg_values)} args, "
                f"expects {len(fn.args)}"
            )
        self.clock.advance(self.cost.call_ns, "compute")
        if self.instrumented:
            self.clock.advance(self.cost.profile_event_ns, "profiling")
        prev_fn = self._current_fn
        self._current_fn = fn.name
        self.profiler.enter(fn.name)
        env: dict[int, object] = {}
        for formal, actual in zip(fn.args, arg_values):
            env[formal.uid] = actual
        try:
            term = self._exec_block(fn.body, env)
            if not isinstance(term, func_d.ReturnOp):
                raise InterpreterError(f"@{fn.name} did not return")
            return [env[v.uid] for v in term.operands]
        finally:
            self.profiler.exit(fn.name)
            self._current_fn = prev_fn
            if self.instrumented:
                self.clock.advance(self.cost.profile_event_ns, "profiling")

    def _exec_block(self, block: Block, env: dict) -> Operation | None:
        """Run a block's ops; returns its terminator (already 'executed'
        in the sense that its operand values are in env)."""
        for op in block.ops:
            if op.is_terminator:
                return op
            handler = self._dispatch.get(type(op))
            if handler is None:
                raise InterpreterError(f"no interpreter handler for {op.opname}")
            handler(op, env)
        return None

    # -- dispatch table ---------------------------------------------------------

    def _build_dispatch(self):
        return {
            arith.ConstantOp: self._exec_constant,
            arith.BinaryOp: self._exec_binary,
            arith.CmpOp: self._exec_cmp,
            arith.SelectOp: self._exec_select,
            arith.CastOp: self._exec_cast,
            memref.AllocOp: self._exec_alloc,
            remotable.RAllocOp: self._exec_alloc,
            memref.LoadOp: self._exec_load,
            rmem.RLoadOp: self._exec_load,
            memref.StoreOp: self._exec_store,
            rmem.RStoreOp: self._exec_store,
            memref.TouchOp: self._exec_touch,
            rmem.RTouchOp: self._exec_touch,
            memref.DeallocOp: self._exec_dealloc,
            scf.ForOp: self._exec_for,
            scf.ParallelOp: self._exec_parallel,
            scf.IfOp: self._exec_if,
            scf.WhileOp: self._exec_while,
            func_d.CallOp: self._exec_call,
            compute.WorkOp: self._exec_work,
            rmem.PrefetchOp: self._exec_prefetch,
            rmem.BatchPrefetchOp: self._exec_batch_prefetch,
            rmem.FlushOp: self._exec_flush,
            rmem.EvictHintOp: self._exec_evict_hint,
            rmem.DiscardOp: self._exec_discard,
            rmem.OffloadCallOp: self._exec_offload_call,
            prof.RegionBeginOp: self._exec_prof_begin,
            prof.RegionEndOp: self._exec_prof_end,
        }

    # -- cost helpers ------------------------------------------------------------

    def _cpu(self, units: int = 1) -> None:
        self.clock.advance(units * self._cpu_unit, "compute")

    def _mem_access(
        self, ref: MemRefVal, offset: int, size: int, is_write: bool, native: bool
    ) -> None:
        self.clock.advance(self.cost.dram_access_ns, "dram")
        if self._far_depth == 0:
            self.memsys.access(ref.obj_id, offset, size, is_write, native=native)

    # -- arith --------------------------------------------------------------------

    def _exec_constant(self, op: arith.ConstantOp, env: dict) -> None:
        env[op.result.uid] = op.value
        self._cpu()

    def _exec_binary(self, op: arith.BinaryOp, env: dict) -> None:
        a = env[op.operands[0].uid]
        b = env[op.operands[1].uid]
        kind = op.kind
        if kind == "div":
            out = a / b if isinstance(op.result.type, FloatType) else _int_div(a, b)
        elif kind == "rem":
            out = _int_rem(a, b)
        else:
            out = arith.BINARY_KINDS[kind](a, b)
        env[op.result.uid] = out
        self._cpu()

    def _exec_cmp(self, op: arith.CmpOp, env: dict) -> None:
        a = env[op.operands[0].uid]
        b = env[op.operands[1].uid]
        env[op.result.uid] = 1 if arith.CMP_PREDICATES[op.pred](a, b) else 0
        self._cpu()

    def _exec_select(self, op: arith.SelectOp, env: dict) -> None:
        cond = env[op.operands[0].uid]
        env[op.result.uid] = env[op.operands[1 if cond else 2].uid]
        self._cpu()

    def _exec_cast(self, op: arith.CastOp, env: dict) -> None:
        v = env[op.operands[0].uid]
        t = op.result.type
        if isinstance(t, FloatType):
            env[op.result.uid] = float(v)
        elif isinstance(t, (IntType, IndexType)):
            env[op.result.uid] = int(v)
        else:
            raise InterpreterError(f"bad cast target {t}")
        self._cpu()

    # -- memory ---------------------------------------------------------------------

    def _exec_alloc(self, op, env: dict) -> None:
        elem_type = op.result.type.elem
        num = op.num_elems
        name = op.alloc_name
        site = f"{self._current_fn}:{name or op.result.uid}"
        obj = self.memsys.allocate(
            size=num * elem_type.byte_size,
            elem_size=elem_type.byte_size,
            name=name,
            alloc_site=site,
            attrs=dict(op.attrs.get("obj_attrs", {})),
        )
        val = MemRefVal(obj.obj_id, elem_type, num, name)
        self.store.register(val)
        env[op.result.uid] = val
        self.profiler.record_allocation(
            site, name, num * elem_type.byte_size, self._current_fn
        )
        if self.data_init is not None and name:
            self.data_init(name, val)
        self._cpu(10)

    def _exec_load(self, op, env: dict) -> None:
        ref: MemRefVal = env[op.ref.uid]
        index = env[op.index.uid]
        if op.attrs.get("prefetch_stage"):
            # stage-1 of a chained prefetch (%1 = fetch A[i+d]): an
            # asynchronous read of an already-prefetched line, off the
            # critical path -- costs issue time only
            env[op.result.uid] = ref.load(index, op.field)
            self._cpu()
            return
        offset, size = ref.byte_offset(index, op.field)
        native = bool(op.attrs.get("native"))
        self._mem_access(ref, offset, size, is_write=False, native=native)
        env[op.result.uid] = ref.load(index, op.field)
        self._cpu()

    def _exec_store(self, op, env: dict) -> None:
        ref: MemRefVal = env[op.ref.uid]
        index = env[op.index.uid]
        value = env[op.value.uid]
        offset, size = ref.byte_offset(index, op.field)
        native = bool(op.attrs.get("native"))
        self._mem_access(ref, offset, size, is_write=True, native=native)
        ref.store(index, value, op.field)
        self._cpu()

    def _exec_touch(self, op, env: dict) -> None:
        ref: MemRefVal = env[op.ref.uid]
        start = env[op.start.uid]
        length = op.length
        if start < 0 or start + length > ref.size_bytes:
            raise InterpreterError(
                f"touch [{start}, {start + length}) out of bounds for "
                f"{ref.name or ref.obj_id} ({ref.size_bytes} B)"
            )
        self.clock.advance(grid(length / self.cost.dram_stream_bpns), "dram_stream")
        if self._far_depth == 0:
            self.memsys.access(ref.obj_id, start, length, op.is_write)
        self._cpu()

    def _exec_dealloc(self, op: memref.DeallocOp, env: dict) -> None:
        ref: MemRefVal = env[op.ref.uid]
        self.memsys.free(ref.obj_id)
        self._cpu(10)

    # -- control flow -----------------------------------------------------------------

    def _exec_for(self, op: scf.ForOp, env: dict) -> None:
        lb = env[op.lb.uid]
        ub = env[op.ub.uid]
        step = env[op.step.uid]
        if step <= 0:
            raise InterpreterError(f"scf.for with non-positive step {step}")
        carried = [env[v.uid] for v in op.iter_args]
        body = op.body
        iv = body.args[0]
        body_args = body.args[1:]
        for i in range(lb, ub, step):
            env[iv.uid] = i
            for formal, val in zip(body_args, carried):
                env[formal.uid] = val
            term = self._exec_block(body, env)
            carried = [env[v.uid] for v in term.operands]
            self._cpu()  # loop back-edge
        for res, val in zip(op.results, carried):
            env[res.uid] = val

    def _exec_parallel(self, op: scf.ParallelOp, env: dict) -> None:
        iv = op.body.args[0].uid
        for _, chunk in self._thread_region(
            env[op.lb.uid], env[op.ub.uid], env[op.step.uid], op.num_threads
        ):
            for i in chunk:
                env[iv] = i
                self._exec_block(op.body, env)
                self._cpu()

    def _thread_region(self, lb: int, ub: int, step: int, num_threads: int):
        """An ``scf.parallel`` region's threads, simulated one after
        another: yields ``(thread_clock, chunk)`` per thread with the
        active clock switched to that thread's fork of the region's clock.
        Threads share the link fairly -- each sees 1/T of the bandwidth,
        on a wire timeline of its own rather than one serialized across
        the sequential simulation -- and queue T deep on the swap lock.
        After the last chunk the region's clock joins every fork and the
        link is booked to the latest thread's end.  Both engines run every
        region through this one generator."""
        iters = range(lb, ub, step)
        nthreads = min(num_threads, max(1, len(iters)))
        per = (len(iters) + nthreads - 1) // nthreads
        memsys = self.memsys
        network = memsys.network
        fault_lock = getattr(memsys, "fault_lock", None)
        has_tid = hasattr(memsys, "current_thread")
        tr = self.tracer
        base_clock = self.clock
        base_link_free = network._link_free_at
        network.contention = nthreads
        if fault_lock is not None:
            fault_lock.contention = nthreads
        thread_clocks: list[VirtualClock] = []
        link_ends: list[float] = []
        for tid in range(nthreads):
            chunk = iters[tid * per : (tid + 1) * per]
            tclock = base_clock.fork()
            network._link_free_at = base_link_free
            self._set_active_clock(tclock)
            if has_tid:
                memsys.current_thread = tid
            if tr is not None:
                tr.emit("thread.fork", tclock.now, tid=tid, iters=len(chunk))
            yield tclock, chunk
            thread_clocks.append(tclock)
            link_ends.append(network._link_free_at)
        network.contention = 1
        network._link_free_at = max(link_ends, default=base_link_free)
        if fault_lock is not None:
            fault_lock.contention = 1
        self._set_active_clock(base_clock)
        if has_tid:
            memsys.current_thread = None
        for tclock in thread_clocks:
            base_clock.join(tclock)
        if tr is not None:
            tr.emit("thread.join", base_clock.now, threads=nthreads)

    def _set_active_clock(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.memsys.set_clock(clock)

    def _exec_if(self, op: scf.IfOp, env: dict) -> None:
        cond = env[op.cond.uid]
        arm = op.then_block if cond else op.else_block
        self._cpu()
        term = self._exec_block(arm, env)
        if op.results:
            if term is None:
                raise InterpreterError("scf.if arm missing yield for results")
            for res, v in zip(op.results, term.operands):
                env[res.uid] = env[v.uid]

    def _exec_while(self, op: scf.WhileOp, env: dict) -> None:
        carried = [env[v.uid] for v in op.init_args]
        limit = 100_000_000  # guard against non-terminating programs
        for _ in range(limit):
            for formal, val in zip(op.before.args, carried):
                env[formal.uid] = val
            cond_term = self._exec_block(op.before, env)
            assert isinstance(cond_term, scf.ConditionOp)
            forwarded = [env[v.uid] for v in cond_term.forwarded]
            self._cpu()
            if not env[cond_term.cond.uid]:
                for res, val in zip(op.results, forwarded):
                    env[res.uid] = val
                return
            for formal, val in zip(op.after.args, forwarded):
                env[formal.uid] = val
            body_term = self._exec_block(op.after, env)
            carried = [env[v.uid] for v in body_term.operands]
        raise InterpreterError("scf.while exceeded iteration limit")

    # -- calls -------------------------------------------------------------------------

    def _exec_call(self, op: func_d.CallOp, env: dict) -> None:
        callee = self.module.get(op.callee)
        args = [env[v.uid] for v in op.operands]
        if callee.is_offloaded and self._far_depth == 0:
            results = self._offloaded_invoke(callee, args)
        else:
            results = self._call_function(callee, args)
        for res, val in zip(op.results, results):
            env[res.uid] = val

    def _exec_offload_call(self, op: rmem.OffloadCallOp, env: dict) -> None:
        callee = self.module.get(op.callee)
        args = [env[v.uid] for v in op.operands]
        results = self._offloaded_invoke(callee, args)
        for res, val in zip(op.results, results):
            env[res.uid] = val

    def _offloaded_invoke(self, fn: Function, args: list) -> list:
        """Run a remotable function on the far node (section 4.8)."""
        # flush cached state of every remotable argument so the far node
        # sees up-to-date data
        request_bytes = 64
        for a in args:
            if isinstance(a, MemRefVal):
                self.memsys.flush(a.obj_id, 0, a.size_bytes)
                self.memsys.discard(a.obj_id)
                request_bytes += 16  # the far-memory pointer travels
            else:
                request_bytes += 8
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "offload.dispatch", self.clock.now, fn=fn.name, req=request_bytes
            )
        self.memsys.network.rpc(request_bytes, 64)
        self._enter_far()
        try:
            return self._call_function(fn, args)
        finally:
            self._exit_far()

    def _enter_far(self) -> None:
        self._far_depth += 1
        self._cpu_unit = self._far_cpu_unit

    def _exit_far(self) -> None:
        self._far_depth -= 1
        if not self._far_depth:
            self._cpu_unit = self.cost.cpu_op_ns

    # -- compute & profiling ------------------------------------------------------------

    def _exec_work(self, op: compute.WorkOp, env: dict) -> None:
        # ``units`` is the program's: the one non-integer multiple of the unit
        self.clock.advance(grid(op.units * self._cpu_unit), "compute")

    def _exec_prof_begin(self, op: prof.RegionBeginOp, env: dict) -> None:
        self.profiler.region_begin(op.label)
        if self.instrumented:
            self.clock.advance(self.cost.profile_event_ns, "profiling")

    def _exec_prof_end(self, op: prof.RegionEndOp, env: dict) -> None:
        self.profiler.region_end(op.label)
        if self.instrumented:
            self.clock.advance(self.cost.profile_event_ns, "profiling")

    # -- rmem hints -----------------------------------------------------------------------

    def _exec_prefetch(self, op: rmem.PrefetchOp, env: dict) -> None:
        ref: MemRefVal = env[op.ref.uid]
        index = env[op.index.uid]
        self._cpu()
        span = self._clamp_range(ref, index, op.count)
        if span is not None:
            self.memsys.prefetch(ref.obj_id, *span)

    def _exec_batch_prefetch(self, op: rmem.BatchPrefetchOp, env: dict) -> None:
        items = []
        for (ref_v, idx_v), count in zip(op.pairs(), op.counts):
            ref: MemRefVal = env[ref_v.uid]
            index = env[idx_v.uid]
            span = self._clamp_range(ref, index, count)
            if span is not None:
                items.append((ref.obj_id, *span))
        self._cpu()
        if items:
            self.memsys.prefetch_batch(items)

    def _clamp_range(
        self, ref: MemRefVal, index: int, count: int
    ) -> tuple[int, int] | None:
        """Clamp an element range to the object; prefetch is a hint, so
        an out-of-bounds tail is trimmed rather than an error."""
        if index >= ref.num_elems or index < 0:
            return None
        count = min(count, ref.num_elems - index)
        return index * ref.elem_size, count * ref.elem_size

    def _exec_flush(self, op: rmem.FlushOp, env: dict) -> None:
        ref: MemRefVal = env[op.ref.uid]
        index = env[op.index.uid]
        self._cpu()
        span = self._clamp_range(ref, index, op.count)
        if span is not None:
            self.memsys.flush(ref.obj_id, *span)

    def _exec_evict_hint(self, op: rmem.EvictHintOp, env: dict) -> None:
        ref: MemRefVal = env[op.ref.uid]
        index = env[op.index.uid]
        self._cpu()
        if op.mode == "trailing":
            offset = min(max(index, 0), ref.num_elems - 1) * ref.elem_size
            self.memsys.evict_hint_trailing(ref.obj_id, offset)
            return
        span = self._clamp_range(ref, index, op.count)
        if span is not None:
            self.memsys.evict_hint(ref.obj_id, *span)

    def _exec_discard(self, op: rmem.DiscardOp, env: dict) -> None:
        ref: MemRefVal = env[op.ref.uid]
        self._cpu()
        self.memsys.discard(ref.obj_id)
