"""``rmem`` dialect (paper section 5.1): operations on remotable objects.

Basic accesses (``rmem.load``/``rmem.store``) extend memref operations to
remote memrefs; the rest are the compiler-inserted optimizations of
section 4.5: asynchronous prefetch, batched prefetch, flush, eviction
hints, and read-only discard.

Important attributes passes set on these ops:

* ``native`` (load/store) -- dereference elided; the access compiles to a
  native memory instruction (section 4.4);
* ``mode`` (evict_hint) -- ``"trailing"`` marks the line *behind* the
  current index (streaming), ``"exact"`` marks the addressed line.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.core import Operation, Value
from repro.ir.types import IndexType, IRType, MemRefType, StructType


def _check_remote_ref(op: str, ref: Value) -> MemRefType:
    if not isinstance(ref.type, MemRefType) or not ref.type.remote:
        raise IRError(f"{op}: expected a remote memref, got {ref.type}")
    return ref.type


def _check_index(op: str, index: Value) -> None:
    if not isinstance(index.type, IndexType):
        raise IRError(f"{op}: index must be of index type, got {index.type}")


def _loaded_type(ref_type: MemRefType, field: str | None) -> IRType:
    if field is None:
        return ref_type.elem
    if not isinstance(ref_type.elem, StructType):
        raise IRError(f"field access {field!r} on non-struct element {ref_type.elem}")
    return ref_type.elem.field_type(field)


class RLoadOp(Operation):
    opname = "rmem.load"

    def __init__(self, ref: Value, index: Value, field: str | None = None) -> None:
        rt = _check_remote_ref(self.opname, ref)
        _check_index(self.opname, index)
        super().__init__(
            [ref, index], [_loaded_type(rt, field)], {"field": field, "native": False}
        )

    @property
    def ref(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def field(self) -> str | None:
        return self.attrs.get("field")

    @property
    def native(self) -> bool:
        return bool(self.attrs.get("native"))


class RStoreOp(Operation):
    opname = "rmem.store"

    def __init__(
        self, value: Value, ref: Value, index: Value, field: str | None = None
    ) -> None:
        rt = _check_remote_ref(self.opname, ref)
        _check_index(self.opname, index)
        expected = _loaded_type(rt, field)
        if value.type != expected:
            raise IRError(
                f"rmem.store: storing {value.type} into slot of type {expected}"
            )
        super().__init__([value, ref, index], (), {"field": field, "native": False})

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def ref(self) -> Value:
        return self.operands[1]

    @property
    def index(self) -> Value:
        return self.operands[2]

    @property
    def field(self) -> str | None:
        return self.attrs.get("field")

    @property
    def native(self) -> bool:
        return bool(self.attrs.get("native"))


class RTouchOp(Operation):
    """Coarse range access on a remote memref (layer-granularity code)."""

    opname = "rmem.touch"

    def __init__(
        self, ref: Value, start: Value, length: int, is_write: bool = False
    ) -> None:
        _check_remote_ref(self.opname, ref)
        _check_index(self.opname, start)
        if length <= 0:
            raise IRError(f"rmem.touch: length must be positive, got {length}")
        super().__init__([ref, start], (), {"length": length, "is_write": is_write})

    @property
    def ref(self) -> Value:
        return self.operands[0]

    @property
    def start(self) -> Value:
        return self.operands[1]

    @property
    def length(self) -> int:
        return self.attrs["length"]

    @property
    def is_write(self) -> bool:
        return self.attrs["is_write"]


class PrefetchOp(Operation):
    """Asynchronously fetch ``count`` elements starting at ``index``."""

    opname = "rmem.prefetch"

    def __init__(self, ref: Value, index: Value, count: int = 1) -> None:
        _check_remote_ref(self.opname, ref)
        _check_index(self.opname, index)
        super().__init__([ref, index], (), {"count": count})

    @property
    def ref(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def count(self) -> int:
        return self.attrs["count"]


class BatchPrefetchOp(Operation):
    """One network message prefetching ranges from several objects
    (data-access batching, section 4.5): operands alternate
    ``ref0, index0, ref1, index1, ...``; ``counts[i]`` elements each."""

    opname = "rmem.batch_prefetch"

    def __init__(self, pairs: list[tuple[Value, Value]], counts: list[int]) -> None:
        if len(pairs) != len(counts) or not pairs:
            raise IRError("rmem.batch_prefetch: pairs/counts mismatch or empty")
        flat: list[Value] = []
        for ref, index in pairs:
            _check_remote_ref(self.opname, ref)
            _check_index(self.opname, index)
            flat.extend((ref, index))
        super().__init__(flat, (), {"counts": list(counts)})

    @property
    def counts(self) -> list[int]:
        return self.attrs["counts"]

    def pairs(self) -> list[tuple[Value, Value]]:
        ops = self.operands
        return [(ops[i], ops[i + 1]) for i in range(0, len(ops), 2)]


class FlushOp(Operation):
    """Asynchronously write back ``count`` elements (pre-eviction flush)."""

    opname = "rmem.flush"

    def __init__(self, ref: Value, index: Value, count: int = 1) -> None:
        _check_remote_ref(self.opname, ref)
        _check_index(self.opname, index)
        super().__init__([ref, index], (), {"count": count})

    @property
    def ref(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def count(self) -> int:
        return self.attrs["count"]


class EvictHintOp(Operation):
    """Mark lines evictable after their last access (section 4.5)."""

    opname = "rmem.evict_hint"

    def __init__(
        self, ref: Value, index: Value, count: int = 1, mode: str = "exact"
    ) -> None:
        _check_remote_ref(self.opname, ref)
        _check_index(self.opname, index)
        if mode not in ("exact", "trailing"):
            raise IRError(f"rmem.evict_hint: unknown mode {mode!r}")
        super().__init__([ref, index], (), {"count": count, "mode": mode})

    @property
    def ref(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def count(self) -> int:
        return self.attrs["count"]

    @property
    def mode(self) -> str:
        return self.attrs["mode"]


class DiscardOp(Operation):
    """Drop an object's clean cached lines without write-back (read-only
    loop epilogue, section 4.5 read/write optimization)."""

    opname = "rmem.discard"

    def __init__(self, ref: Value) -> None:
        _check_remote_ref(self.opname, ref)
        super().__init__([ref])

    @property
    def ref(self) -> Value:
        return self.operands[0]


class OffloadCallOp(Operation):
    """Invoke a remotable function on the far-memory node via RPC
    (section 4.8); the runtime flushes the function's cached remotable
    objects before the call."""

    opname = "rmem.offload_call"

    def __init__(self, callee: str, args: list[Value], result_types=()) -> None:
        super().__init__(list(args), list(result_types), {"callee": callee})

    @property
    def callee(self) -> str:
        return self.attrs["callee"]
