"""The interpreter's object store: real data values for allocated objects.

Performance (placement, misses, network) is simulated by the memory
system; *correctness* lives here.  Struct-element objects store one Python
list per field (columnar), scalar-element objects store a single list.
"""

from __future__ import annotations

from repro.errors import InterpreterError
from repro.ir.types import FloatType, IRType, StructType


def _default_value(t: IRType):
    if isinstance(t, FloatType):
        return 0.0
    return 0


class MemRefVal:
    """Runtime value of a memref: identity plus backing data."""

    __slots__ = ("obj_id", "elem_type", "num_elems", "elem_size", "name", "_data")

    def __init__(
        self, obj_id: int, elem_type: IRType, num_elems: int, name: str = ""
    ) -> None:
        self.obj_id = obj_id
        self.elem_type = elem_type
        self.num_elems = num_elems
        self.elem_size = elem_type.byte_size
        self.name = name

    def __getattr__(self, attr: str):
        """Build ``_data`` on first use.  Only reached while the slot is
        unset, so it costs nothing afterwards; an object that is only ever
        *touched* (simulated accesses, no value read or written -- GPT-2's
        weights) never pays for its backing lists."""
        if attr != "_data":
            raise AttributeError(attr)
        elem_type, num_elems = self.elem_type, self.num_elems
        if isinstance(elem_type, StructType):
            data = {
                fname: [_default_value(ft)] * num_elems
                for fname, ft in elem_type.fields
            }
        else:
            data = [_default_value(elem_type)] * num_elems
        self._data = data
        return data

    # -- data access ---------------------------------------------------------

    def load(self, index: int, field: str | None = None):
        self._check(index)
        if field is None:
            if isinstance(self.elem_type, StructType):
                return tuple(col[index] for col in self._data.values())
            return self._data[index]
        return self._data[field][index]

    def store(self, index: int, value, field: str | None = None) -> None:
        self._check(index)
        if field is None:
            if isinstance(self.elem_type, StructType):
                raise InterpreterError(
                    f"whole-struct store to {self.name or self.obj_id}; "
                    f"store individual fields"
                )
            self._data[index] = value
        else:
            self._data[field][index] = value

    def fill(self, values, field: str | None = None) -> None:
        """Bulk-initialize backing data (no virtual time charged)."""
        values = list(values)
        if len(values) != self.num_elems:
            raise InterpreterError(
                f"fill of {self.name or self.obj_id}: got {len(values)} values "
                f"for {self.num_elems} elements"
            )
        if field is None:
            if isinstance(self.elem_type, StructType):
                raise InterpreterError("fill a struct memref per field")
            self._data = values
        else:
            if field not in self._data:
                raise InterpreterError(f"no field {field!r}")
            self._data[field] = values

    def byte_offset(self, index: int, field: str | None = None) -> tuple[int, int]:
        """(byte offset, access size) of an element or field access."""
        base = index * self.elem_size
        if field is None or not isinstance(self.elem_type, StructType):
            return base, self.elem_size
        return (
            base + self.elem_type.field_offset(field),
            self.elem_type.field_type(field).byte_size,
        )

    @property
    def size_bytes(self) -> int:
        return self.num_elems * self.elem_size

    def _check(self, index: int) -> None:
        if not isinstance(index, int):
            raise InterpreterError(
                f"index into {self.name or self.obj_id} must be an int, "
                f"got {type(index).__name__}"
            )
        if not 0 <= index < self.num_elems:
            raise InterpreterError(
                f"index {index} out of bounds for {self.name or self.obj_id} "
                f"({self.num_elems} elements)"
            )

    def __repr__(self) -> str:
        return (
            f"MemRefVal({self.name or self.obj_id}, {self.elem_type} "
            f"x {self.num_elems})"
        )


class ObjectStore:
    """All live MemRefVals, by object id and by allocation name."""

    def __init__(self) -> None:
        self._by_id: dict[int, MemRefVal] = {}
        self._by_name: dict[str, MemRefVal] = {}

    def register(self, val: MemRefVal) -> None:
        self._by_id[val.obj_id] = val
        if val.name:
            self._by_name[val.name] = val

    def by_id(self, obj_id: int) -> MemRefVal:
        try:
            return self._by_id[obj_id]
        except KeyError:
            raise InterpreterError(f"no live object with id {obj_id}") from None

    def by_name(self, name: str) -> MemRefVal:
        try:
            return self._by_name[name]
        except KeyError:
            raise InterpreterError(f"no live object named {name!r}") from None

    def names(self) -> list[str]:
        return list(self._by_name)
