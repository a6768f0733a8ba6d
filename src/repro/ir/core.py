"""Core IR structures: values, operations, blocks, regions, functions,
modules.

Structured control flow only (as in MLIR's ``scf``): every region has a
single block and loops/branches are ops with nested regions, which keeps
analyses simple and sound.  SSA: each :class:`Value` is defined once, by an
operation result or a block argument.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.errors import IRError
from repro.ir.types import FuncType, IRType

_value_ids = itertools.count()


class Value:
    """An SSA value: the result of an op or a block argument."""

    __slots__ = ("type", "name_hint", "uid", "producer", "owner_block")

    def __init__(self, type: IRType, name_hint: str = "") -> None:
        self.type = type
        self.name_hint = name_hint
        self.uid = next(_value_ids)
        self.producer: "Operation | None" = None
        self.owner_block: "Block | None" = None

    def __repr__(self) -> str:
        tag = self.name_hint or f"v{self.uid}"
        return f"%{tag}: {self.type}"


class Operation:
    """Base operation: operands, typed results, attributes, nested regions.

    Subclasses (the dialects) define ``opname`` and typed constructors.
    Attributes are plain Python values; passes communicate through them
    (e.g. ``native``, ``prefetch_distance``).
    """

    opname = "generic.op"
    #: does this op terminate its block? (return / yield / condition)
    is_terminator = False

    def __init__(
        self,
        operands: list[Value] | tuple = (),
        result_types: list[IRType] | tuple = (),
        attrs: dict | None = None,
        regions: "list[Region] | tuple" = (),
    ) -> None:
        self.operands: list[Value] = list(operands)
        for v in self.operands:
            if not isinstance(v, Value):
                raise IRError(
                    f"{self.opname}: operand {v!r} is not an SSA Value "
                    f"(did you pass a raw Python number?)"
                )
        self.results: list[Value] = []
        for t in result_types:
            val = Value(t)
            val.producer = self
            self.results.append(val)
        self.attrs: dict = dict(attrs or {})
        self.regions: list[Region] = list(regions)
        for r in self.regions:
            r.parent_op = self
        self.parent_block: "Block | None" = None

    @property
    def result(self) -> Value:
        if len(self.results) != 1:
            raise IRError(f"{self.opname} has {len(self.results)} results, not 1")
        return self.results[0]

    def region(self, i: int = 0) -> "Region":
        return self.regions[i]

    def walk(self) -> Iterator["Operation"]:
        """This op, then every op nested in its regions, pre-order."""
        yield self
        for region in self.regions:
            for block in region.blocks:
                for op in block.ops:
                    yield from op.walk()

    def replace_uses_of(self, old: Value, new: Value) -> None:
        self.operands = [new if v is old else v for v in self.operands]

    def __repr__(self) -> str:
        return f"<{self.opname} @{id(self):x}>"


class Block:
    """A straight-line op sequence with typed arguments."""

    def __init__(self, arg_types: list[IRType] | tuple = (), arg_names=()) -> None:
        names = list(arg_names) + [""] * (len(arg_types) - len(arg_names))
        self.args: list[Value] = []
        for t, n in zip(arg_types, names):
            v = Value(t, n)
            v.owner_block = self
            self.args.append(v)
        self.ops: list[Operation] = []
        self.parent_region: "Region | None" = None

    def append(self, op: Operation) -> Operation:
        if self.ops and self.ops[-1].is_terminator:
            raise IRError(
                f"cannot append {op.opname} after terminator "
                f"{self.ops[-1].opname}"
            )
        op.parent_block = self
        self.ops.append(op)
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        op.parent_block = self
        self.ops.insert(index, op)
        return op

    def remove(self, op: Operation) -> None:
        self.ops.remove(op)
        op.parent_block = None

    @property
    def terminator(self) -> Operation | None:
        if self.ops and self.ops[-1].is_terminator:
            return self.ops[-1]
        return None


class Region:
    """A container of blocks; we only use single-block regions."""

    def __init__(self, blocks: list[Block] | None = None) -> None:
        self.blocks: list[Block] = blocks or []
        for b in self.blocks:
            b.parent_region = self
        self.parent_op: Operation | None = None

    def add_block(self, block: Block) -> Block:
        block.parent_region = self
        self.blocks.append(block)
        return block

    @property
    def block(self) -> Block:
        if len(self.blocks) != 1:
            raise IRError(f"region has {len(self.blocks)} blocks, expected 1")
        return self.blocks[0]


class Function:
    """A named function: one body block whose args are the parameters."""

    def __init__(
        self,
        name: str,
        arg_types: list[IRType] | tuple = (),
        result_types: list[IRType] | tuple = (),
        arg_names=(),
    ) -> None:
        self.name = name
        self.type = FuncType(tuple(arg_types), tuple(result_types))
        self.body = Block(arg_types, arg_names)
        self.attrs: dict = {}

    @property
    def args(self) -> list[Value]:
        return self.body.args

    @property
    def is_remotable(self) -> bool:
        return bool(self.attrs.get("remotable"))

    @property
    def is_offloaded(self) -> bool:
        return bool(self.attrs.get("offloaded"))

    def walk(self) -> Iterator[Operation]:
        for op in self.body.ops:
            yield from op.walk()

    def __repr__(self) -> str:
        return f"<func @{self.name} {self.type}>"


class Module:
    """A compilation unit: functions plus module-level attributes
    (section configs, plan provenance, profiling flags)."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.attrs: dict = {}

    def add(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise IRError(f"duplicate function @{fn.name}")
        self.functions[fn.name] = fn
        return fn

    def get(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function @{name} in module {self.name}") from None

    def walk(self) -> Iterator[Operation]:
        for fn in self.functions.values():
            yield from fn.walk()

    def clone(self) -> "Module":
        """Deep-copy the module (compilation iterations mutate copies)."""
        from repro.ir.cloning import clone_module

        return clone_module(self)
