"""Scalar evolution (paper section 5.2.2).

Classifies an index expression relative to a loop's induction variable:

* :class:`Affine` -- ``coeff * iv + base`` where ``coeff`` is a known
  constant and ``base`` is loop-invariant (constant if ``base_const`` is
  set); covers sequential (|stride| == 1) and strided patterns;
* :class:`Indirect` -- the index comes (through arithmetic/casts) from a
  value loaded from memory (``B[A[i]]``); the source load is recorded so
  the prefetch pass can chain fetches exactly as the paper's example does;
* :class:`Invariant` -- defined outside the loop;
* :class:`Unknown` -- anything else (sound fallback: no optimization).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.core import Block, Operation, Value
from repro.ir.dialects import arith, memref, rmem, scf


class SCEV:
    """Base class for scalar-evolution results."""


@dataclass(frozen=True)
class Affine(SCEV):
    """``coeff * iv + base``; ``base_const`` is None when the base is a
    loop-invariant symbol rather than a literal."""

    coeff: int
    base_const: int | None = None

    @property
    def stride(self) -> int:
        return self.coeff


class Indirect(SCEV):
    """Index derived from a memory load; ``source_load`` is that op."""

    __slots__ = ("source_load",)

    def __init__(self, source_load: Operation) -> None:
        self.source_load = source_load

    def __eq__(self, other) -> bool:  # identity of the load matters
        return isinstance(other, Indirect) and other.source_load is self.source_load

    def __hash__(self) -> int:
        return id(self.source_load)

    def __repr__(self) -> str:
        return f"Indirect({self.source_load.opname})"


@dataclass(frozen=True)
class Invariant(SCEV):
    """Loop-invariant (uniform across iterations)."""


@dataclass(frozen=True)
class Unknown(SCEV):
    """Analysis cannot classify (sound: treated as random)."""


def _defined_in(value: Value, body: Block) -> bool:
    """Is ``value`` defined inside ``body`` (including nested regions)?"""
    if value.owner_block is not None:
        block = value.owner_block
    elif value.producer is not None:
        block = value.producer.parent_block
    else:
        return False
    while block is not None:
        if block is body:
            return True
        region = block.parent_region
        if region is None or region.parent_op is None:
            return False
        block = region.parent_op.parent_block
    return False


def scev_of(value: Value, loop, _depth: int = 0) -> SCEV:
    """Scalar evolution of ``value`` with respect to ``loop``'s IV
    (``loop`` is an scf.for or scf.parallel)."""
    if _depth > 64:
        return Unknown()
    if value is loop.induction_var:
        return Affine(1, 0)
    if not _defined_in(value, loop.body):
        # defined before the loop (or a function arg): invariant
        return Invariant()
    producer = value.producer
    if producer is None:
        # a block argument of a nested loop: unknown w.r.t. this loop
        return Unknown()
    if isinstance(producer, arith.ConstantOp):
        v = producer.value
        if isinstance(v, int):
            return Affine(0, v)
        return Invariant()
    if isinstance(producer, arith.CastOp):
        return scev_of(producer.operands[0], loop, _depth + 1)
    if isinstance(producer, (memref.LoadOp, rmem.RLoadOp)):
        return Indirect(producer)
    if isinstance(producer, arith.BinaryOp):
        lhs = scev_of(producer.operands[0], loop, _depth + 1)
        rhs = scev_of(producer.operands[1], loop, _depth + 1)
        return _combine(producer.kind, lhs, rhs)
    if isinstance(producer, arith.SelectOp):
        return Unknown()
    return Unknown()


def _combine(kind: str, lhs: SCEV, rhs: SCEV) -> SCEV:
    # indirectness dominates: arithmetic on a loaded value stays indirect
    for s in (lhs, rhs):
        if isinstance(s, Indirect):
            return s
    if isinstance(lhs, Unknown) or isinstance(rhs, Unknown):
        return Unknown()
    la = _as_affine(lhs)
    ra = _as_affine(rhs)
    if la is None or ra is None:
        return Unknown()
    lc, lb = la
    rc, rb = ra
    if kind == "add":
        return Affine(lc + rc, _add(lb, rb))
    if kind == "sub":
        return Affine(lc - rc, _sub(lb, rb))
    if kind == "mul":
        # affine * constant stays affine; affine * affine does not
        if rc == 0 and rb is not None:
            return Affine(lc * rb, _mul(lb, rb))
        if lc == 0 and lb is not None:
            return Affine(rc * lb, _mul(rb, lb))
        return Unknown()
    if kind in ("min", "max") and lc == rc == 0:
        return Invariant()
    return Unknown()


def _as_affine(s: SCEV) -> tuple[int, int | None] | None:
    """(coeff, base_const or None) for affine-like SCEVs."""
    if isinstance(s, Affine):
        return s.coeff, s.base_const
    if isinstance(s, Invariant):
        return 0, None
    return None


def _add(a: int | None, b: int | None) -> int | None:
    return a + b if a is not None and b is not None else None


def _sub(a: int | None, b: int | None) -> int | None:
    return a - b if a is not None and b is not None else None


def _mul(a: int | None, b: int | None) -> int | None:
    return a * b if a is not None and b is not None else None
