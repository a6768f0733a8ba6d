"""Object identities and the shared virtual address space.

Every allocation in a simulated program becomes an :class:`ObjectInfo` with
a stable object id and a page-aligned virtual base address.  Object-granular
systems (Mira cache sections, AIFM) key their state by object id; the
page-granular swap baselines (FastSwap, Leap) see flat virtual addresses.
Both views are derived from one :class:`AddressSpace`, so every system
observes the *same* access stream.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import inf

from repro.errors import MemoryError_

#: OS page size used by the swap-based systems (paper section 5.3).
PAGE_SIZE = 4096


@dataclass
class ObjectInfo:
    """One allocated far-memory-capable object."""

    obj_id: int
    size: int
    elem_size: int
    base_va: int
    name: str = ""
    alloc_site: str = ""
    freed: bool = False
    #: arbitrary per-object annotations (e.g. struct field layout)
    attrs: dict = field(default_factory=dict)

    @property
    def num_elems(self) -> int:
        return self.size // self.elem_size if self.elem_size else 0

    @property
    def end_va(self) -> int:
        return self.base_va + self.size

    def va_of(self, byte_offset: int) -> int:
        """Virtual address of a byte offset inside this object."""
        if not 0 <= byte_offset < max(self.size, 1):
            raise MemoryError_(
                f"offset {byte_offset} out of bounds for object "
                f"{self.name or self.obj_id} of size {self.size}"
            )
        return self.base_va + byte_offset

    def out_of_bounds(self, offset: int, size: int) -> MemoryError_:
        """The error every memory system raises for an access that leaves
        the object (callers inline the range test on their hot paths)."""
        return MemoryError_(
            f"access [{offset}, {offset + size}) out of bounds for "
            f"object {self.name or self.obj_id} ({self.size} B)"
        )


class AddressSpace:
    """Allocates object ids and page-aligned virtual address ranges."""

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next_id = 1
        self._next_va = base
        self._objects: dict[int, ObjectInfo] = {}
        #: parallel arrays for VA -> object lookup (``_next_va`` only
        #: grows, so appends keep ``_va_bases`` sorted and bisect works)
        self._va_bases: list[int] = []
        self._va_objs: list[ObjectInfo] = []

    def allocate(
        self,
        size: int,
        elem_size: int = 8,
        name: str = "",
        alloc_site: str = "",
        attrs: dict | None = None,
    ) -> ObjectInfo:
        """Create a new object covering ``size`` bytes."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive, got {size}")
        if elem_size <= 0:
            raise MemoryError_(f"element size must be positive, got {elem_size}")
        obj = ObjectInfo(
            obj_id=self._next_id,
            size=size,
            elem_size=elem_size,
            base_va=self._next_va,
            name=name,
            alloc_site=alloc_site,
            attrs=attrs or {},
        )
        self._objects[obj.obj_id] = obj
        self._va_bases.append(obj.base_va)
        self._va_objs.append(obj)
        self._next_id += 1
        # keep objects page-aligned and non-adjacent (guard page) so that a
        # page never spans two objects -- matches how real allocators place
        # large objects and keeps swap accounting simple
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE + 1
        self._next_va += pages * PAGE_SIZE
        return obj

    def free(self, obj_id: int) -> None:
        obj = self.get(obj_id)
        if obj.freed:
            raise MemoryError_(f"double free of object {obj_id}")
        obj.freed = True

    def get(self, obj_id: int) -> ObjectInfo:
        try:
            return self._objects[obj_id]
        except KeyError:
            raise MemoryError_(f"unknown object id {obj_id}") from None

    def objects(self) -> list[ObjectInfo]:
        """All allocated objects, in allocation order."""
        return list(self._objects.values())

    def live_objects(self) -> list[ObjectInfo]:
        return [o for o in self._objects.values() if not o.freed]

    def total_live_bytes(self) -> int:
        return sum(o.size for o in self.live_objects())

    def find_by_name(self, name: str) -> ObjectInfo:
        for obj in self._objects.values():
            if obj.name == name:
                return obj
        raise MemoryError_(f"no object named {name!r}")

    # -- VA -> object resolution (raw-trace frontend) ------------------------

    def object_at(self, va: int) -> ObjectInfo:
        """The live object containing virtual address ``va``.

        Raises :class:`~repro.errors.MemoryError_` (never ``KeyError``)
        for addresses outside every allocation -- including the guard
        pages between objects -- and for addresses inside freed objects.
        """
        idx = bisect_right(self._va_bases, va) - 1
        if idx >= 0:
            obj = self._va_objs[idx]
            if va < obj.end_va:
                if obj.freed:
                    raise MemoryError_(
                        f"address {va:#x} is inside freed object "
                        f"{obj.name or obj.obj_id}"
                    )
                return obj
        raise MemoryError_(f"address {va:#x} is not mapped to any object")

    def live_run(self, va: int) -> tuple[ObjectInfo | None, float, float]:
        """``(owner, start, end)``: the live object containing ``va`` (what
        :meth:`object_at` returns) or None, and the address range
        ``[start, end)`` around ``va`` with the same answer until the next
        allocation -- the object's own range, or the gap (or freed
        object) ``va`` is in."""
        bases = self._va_bases
        idx = bisect_right(bases, va) - 1
        if idx < 0:
            return None, -inf, bases[0] if bases else inf
        obj = self._va_objs[idx]
        end = obj.base_va + obj.size
        if va < end:
            return (None if obj.freed else obj), obj.base_va, end
        return None, end, bases[idx + 1] if idx + 1 < len(bases) else inf

    def resolve(self, va: int, size: int) -> tuple[ObjectInfo, int]:
        """Resolve an access of ``size`` bytes at ``va`` to
        ``(object, byte offset)``.

        The whole range ``[va, va+size)`` must sit inside one object: a
        range that runs off the end of its object (into the guard page,
        or straddling toward the next allocation) is a typed error, as is
        a zero- or negative-length access.
        """
        if size <= 0:
            raise MemoryError_(
                f"access size must be positive, got {size} at {va:#x}"
            )
        obj = self.object_at(va)
        if va + size > obj.end_va:
            raise MemoryError_(
                f"access [{va:#x}, {va + size:#x}) straddles the end of "
                f"object {obj.name or obj.obj_id} "
                f"([{obj.base_va:#x}, {obj.end_va:#x}))"
            )
        return obj, va - obj.base_va
