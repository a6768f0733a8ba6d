"""Native execution: all memory local, no far-memory machinery.

Every experiment reports performance normalized to this system's virtual
time on the same program ("normalized over native execution on full local
memory", paper section 4).
"""

from __future__ import annotations

from repro.cache.interface import MemorySystem


class NativeMemory(MemorySystem):
    """All-local memory; accesses cost nothing beyond the interpreter's
    uniform CPU/DRAM charges."""

    name = "native"

    def access(
        self,
        obj_id: int,
        offset: int,
        size: int,
        is_write: bool,
        native: bool = False,
    ) -> None:
        rec = self._rec_access
        if rec is not None:
            rec(self.clock.now, obj=obj_id, off=offset, size=size, w=is_write)
        # data is local: the interpreter's DRAM charge covers it
        return None

    # -- bulk path (codegen engine): access() is a no-op, so a strided
    # batch is exactly the interpreter-side charges, aggregated.  With
    # the op log on, the per-element path must run so every access is
    # recorded (same rule as the swap/section bulk paths).

    def _bulk(self, count: int, dram_ns: float, cpu_ns: float) -> bool:
        if count <= 0:
            return True
        if self._rec_access is not None:
            return False
        self.clock.advance(count * dram_ns, "dram")
        self.clock.charge(count * cpu_ns)
        return True

    def bulk_load(
        self, obj_id, offset0, stride, size, count, native, dram_ns, cpu_ns
    ) -> bool:
        return self._bulk(count, dram_ns, cpu_ns)

    def bulk_store(
        self, obj_id, offset0, stride, size, count, native, dram_ns, cpu_ns
    ) -> bool:
        return self._bulk(count, dram_ns, cpu_ns)
