"""Native execution: all memory local, no far-memory machinery.

Every experiment reports performance normalized to this system's virtual
time on the same program ("normalized over native execution on full local
memory", paper section 4).
"""

from __future__ import annotations

from repro.cache.interface import MemorySystem
from repro.cache.oplog import logged


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
        # data is local: the interpreter's DRAM charge covers it
        return None

    def stream_access(self, obj_id, ops, size, dram_ns, before_ns, after_ns):
        """A run is its charges too: the ops are counted up to the first
        that leaves the object, then charged in one step each for dram
        and compute.  Declines while the op log records."""
        if logged(self):
            return None
        lim = self.address_space.get(obj_id).size - size
        taken, stop = 0, None
        for off, w in ops:
            if not 0 <= off <= lim:
                stop = off, w
                break
            taken += 1
        if taken:
            self.clock.advance(taken * dram_ns, "dram")
            self.clock.charge(taken * (before_ns + after_ns))
        return taken, stop
