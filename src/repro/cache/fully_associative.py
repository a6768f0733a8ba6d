"""Fully-associative cache section.

Best space utilization (no conflict misses) at the highest lookup cost.
Eviction approximates LRU with active/inactive lists (paper section 5.3);
compiler-hinted evictable lines go first.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.section import CacheSection, Line, LineKey


class FullyAssociativeSection(CacheSection):
    """One LRU order over all lines and an evictable set."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._num_lines = self.config.num_lines
        #: keys only (the lines are in ``_resident``; see the note on
        #: ``SetAssociativeSection._sets``)
        self._lru: OrderedDict[LineKey, None] = OrderedDict()
        self._evictable: OrderedDict[LineKey, None] = OrderedDict()

    def _admit(self, line: Line, settled: bool = False) -> Line | None:
        lru = self._lru
        resident = self._resident
        victim = None
        if len(lru) >= self._num_lines:
            # evictable-first, then LRU: either order's first key, read
            # without a call
            evictable = self._evictable
            for victim_key in evictable or lru:
                break
            victim = resident[victim_key]
            if settled and victim.ready_at:
                return line
            if evictable:
                del evictable[victim_key]
            del lru[victim_key]
            del resident[victim_key]
        key = line.key
        lru[key] = None
        line.order = lru
        resident[key] = line
        return victim

    def _unplace(self, line: Line) -> None:
        del self._lru[line.key]
        self._evictable.pop(line.key, None)

    def resident_lines(self) -> list[Line]:
        resident = self._resident
        return [resident[key] for key in self._lru]

    def _hint(self, line: Line) -> None:
        super()._hint(line)
        self._evictable[line.key] = None

    def _unhint(self, line: Line) -> None:
        super()._unhint(line)
        self._evictable.pop(line.key, None)
