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

    def choose_victim(self, key: LineKey) -> Line | None:
        if len(self._lru) < self._num_lines:
            return None
        return self._resident[next(iter(self._evictable or self._lru))]

    def _place(self, line: Line) -> None:
        self._lru[line.key] = None
        line.order = self._lru
        if line.evictable:
            self._evictable[line.key] = None

    def _unplace(self, line: Line) -> None:
        del self._lru[line.key]
        self._evictable.pop(line.key, None)

    def resident_lines(self) -> list[Line]:
        resident = self._resident
        return [resident[key] for key in self._lru]

    def _unhint(self, line: Line) -> None:
        line.evictable = False
        self._evictable.pop(line.key, None)

    def evict_hint_line(self, key: LineKey) -> None:
        super().evict_hint_line(key)
        line = self._resident.get(key)
        if line is not None and line.evictable:
            self._evictable[key] = None
