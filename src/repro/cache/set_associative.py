"""K-way set-associative cache section.

Middle ground between direct mapping's cheap lookup and full
associativity's conflict-freedom; the planner sizes K from the estimated
conflicts in the analyzed locality sets (section 4.2).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.section import CacheSection, Line, LineKey


class SetAssociativeSection(CacheSection):
    """Sets are OrderedDicts of keys in LRU order (oldest first)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._num_sets = max(1, self.config.num_lines // self.config.ways)
        self._ways = self.config.ways
        #: set index -> bucket; a bucket exists once a line was placed in
        #: it.  Buckets order keys only (the lines are in ``_resident``):
        #: a line pointing at a bucket of lines would be a reference
        #: cycle, and a dropped section would wait for the cycle collector
        self._sets: dict[int, OrderedDict[LineKey, None]] = {}

    def _set_index(self, key: LineKey) -> int:
        return (key[1] + key[0] * 0x9E3779B1) % self._num_sets

    def choose_victim(self, key: LineKey) -> Line | None:
        bucket = self._sets.get(self._set_index(key))
        if bucket is None or len(bucket) < self._ways:
            return None
        # evictable-first, then LRU (section 4.5, eviction hints)
        resident = self._resident
        for candidate in bucket:
            if resident[candidate].evictable:
                return resident[candidate]
        return resident[next(iter(bucket))]

    def _place(self, line: Line) -> None:
        idx = self._set_index(line.key)
        bucket = self._sets.get(idx)
        if bucket is None:
            bucket = self._sets[idx] = OrderedDict()
        bucket[line.key] = None
        line.order = bucket

    def _unplace(self, line: Line) -> None:
        del line.order[line.key]

    def resident_lines(self) -> list[Line]:
        resident = self._resident
        return [resident[key] for bucket in self._sets.values() for key in bucket]
