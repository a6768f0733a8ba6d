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
        # a section of fewer lines than ways is one set of that many lines
        self._ways = min(self.config.ways, self.config.num_lines)
        self._num_sets = self.config.num_lines // self._ways
        #: set index -> bucket; a bucket exists once a line was placed in
        #: it.  Buckets order keys only (the lines are in ``_resident``):
        #: a line pointing at a bucket of lines would be a reference
        #: cycle, and a dropped section would wait for the cycle collector
        self._sets: dict[int, OrderedDict[LineKey, None]] = {}

    def _admit(self, line: Line, settled: bool = False) -> Line | None:
        key = line.key
        idx = (key[1] + key[0] * 0x9E3779B1) % self._num_sets
        resident = self._resident
        victim = None
        try:
            bucket = self._sets[idx]
        except KeyError:
            bucket = self._sets[idx] = OrderedDict()
        else:
            if len(bucket) >= self._ways:
                # evictable-first, then LRU (section 4.5, eviction hints);
                # no hinted line anywhere means none in this set to scan
                # for, and the LRU head is the first key, read without a call
                hinted = self._hinted
                for victim_key in bucket:
                    if not hinted or resident[victim_key].evictable:
                        break
                else:
                    for victim_key in bucket:
                        break
                victim = resident[victim_key]
                if settled and victim.ready_at:
                    return line
                del bucket[victim_key]
                del resident[victim_key]
        bucket[key] = None
        line.order = bucket
        resident[key] = line
        return victim

    def _unplace(self, line: Line) -> None:
        del line.order[line.key]

    def resident_lines(self) -> list[Line]:
        resident = self._resident
        return [resident[key] for bucket in self._sets.values() for key in bucket]
