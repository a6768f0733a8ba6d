"""Directly-mapped cache section.

Cheapest lookup (one slot to check) and zero conflict cost for sequential
or strided patterns, which is why the planner picks it for those
(section 4.2).
"""

from __future__ import annotations

from repro.cache.section import CacheSection, Line, LineKey


class DirectMappedSection(CacheSection):
    """Each line key maps to exactly one slot; no recency to keep."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._num_lines = self.config.num_lines
        self._slots: dict[int, Line] = {}

    def _slot(self, key: LineKey) -> int:
        # mix the object id in so two objects sharing a section do not
        # collide on low indices systematically
        return (key[1] + key[0] * 0x9E3779B1) % self._num_lines

    def _admit(self, line: Line, settled: bool = False) -> Line | None:
        slot = self._slot(line.key)
        victim = self._slots.get(slot)
        if victim is not None:
            if settled and victim.ready_at:
                return line
            del self._resident[victim.key]
        self._slots[slot] = self._resident[line.key] = line
        return victim

    def _unplace(self, line: Line) -> None:
        del self._slots[self._slot(line.key)]

    def resident_lines(self) -> list[Line]:
        return list(self._slots.values())
