"""Property-style oracle tests for the three cache geometries.

Each placement policy (direct-mapped / set-associative / fully-associative)
is replayed against a naive dict reference model under random access
streams of accesses and eviction hints.  The oracle re-implements only the
*placement semantics* -- slot hashing, LRU order, evictable-first victim
choice -- with none of the timed data path, and the hit/miss/eviction/
writeback counters must match exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.config import SectionConfig, Structure
from repro.cache.section import make_section
from repro.memsim.address import ObjectInfo
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.network import Network

#: the hash-mixing constant the sections use to spread objects across slots
MIX = 0x9E3779B1

NUM_LINES = 16
LINE = 64
WAYS = 4


class _OracleBase:
    """Shared counter bookkeeping; subclasses provide placement."""

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.hinted_evictions = 0
        self.writebacks = 0

    def counters(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hinted_evictions": self.hinted_evictions,
            "writebacks": self.writebacks,
        }

    def _evict(self, entry: dict) -> None:
        self.evictions += 1
        if entry["evictable"]:
            self.hinted_evictions += 1
        if entry["dirty"]:
            self.writebacks += 1


class DirectOracle(_OracleBase):
    """One slot per key: ``(line + obj * MIX) % num_lines``."""

    def __init__(self, num_lines: int) -> None:
        super().__init__()
        self.num_lines = num_lines
        self.slots: dict[int, dict] = {}

    def _slot(self, key) -> int:
        return (key[1] + key[0] * MIX) % self.num_lines

    def access(self, key, is_write: bool) -> None:
        self.accesses += 1
        slot = self._slot(key)
        entry = self.slots.get(slot)
        if entry is not None and entry["key"] == key:
            entry["evictable"] = False
            if is_write:
                entry["dirty"] = True
            self.hits += 1
            return
        self.misses += 1
        if entry is not None:
            self._evict(entry)
        self.slots[slot] = {"key": key, "dirty": is_write, "evictable": False}

    def hint(self, key) -> None:
        entry = self.slots.get(self._slot(key))
        if entry is not None and entry["key"] == key:
            entry["evictable"] = True


class SetAssocOracle(_OracleBase):
    """K-way sets in LRU order; victims are evictable-first, then LRU."""

    def __init__(self, num_lines: int, ways: int) -> None:
        super().__init__()
        self.num_sets = max(1, num_lines // ways)
        self.ways = ways
        # dict preserves insertion order == LRU order (oldest first)
        self.sets: dict[int, dict[tuple, dict]] = {}

    def _set(self, key) -> dict:
        idx = (key[1] + key[0] * MIX) % self.num_sets
        return self.sets.setdefault(idx, {})

    def access(self, key, is_write: bool) -> None:
        self.accesses += 1
        bucket = self._set(key)
        entry = bucket.get(key)
        if entry is not None:
            # move to MRU position
            del bucket[key]
            bucket[key] = entry
            entry["evictable"] = False
            if is_write:
                entry["dirty"] = True
            self.hits += 1
            return
        self.misses += 1
        if len(bucket) >= self.ways:
            victim_key = next(
                (k for k, e in bucket.items() if e["evictable"]),
                next(iter(bucket)),
            )
            self._evict(bucket.pop(victim_key))
        bucket[key] = {"dirty": is_write, "evictable": False}

    def hint(self, key) -> None:
        entry = self._set(key).get(key)
        if entry is not None:
            entry["evictable"] = True


class FullyAssocOracle(_OracleBase):
    """Global LRU dict plus an insertion-ordered evictable dict."""

    def __init__(self, num_lines: int) -> None:
        super().__init__()
        self.num_lines = num_lines
        self.lines: dict[tuple, dict] = {}
        self.evictable: dict[tuple, None] = {}

    def access(self, key, is_write: bool) -> None:
        self.accesses += 1
        entry = self.lines.get(key)
        if entry is not None:
            del self.lines[key]
            self.lines[key] = entry
            self.evictable.pop(key, None)
            entry["evictable"] = False
            if is_write:
                entry["dirty"] = True
            self.hits += 1
            return
        self.misses += 1
        if len(self.lines) >= self.num_lines:
            if self.evictable:
                victim_key = next(iter(self.evictable))
                del self.evictable[victim_key]
            else:
                victim_key = next(iter(self.lines))
                self.evictable.pop(victim_key, None)
            self._evict(self.lines.pop(victim_key))
        self.lines[key] = {"dirty": is_write, "evictable": False}

    def hint(self, key) -> None:
        entry = self.lines.get(key)
        if entry is not None:
            entry["evictable"] = True
            # assigning an existing dict key keeps its position, matching
            # the section's OrderedDict semantics
            self.evictable[key] = None


def _make_real(structure: Structure):
    cost = CostModel()
    clock = VirtualClock()
    config = SectionConfig(
        name="oracle",
        size_bytes=NUM_LINES * LINE,
        line_size=LINE,
        structure=structure,
        ways=WAYS,
    )
    return make_section(config, cost, clock, Network(cost, clock))


def _make_oracle(structure: Structure) -> _OracleBase:
    if structure is Structure.DIRECT:
        return DirectOracle(NUM_LINES)
    if structure is Structure.SET_ASSOCIATIVE:
        return SetAssocOracle(NUM_LINES, WAYS)
    return FullyAssocOracle(NUM_LINES)


def _random_stream(seed: int, length: int = 3000):
    """(op, key, is_write) tuples over a key space ~4x the capacity."""
    rng = random.Random(seed)
    objs = (1, 2, 3)
    for _ in range(length):
        key = (rng.choice(objs), rng.randrange(NUM_LINES * 4))
        r = rng.random()
        if r < 0.70:
            yield "access", key, False
        elif r < 0.85:
            yield "access", key, True
        else:
            yield "hint", key, False


def _placed_keys(real) -> list:
    """Keys in the geometry's own placement structure, read directly."""
    if hasattr(real, "_slots"):
        return [ln.key for ln in real._slots.values()]
    if hasattr(real, "_sets"):
        return [key for bucket in real._sets.values() for key in bucket]
    return list(real._lru)


def _check_tag_store(real) -> None:
    """The flat tag store and the geometry hold exactly the same lines,
    and every line's ``order`` is the ordered dict that holds its key."""
    placed = _placed_keys(real)
    assert len(placed) == len(set(placed))
    assert set(placed) == set(real._resident)
    assert real.resident_count() == len(real._resident)
    for key, line in real._resident.items():
        assert line.key == key
        assert line.order is None or key in line.order
    hinted = {k for k, ln in real._resident.items() if ln.evictable}
    assert real._hinted == len(hinted)
    if hasattr(real, "_evictable"):
        assert set(real._evictable) == hinted


@pytest.mark.parametrize("structure", list(Structure))
@pytest.mark.parametrize("seed", range(5))
def test_section_matches_oracle(structure, seed):
    real = _make_real(structure)
    oracle = _make_oracle(structure)
    for op, key, is_write in _random_stream(seed):
        if op == "access":
            real._access_line(key, is_write, native=False)
            oracle.access(key, is_write)
        else:
            real.evict_hint_line(key)
            oracle.hint(key)
        _check_tag_store(real)
    got = {k: getattr(real.stats, k) for k in oracle.counters()}
    assert got == oracle.counters(), f"{structure.value} diverges from oracle"


@pytest.mark.parametrize("structure", list(Structure))
def test_oracle_stream_exercises_evictions(structure):
    """Meta-check: the random streams actually produce hits, misses, and
    evictions for every geometry (a vacuous oracle test would be silent)."""
    real = _make_real(structure)
    for op, key, is_write in _random_stream(0):
        if op == "access":
            real._access_line(key, is_write, native=False)
        else:
            real.evict_hint_line(key)
    assert real.stats.hits > 0
    assert real.stats.misses > 0
    assert real.stats.evictions > 0
    assert real.stats.hinted_evictions > 0


@pytest.mark.parametrize("structure", list(Structure))
def test_hinted_count_follows_every_way_a_hint_ends(structure):
    """``_hinted`` counts the resident hinted lines after every op: a hint
    (once per line, repeats do not count twice), a touch that cancels it,
    an eviction of a hinted or an un-hinted line, a one-line ``drop``, and
    ``close`` takes it back to 0."""
    real = _make_real(structure)
    rng = random.Random(7)
    obj = ObjectInfo(obj_id=1, size=NUM_LINES * 2 * LINE, elem_size=8, base_va=0)
    seen = dict.fromkeys(("rehint", "cancel", "drop_hinted", "drop_plain"), 0)
    # twice the capacity in keys, so hinted lines live to be touched again
    for _ in range(3000):
        key = (1, rng.randrange(NUM_LINES * 2))
        line = real.peek(key)
        was_hinted = line is not None and line.evictable
        r = rng.random()
        if r < 0.25:
            real.evict_hint_line(key)
            seen["rehint"] += was_hinted
        elif r < 0.35:
            real.drop(obj, key[1] * LINE, 1)
            if line is not None:
                seen["drop_hinted" if was_hinted else "drop_plain"] += 1
        else:
            real._access_line(key, r < 0.5, native=False)
            seen["cancel"] += was_hinted
        _check_tag_store(real)
    assert all(seen.values()), seen
    assert 0 < real.stats.hinted_evictions < real.stats.evictions
    assert real._hinted > 0  # close has something to take back
    real.close()
    _check_tag_store(real)
    assert real._hinted == 0 and real.resident_count() == 0


def test_set_associative_hint_only_counts_in_the_victims_set():
    """Evictable-first, then LRU, per set: a hinted line in the full set
    goes before that set's LRU head; a hint in another set (which still
    makes the section scan) leaves the LRU head as the victim."""
    # object 0 hashes to set ``line % 4``: 4 sets of 4 ways
    for hinted, victim in (((0, 8), (0, 8)), ((0, 5), (0, 0))):
        real = _make_real(Structure.SET_ASSOCIATIVE)
        for line in (0, 4, 8, 12, 1, 5, 9, 13):
            real._access_line((0, line), False, native=False)
        real.evict_hint_line(hinted)
        real._access_line((0, 16), False, native=False)  # set 0 is full
        _check_tag_store(real)
        gone = {(0, line) for line in (0, 4, 8, 12)} - set(real._resident)
        assert gone == {victim}
        assert real.stats.evictions == 1
        assert real.stats.hinted_evictions == (hinted == victim)
        assert real._hinted == (hinted != victim)
