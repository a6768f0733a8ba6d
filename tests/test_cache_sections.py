"""Cache-section unit tests: the three structures, prefetch, hints."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import SectionConfig, Structure
from repro.cache.section import make_section
from repro.errors import ConfigError
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.network import Network


def _section(structure, size=8 * 64, line=64, ways=2, **kw):
    cost = CostModel()
    clock = VirtualClock()
    net = Network(cost, clock)
    cfg = SectionConfig("t", size, line, structure, ways=ways, **kw)
    return make_section(cfg, cost, clock, net), clock, net


# -- config validation --------------------------------------------------------


def test_config_rejects_bad_line():
    with pytest.raises(ConfigError):
        SectionConfig("x", 1024, 0)


def test_config_rejects_size_below_line():
    with pytest.raises(ConfigError):
        SectionConfig("x", 32, 64)


def test_config_rejects_bad_fetch_bytes():
    with pytest.raises(ConfigError):
        SectionConfig("x", 1024, 64, fetch_bytes=128)


def test_config_metadata_bytes():
    cfg = SectionConfig("x", 1024, 64, metadata_per_line=16)
    assert cfg.metadata_bytes() == 16 * 16
    assert SectionConfig("x", 1024, 64, metadata_free=True).metadata_bytes() == 0


# -- generic behaviour (parametrized over structures) ---------------------------

STRUCTURES = [Structure.DIRECT, Structure.SET_ASSOCIATIVE, Structure.FULLY_ASSOCIATIVE]


@pytest.mark.parametrize("structure", STRUCTURES)
def test_miss_then_hit(structure):
    sec, clock, _ = _section(structure)
    assert sec.access(1, 0, 8, False) is False  # cold miss
    assert sec.access(1, 0, 8, False) is True  # now resident
    assert sec.stats.misses == 1
    assert sec.stats.hits == 1


@pytest.mark.parametrize("structure", STRUCTURES)
def test_miss_charges_network_time(structure):
    sec, clock, _ = _section(structure)
    sec.access(1, 0, 8, False)
    assert clock.now >= CostModel().net_rtt_ns


@pytest.mark.parametrize("structure", STRUCTURES)
def test_access_spanning_lines_touches_both(structure):
    sec, _, _ = _section(structure)
    sec.access(1, 60, 8, False)  # spans lines 0 and 1
    assert sec.stats.accesses == 2


@pytest.mark.parametrize("structure", STRUCTURES)
def test_write_marks_dirty_and_eviction_writes_back(structure):
    sec, _, net = _section(structure, size=2 * 64)
    sec.access(1, 0, 8, True)
    written_before = net.stats.bytes_written
    # force eviction of line 0 by filling the section and colliding
    for i in range(1, 40):
        sec.access(1, i * 64, 8, False)
    assert net.stats.bytes_written > written_before


@pytest.mark.parametrize("structure", STRUCTURES)
def test_prefetch_hides_latency(structure):
    sec, clock, _ = _section(structure)
    sec.prefetch_range(1, 0, 0)
    # wait out the fetch
    clock.advance(1e7, "compute")
    t0 = clock.now
    hit = sec.access(1, 0, 8, False)
    assert hit is True
    # only the hit overhead was charged, no network wait
    assert clock.now - t0 < 1000


@pytest.mark.parametrize("structure", STRUCTURES)
def test_early_access_waits_remainder(structure):
    sec, clock, _ = _section(structure)
    sec.prefetch_range(1, 0, 0)
    t0 = clock.now
    sec.access(1, 0, 8, False)  # arrives before the line is ready
    assert sec.stats.prefetch_hits == 1
    assert clock.now > t0  # waited the remainder


@pytest.mark.parametrize("structure", STRUCTURES)
def test_native_access_charges_no_lookup(structure):
    sec, clock, _ = _section(structure)
    sec.access(1, 0, 8, False)
    t0 = clock.now
    sec.access(1, 0, 8, False, native=True)
    assert clock.now == t0  # dereference elided entirely
    assert sec.stats.native_accesses == 1


@pytest.mark.parametrize("structure", STRUCTURES)
def test_evict_hint_prioritizes_victim(structure):
    # section with 4 lines; hint line 0, then overflow: the hinted line
    # must be chosen over LRU for structures with victim choice
    sec, _, _ = _section(structure, size=4 * 64, ways=4)
    for i in range(4):
        sec.access(1, i * 64, 8, False)
    sec.evict_hint_line((1, 0))
    before = sec.stats.hinted_evictions
    for i in range(4, 12):
        sec.access(1, i * 64, 8, False)
    if structure is not Structure.DIRECT:
        assert sec.stats.hinted_evictions > before


@pytest.mark.parametrize("structure", STRUCTURES)
def test_touch_clears_evictable_mark(structure):
    sec, _, _ = _section(structure, size=4 * 64, ways=4)
    sec.access(1, 0, 8, False)
    sec.evict_hint_line((1, 0))
    sec.access(1, 0, 8, False)  # touching cancels the hint
    line = sec.peek((1, 0))
    assert line is not None and not line.evictable


@pytest.mark.parametrize("structure", STRUCTURES)
def test_flush_line_clears_dirty(structure):
    sec, _, net = _section(structure)
    sec.access(1, 0, 8, True)
    sec.flush_line((1, 0))
    assert sec.peek((1, 0)).dirty is False
    assert sec.stats.writebacks == 1


@pytest.mark.parametrize("structure", STRUCTURES)
def test_close_flushes_dirty_lines(structure):
    sec, _, net = _section(structure)
    sec.access(1, 0, 8, True)
    sec.close()
    assert not sec.resident_lines()
    assert net.stats.bytes_written > 0


@pytest.mark.parametrize("structure", STRUCTURES)
def test_shared_section_ignores_hints(structure):
    sec, _, _ = _section(structure, shared=True)
    sec.access(1, 0, 8, False)
    sec.evict_hint_line((1, 0))
    assert not sec.peek((1, 0)).evictable


def test_write_no_fetch_skips_network():
    sec, clock, net = _section(Structure.DIRECT, write_no_fetch=True)
    reads_before = net.stats.bytes_read
    sec.access(1, 0, 8, True)
    assert net.stats.bytes_read == reads_before  # no fetch on write miss
    # reads still fetch
    sec.access(1, 64, 8, False)
    assert net.stats.bytes_read > reads_before


# -- structure-specific placement ------------------------------------------------


def test_direct_mapped_conflict():
    sec, _, _ = _section(Structure.DIRECT, size=4 * 64)
    sec.access(1, 0, 8, False)
    # line index 4 maps to the same slot as line 0 in a 4-line section
    sec.access(1, 4 * 64, 8, False)
    assert sec.peek((1, 0)) is None
    assert sec.stats.evictions == 1


def test_fully_associative_no_conflict_within_capacity():
    sec, _, _ = _section(Structure.FULLY_ASSOCIATIVE, size=8 * 64)
    for i in range(8):
        sec.access(1, i * 64, 8, False)
    assert sec.stats.evictions == 0
    for i in range(8):
        assert sec.access(1, i * 64, 8, False) is True


def test_set_associative_set_overflow():
    sec, _, _ = _section(Structure.SET_ASSOCIATIVE, size=8 * 64, ways=2)
    # 4 sets x 2 ways; lines 0, 4, 8 hit the same set
    sec.access(1, 0, 8, False)
    sec.access(1, 4 * 64, 8, False)
    sec.access(1, 8 * 64, 8, False)
    assert sec.stats.evictions == 1


def test_set_associative_with_fewer_lines_than_ways_stays_in_budget():
    """Associativity is capped by the section's line count: a 4-line
    section configured 8-way used to be one set that admitted 8 lines
    (512 B resident in a 256 B section)."""
    sec, _, _ = _section(Structure.SET_ASSOCIATIVE, size=4 * 64, ways=8)
    for i in range(8):
        sec.access(1, i * 64, 8, False)
    assert sec.resident_count() == sec.config.num_lines == 4
    assert sec.occupancy() == sec.config.size_bytes == 256
    assert sec.stats.evictions == 4
    # one set of four, LRU: the last four lines are the ones that stayed
    assert [ln.key[1] for ln in sec.resident_lines()] == [4, 5, 6, 7]


def test_lru_order_in_fully_associative():
    sec, _, _ = _section(Structure.FULLY_ASSOCIATIVE, size=2 * 64)
    sec.access(1, 0, 8, False)
    sec.access(1, 64, 8, False)
    sec.access(1, 0, 8, False)  # refresh line 0
    sec.access(1, 128, 8, False)  # evicts line 1, not line 0
    assert sec.peek((1, 0)) is not None
    assert sec.peek((1, 1)) is None


def test_probing_absent_keys_leaves_set_associative_state_alone():
    """Read-only probes used to insert an empty bucket for every set they
    looked into; buckets now appear only when a line is installed."""
    sec, _, _ = _section(Structure.SET_ASSOCIATIVE, size=1024 * 64, ways=4)
    for i in range(8):
        sec.access(1, i * 64, 8, False)
    sets, metadata = len(sec._sets), sec.metadata_bytes()
    absent = [(2, i) for i in range(10_000)]
    for key in absent:
        assert sec.peek(key) is None
    # a range shorter than the tag store probes each of its keys
    assert sec._lines_in(2, 0, 7 * 64) == []
    for key in absent[:100]:
        sec.flush_line(key)
        sec.evict_hint_line(key)
    assert len(sec._sets) == sets
    assert sec.metadata_bytes() == metadata
    assert sec.resident_count() == 8


@settings(max_examples=30, deadline=None)
@given(
    structure=st.sampled_from(STRUCTURES),
    offsets=st.lists(st.integers(0, 255), min_size=1, max_size=200),
)
def test_property_occupancy_never_exceeds_capacity(structure, offsets):
    sec, _, _ = _section(structure, size=4 * 64)
    for off in offsets:
        sec.access(1, off * 8, 8, bool(off % 3 == 0))
    assert len(sec.resident_lines()) <= sec.config.num_lines
    assert sec.stats.hits + sec.stats.misses == sec.stats.accesses


@settings(max_examples=20, deadline=None)
@given(offsets=st.lists(st.integers(0, 63), min_size=1, max_size=100))
def test_property_fully_assoc_repeat_is_hit(offsets):
    """Accessing the same small working set twice: second pass all hits
    when the set fits."""
    sec, _, _ = _section(Structure.FULLY_ASSOCIATIVE, size=64 * 64)
    for off in offsets:
        sec.access(1, off * 64, 8, False)
    for off in offsets:
        assert sec.access(1, off * 64, 8, False) is True
