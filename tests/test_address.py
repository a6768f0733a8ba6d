"""Address space / object info tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryError_
from repro.memsim.address import PAGE_SIZE, AddressSpace


def test_allocate_assigns_unique_ids():
    aspace = AddressSpace()
    a = aspace.allocate(100)
    b = aspace.allocate(200)
    assert a.obj_id != b.obj_id


def test_objects_page_aligned_and_disjoint():
    aspace = AddressSpace()
    a = aspace.allocate(5000)
    b = aspace.allocate(100)
    assert a.base_va % PAGE_SIZE == 0
    assert b.base_va % PAGE_SIZE == 0
    # guard page: no page contains bytes of two objects
    assert b.base_va // PAGE_SIZE > (a.end_va - 1) // PAGE_SIZE


def test_va_of_bounds():
    aspace = AddressSpace()
    obj = aspace.allocate(64)
    assert obj.va_of(0) == obj.base_va
    assert obj.va_of(63) == obj.base_va + 63
    with pytest.raises(MemoryError_):
        obj.va_of(64)
    with pytest.raises(MemoryError_):
        obj.va_of(-1)


def test_invalid_sizes_rejected():
    aspace = AddressSpace()
    with pytest.raises(MemoryError_):
        aspace.allocate(0)
    with pytest.raises(MemoryError_):
        aspace.allocate(10, elem_size=0)


def test_free_and_double_free():
    aspace = AddressSpace()
    obj = aspace.allocate(100)
    aspace.free(obj.obj_id)
    assert obj.freed
    with pytest.raises(MemoryError_):
        aspace.free(obj.obj_id)


def test_unknown_object():
    with pytest.raises(MemoryError_):
        AddressSpace().get(42)


def test_live_bytes_tracking():
    aspace = AddressSpace()
    a = aspace.allocate(100)
    aspace.allocate(200)
    assert aspace.total_live_bytes() == 300
    aspace.free(a.obj_id)
    assert aspace.total_live_bytes() == 200


def test_find_by_name():
    aspace = AddressSpace()
    aspace.allocate(100, name="edges")
    assert aspace.find_by_name("edges").size == 100
    with pytest.raises(MemoryError_):
        aspace.find_by_name("nope")


def test_num_elems():
    aspace = AddressSpace()
    obj = aspace.allocate(96, elem_size=24)
    assert obj.num_elems == 4


@given(st.lists(st.integers(min_value=1, max_value=1 << 20), max_size=30))
def test_allocations_never_overlap(sizes):
    aspace = AddressSpace()
    objs = [aspace.allocate(s) for s in sizes]
    spans = sorted((o.base_va, o.end_va) for o in objs)
    for (_, end1), (start2, _) in zip(spans, spans[1:]):
        assert end1 <= start2


@given(
    st.lists(st.integers(min_value=1, max_value=3 * PAGE_SIZE), min_size=0, max_size=6),
    st.sets(st.integers(min_value=0, max_value=5)),
    st.lists(st.integers(min_value=-2, max_value=30), max_size=40),
)
def test_live_run_answers_for_every_address_in_its_run(sizes, freed, pages):
    """``live_run`` names the live owner of an address (or None) and a
    range around it; every address of that range has the same owner."""
    aspace = AddressSpace(base=PAGE_SIZE)
    objs = [aspace.allocate(s) for s in sizes]
    for i in freed:
        if i < len(objs):
            aspace.free(objs[i].obj_id)

    def owner(va):
        try:
            return aspace.object_at(va)
        except MemoryError_:
            return None

    for page in pages:
        va = page * PAGE_SIZE
        obj, start, end = aspace.live_run(va)
        assert obj is owner(va) and start <= va < end
        for probe in (start, end - 1, va - 1, va + 1):
            if start <= probe < end and abs(probe) < 1 << 40:
                assert owner(probe) is obj


# -- VA -> object resolution edge cases (the raw-trace frontend's path) ------


def test_object_at_finds_interior_and_boundary_bytes():
    aspace = AddressSpace()
    a = aspace.allocate(100)
    b = aspace.allocate(PAGE_SIZE + 1)
    assert aspace.object_at(a.base_va) is a
    assert aspace.object_at(a.base_va + 99) is a
    assert aspace.object_at(b.end_va - 1) is b


def test_object_at_unmapped_is_typed_error():
    aspace = AddressSpace()
    obj = aspace.allocate(100)
    for va in (0, obj.base_va - 1, obj.end_va, obj.end_va + PAGE_SIZE * 99):
        with pytest.raises(MemoryError_):
            aspace.object_at(va)


def test_object_at_guard_page_between_objects():
    aspace = AddressSpace()
    a = aspace.allocate(PAGE_SIZE)
    b = aspace.allocate(PAGE_SIZE)
    # every byte strictly between the two allocations is unmapped
    with pytest.raises(MemoryError_):
        aspace.object_at(a.end_va)
    with pytest.raises(MemoryError_):
        aspace.object_at(b.base_va - 1)


def test_object_at_freed_object_is_typed_error():
    aspace = AddressSpace()
    obj = aspace.allocate(100)
    aspace.free(obj.obj_id)
    with pytest.raises(MemoryError_, match="freed"):
        aspace.object_at(obj.base_va)


def test_object_at_empty_space_never_raises_keyerror():
    try:
        AddressSpace().object_at(0x1234)
    except MemoryError_:
        pass  # the contract: typed error, not KeyError/IndexError


def test_resolve_in_bounds():
    aspace = AddressSpace()
    obj = aspace.allocate(64)
    assert aspace.resolve(obj.base_va, 8) == (obj, 0)
    assert aspace.resolve(obj.base_va + 56, 8) == (obj, 56)


def test_resolve_straddling_end_of_object():
    aspace = AddressSpace()
    obj = aspace.allocate(64)
    with pytest.raises(MemoryError_, match="straddles"):
        aspace.resolve(obj.base_va + 60, 8)
    with pytest.raises(MemoryError_, match="straddles"):
        aspace.resolve(obj.base_va, 65)


def test_resolve_page_boundary_straddle():
    aspace = AddressSpace()
    obj = aspace.allocate(2 * PAGE_SIZE)
    # crossing an interior page boundary inside one object is fine...
    _, off = aspace.resolve(obj.base_va + PAGE_SIZE - 4, 8)
    assert off == PAGE_SIZE - 4
    # ...but running past the final page of the object is not, even
    # though the guard page's addresses "exist"
    with pytest.raises(MemoryError_, match="straddles"):
        aspace.resolve(obj.end_va - 4, 8)


def test_resolve_zero_and_negative_length():
    aspace = AddressSpace()
    obj = aspace.allocate(64)
    with pytest.raises(MemoryError_, match="positive"):
        aspace.resolve(obj.base_va, 0)
    with pytest.raises(MemoryError_, match="positive"):
        aspace.resolve(obj.base_va, -8)


@given(st.integers(min_value=0, max_value=1 << 40))
def test_resolve_never_raises_untyped(va):
    aspace = AddressSpace()
    aspace.allocate(100)
    aspace.allocate(PAGE_SIZE * 3)
    try:
        obj, off = aspace.resolve(va, 8)
    except MemoryError_:
        return  # typed rejection is the only acceptable failure mode
    assert 0 <= off and off + 8 <= obj.size
