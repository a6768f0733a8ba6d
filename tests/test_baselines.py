"""Baseline-system tests: native, FastSwap, Leap (majority prefetcher),
AIFM (metadata + dereference overheads)."""

import pytest

from repro.baselines import AIFM, FastSwap, Leap, NativeMemory
from repro.bench.harness import ModuleMemo
from repro.cache.manager import CacheManager
from repro.core import run_on_baseline
from repro.errors import AllocationError, MemoryError_
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.obs.trace import MEM_OP_KINDS
from repro.prefetch.majority import MajorityTrendPrefetcher, _boyer_moore
from repro.workloads import WORKLOAD_FACTORIES, make_workload


def test_native_access_is_free(cost):
    sys_ = NativeMemory(cost, 1 << 20)
    obj = sys_.allocate(4096, name="a")
    sys_.access(obj.obj_id, 0, 8, False)
    assert sys_.clock.now == 0.0


def test_fastswap_page_amplification(cost):
    """A 1-byte access costs a full page fetch."""
    sys_ = FastSwap(cost, 1 << 20)
    obj = sys_.allocate(4096, name="a")
    sys_.access(obj.obj_id, 0, 1, False)
    assert sys_.network.stats.bytes_read == PAGE_SIZE


def test_fastswap_sequential_amortizes(cost):
    sys_ = FastSwap(cost, 1 << 20)
    obj = sys_.allocate(64 * 1024, name="a")
    for i in range(0, 8192, 8):
        sys_.access(obj.obj_id, i, 8, False)
    # 1024 accesses but only 2 page faults
    assert sys_.swap.stats.misses == 2


def test_leap_slower_fault_path_than_fastswap(cost):
    fs = FastSwap(cost, 1 << 20)
    lp = Leap(cost, 1 << 20)
    o1 = fs.allocate(4096, name="a")
    o2 = lp.allocate(4096, name="a")
    fs.access(o1.obj_id, 0, 8, False)
    lp.access(o2.obj_id, 0, 8, False)
    assert lp.clock.now > fs.clock.now


@pytest.mark.parametrize("system_cls", [FastSwap, Leap, CacheManager])
@pytest.mark.parametrize("offset, size", [(4092, 8), (4096, 8), (-8, 8), (4095, 2)])
def test_access_past_the_objects_end_is_a_typed_error(cost, system_cls, offset, size):
    """An access that starts inside a 4096-byte object and runs past its
    end used to succeed on the swap baselines (2 swap accesses, a resident
    page belonging to no object); every system raises the manager's error
    and touches nothing."""
    sys_ = system_cls(cost, 1 << 20)
    obj = sys_.allocate(4096, name="a")
    with pytest.raises(MemoryError_) as err:
        sys_.access(obj.obj_id, offset, size, False)
    assert f"access [{offset}, {offset + size}) out of bounds" in str(err.value)
    assert sys_.swap.stats.accesses == 0
    assert sys_.swap.resident_pages() == 0
    assert sys_.stats.object(obj.obj_id).accesses == 0
    assert sys_.clock.now == 0.0
    sys_.access(obj.obj_id, 4088, 8, False)  # the last slot is fine
    assert sys_.swap.resident_pages() == 1


def test_boyer_moore_majority():
    assert _boyer_moore([1, 1, 2, 1, 3, 1, 1]) == 1
    assert _boyer_moore([1]) == 1
    assert _boyer_moore([]) is None


def test_majority_prefetcher_detects_stride():
    pf = MajorityTrendPrefetcher()
    for p in range(100, 120):
        pf.record(p)
    assert pf.majority_stride() == 1
    plan = pf.plan(120)
    assert plan and plan[0] == 121


def test_majority_prefetcher_detects_negative_stride():
    pf = MajorityTrendPrefetcher()
    for p in range(200, 180, -1):
        pf.record(p)
    assert pf.majority_stride() == -1


def test_majority_prefetcher_random_gives_nothing():
    pf = MajorityTrendPrefetcher()
    for p in [5, 100, 7, 93, 12, 77, 3, 55, 21, 88, 9, 64]:
        pf.record(p)
    assert pf.majority_stride() is None
    assert pf.plan(64) == []


def test_majority_prefetcher_interleaved_pattern_defeated():
    """The paper's key Leap observation (Fig. 15): an interleaved
    sequential+random pattern has no page-stride majority."""
    import random

    rng = random.Random(1)
    pf = MajorityTrendPrefetcher()
    seq = 1000
    for _ in range(16):
        pf.record(seq)  # sequential component
        seq += 1
        pf.record(rng.randrange(0, 500))  # random component
    stride = pf.majority_stride()
    assert stride is None


def test_leap_prefetches_sequential_scan(cost):
    lp = Leap(cost, 1 << 20)
    obj = lp.allocate(256 * 1024, name="a")
    for i in range(0, 256 * 1024, 64):
        lp.access(obj.obj_id, i, 8, False)
    # most pages arrived via prefetch: far fewer demand faults than pages
    total_pages = 64
    demand = lp.swap.stats.misses - lp.swap.stats.prefetch_hits
    assert lp.swap.stats.prefetches_issued > 0
    assert demand < total_pages


def test_aifm_deref_overhead_on_every_access(cost):
    sys_ = AIFM(cost, 1 << 20)
    obj = sys_.allocate(4096, elem_size=8, name="a")
    sys_.access(obj.obj_id, 0, 8, False)
    t1 = sys_.clock.now
    sys_.access(obj.obj_id, 0, 8, False)  # hit still pays the deref
    assert sys_.clock.now - t1 == pytest.approx(cost.aifm_deref_ns)


def test_aifm_metadata_reduces_usable_memory(cost):
    sys_ = AIFM(cost, 1 << 20)
    sys_.allocate(64 * 1024, elem_size=8, name="a", attrs={"aifm_obj_bytes": 8})
    assert sys_.metadata_bytes() == (64 * 1024 // 8) * cost.aifm_object_metadata_bytes
    assert sys_.local_bytes_available() < sys_.local_mem_bytes


def test_aifm_fails_when_metadata_exceeds_memory(cost):
    sys_ = AIFM(cost, 128 * 1024)
    with pytest.raises(AllocationError):
        # 64K objects x 16 B metadata = 1 MB > 128 KB local
        sys_.allocate(512 * 1024, elem_size=8, name="a", attrs={"aifm_obj_bytes": 8})
    assert sys_.failed


def test_aifm_fetches_whole_object(cost):
    """Dereferencing one byte moves the entire remotable object."""
    sys_ = AIFM(cost, 1 << 20)
    obj = sys_.allocate(8192, elem_size=8, name="a", attrs={"aifm_obj_bytes": 2048})
    sys_.access(obj.obj_id, 0, 1, False)
    assert sys_.network.stats.bytes_read == 2048


def test_aifm_eviction_lru(cost):
    sys_ = AIFM(cost, 64 * 1024)
    obj = sys_.allocate(
        256 * 1024, elem_size=8, name="a", attrs={"aifm_obj_bytes": 4096}
    )
    for chunk in range(32):
        sys_.access(obj.obj_id, chunk * 4096, 8, True)
    assert sys_.swap_stats.evictions > 0
    assert sys_.swap_stats.writebacks > 0


def test_free_releases_aifm_residency(cost):
    sys_ = AIFM(cost, 1 << 20)
    obj = sys_.allocate(4096, elem_size=8, name="a")
    sys_.access(obj.obj_id, 0, 8, False)
    sys_.free(obj.obj_id)
    assert sys_._resident_bytes == 0


@pytest.mark.parametrize("system_cls", [FastSwap, Leap])
def test_swap_baselines_have_no_assign(system_cls, cost):
    """A cache manager with no sections has nowhere to move an object;
    a caller that probes ``hasattr(system, "assign")`` is told so."""
    system = system_cls(cost, 1 << 20)
    assert isinstance(system, CacheManager)
    assert not hasattr(system, "assign")
    assert not system.sections()


#: every registered workload, small enough for tier-1
_SMALL_WORKLOADS = {
    "array_sum": {"num_elems": 2048},
    "dataframe": {"num_rows": 512, "num_locations": 64},
    "dataframe_amm": {"num_rows": 512},
    "dataframe_filter": {"num_rows": 512, "repeats": 1},
    "gpt2": {"layers": 2, "d_model": 32, "seq_len": 16, "batch": 1,
             "passes": 1, "warmup_passes": 1},
    "graph_traversal": {"num_nodes": 200, "num_edges": 600},
    "mcf": {"num_nodes": 128, "num_arcs": 512},
}


@pytest.mark.parametrize("system_cls", [FastSwap, Leap])
@pytest.mark.parametrize("workload", sorted(_SMALL_WORKLOADS))
def test_baseline_programs_send_no_hint_and_open_no_section(workload, system_cls):
    """FastSwap and Leap are cache managers with no sections, so a hint,
    a ``set_native`` or a section verb would act on their swap section.
    They have no no-op overrides of those verbs because none is sent:
    baselines run the unconverted program, whose op log holds only
    allocations, frees and accesses."""
    assert set(_SMALL_WORKLOADS) == set(WORKLOAD_FACTORIES)
    wl = make_workload(workload, **_SMALL_WORKLOADS[workload])
    memo = ModuleMemo(wl)
    system = system_cls(CostModel(), max(4 * PAGE_SIZE, memo.footprint_bytes // 4))
    tracer = Tracer(access_log=True)
    result = run_on_baseline(
        memo.module, system, wl.data_init, entry=wl.entry, tracer=tracer
    )
    wl.verify_results(result.results)
    logged = {kind for kind, _, _ in tracer.events if kind in MEM_OP_KINDS}
    assert "mem.access" in logged
    assert logged <= {"mem.alloc", "mem.free", "mem.access"}
    assert not system.sections()
