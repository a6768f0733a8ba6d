"""Virtual-time cost model.

All latencies are virtual nanoseconds.  Defaults approximate the paper's
testbed: CloudLab c6220 nodes (2.6 GHz Xeons, 64 GB RAM) connected by
50 Gbps Mellanox FDR InfiniBand.  Absolute values need not match the
hardware exactly -- every experiment reports performance normalized to a
native all-local run on the *same* cost model -- but the ratios between
them (DRAM vs RTT, bandwidth vs page size, lookup vs load) determine where
the paper's crossovers fall, so they are chosen to be realistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.errors import ConfigError


def grid(ns: float) -> float:
    """Snap a duration to the 2**-10 ns time grid (DESIGN.md section 4,
    "Time is exact").  Called once wherever a rate, a scale or a
    user-supplied constant becomes a duration -- never on a sum: doubles
    add grid values exactly, in any grouping."""
    return round(ns * 1024) / 1024


@dataclass(frozen=True)
class CostModel:
    """Latency/throughput constants shared by every simulated system."""

    # --- compute node ---------------------------------------------------
    #: one local DRAM access (a cache-line-granularity load/store)
    dram_access_ns: float = 100.0
    #: one simple ALU/branch operation
    cpu_op_ns: float = 1.0
    #: local DRAM streaming bandwidth in bytes/ns (bulk range accesses)
    dram_stream_bpns: float = 25.0
    #: function call / return bookkeeping
    call_ns: float = 5.0

    # --- cache-section lookup overheads (Mira runtime, section 4.2) ------
    #: directly-mapped lookup: mask + compare
    hit_overhead_direct_ns: float = 15.0
    #: set-associative lookup: index + K tag compares
    hit_overhead_set_assoc_ns: float = 35.0
    #: fully-associative lookup: hash-map probe
    hit_overhead_full_assoc_ns: float = 70.0
    #: inserting a fetched line into a section (metadata update)
    insert_overhead_ns: float = 40.0
    #: evicting one line (unlink + free-list push; write-back priced via net)
    evict_overhead_ns: float = 30.0

    # --- network (RDMA-class) -------------------------------------------
    #: one-sided read/write round-trip latency (small message)
    net_rtt_ns: float = 3000.0
    #: link bandwidth in bytes per nanosecond (50 Gbps = 6.25 B/ns)
    net_bandwidth_bpns: float = 6.25
    #: extra per-message cost of two-sided communication: far-node CPU
    #: receives, copies, replies
    two_sided_msg_ns: float = 400.0
    #: per-byte copy cost on the far node for two-sided messages
    two_sided_copy_bpns: float = 12.0
    #: per-op detection timeout under fault injection: how long the sender
    #: waits before declaring a message lost (default for
    #: :class:`repro.faults.FaultPlan.timeout_ns`)
    net_timeout_ns: float = 50_000.0
    #: first-retry backoff under fault injection (default for
    #: :class:`repro.faults.FaultPlan.backoff_base_ns`)
    net_backoff_base_ns: float = 10_000.0

    # --- kernel swap path (FastSwap / Leap substrate) ---------------------
    #: page-fault trap + kernel swap path (FastSwap's optimized datapath)
    page_fault_ns: float = 3500.0
    #: Leap's datapath is less optimized than FastSwap's (paper section 6.1:
    #: "Leap performs worse than FastSwap ... because of FastSwap's more
    #: efficient data-path implementation in Linux")
    leap_extra_fault_ns: float = 1200.0
    #: asynchronous dirty-page writeback cost charged on eviction
    page_writeback_ns: float = 300.0

    # --- AIFM-style library runtime ---------------------------------------
    #: hot-path dereference of a remotable pointer (metadata checks,
    #: dereference-scope bookkeeping)
    aifm_deref_ns: float = 350.0
    #: per-remotable-object metadata (header + remote pointer state)
    aifm_object_metadata_bytes: int = 16
    #: miss path adds object lookup + eviction-handler bookkeeping
    aifm_miss_extra_ns: float = 1000.0

    # --- far-memory node ---------------------------------------------------
    #: far node compute slowdown relative to the compute node (low-power
    #: cores, section 4.8)
    far_cpu_slowdown: float = 3.0
    #: RPC invocation overhead for offloaded functions
    rpc_ns: float = 5000.0

    # --- Mira profiling ------------------------------------------------
    #: cost of one coarse-grained profiling event (counter update)
    profile_event_ns: float = 20.0

    # --- hybrid data plane (repro.cache.hybrid) --------------------------
    #: one online path switch of a section group (swap <-> object):
    #: metadata rebuild, page-table/section bookkeeping.  The migration
    #: traffic itself (write-backs, refills) is priced by the normal
    #: cache/swap machinery; this is only the control-plane cost.
    path_switch_ns: float = 2000.0

    #: free-form overrides recorded for provenance
    notes: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        # durations are checked and snapped to the time grid (idempotent,
        # so ``with_overrides`` stays on it); rates and ratios are not
        # durations and stay as given
        inf = float("inf")
        for f in fields(self):
            name = f.name
            value = getattr(self, name)
            if name.endswith("_bpns") or name in ("far_cpu_slowdown", "dram_access_ns"):
                if not 0 < value < inf:  # (a NaN fails every comparison)
                    raise ConfigError(f"{name} must be finite and > 0: {value}")
            elif name.endswith("_ns") and not 0 <= value < inf:
                raise ConfigError(f"{name} must be finite and >= 0: {value}")
            if name.endswith("_ns"):
                object.__setattr__(self, name, grid(value))

    # -- derived helpers ----------------------------------------------------

    def transfer_ns(self, nbytes: int) -> float:
        """Wire time for ``nbytes`` at link bandwidth."""
        if nbytes < 0:
            raise ConfigError(f"negative transfer size {nbytes}")
        return grid(nbytes / self.net_bandwidth_bpns)

    def one_sided_ns(self, nbytes: int) -> float:
        """Latency of a one-sided RDMA read/write of ``nbytes``."""
        return self.net_rtt_ns + self.transfer_ns(nbytes)

    def two_sided_ns(self, nbytes: int) -> float:
        """Latency of a two-sided message carrying ``nbytes`` of payload."""
        return (
            self.net_rtt_ns
            + self.transfer_ns(nbytes)
            + self.two_sided_msg_ns
            + grid(nbytes / self.two_sided_copy_bpns)
        )

    def page_fetch_ns(self, page_size: int, extra_fault_ns: float = 0.0) -> float:
        """Demand-fetching one swap page: trap + kernel path + RDMA read."""
        return self.page_fault_ns + extra_fault_ns + self.one_sided_ns(page_size)

    def hit_overhead_ns(self, structure: str) -> float:
        """Lookup overhead for a cache-section structure name."""
        table = {
            "direct": self.hit_overhead_direct_ns,
            "set_associative": self.hit_overhead_set_assoc_ns,
            "fully_associative": self.hit_overhead_full_assoc_ns,
        }
        try:
            return table[structure]
        except KeyError:
            raise ConfigError(f"unknown cache structure {structure!r}") from None

    def with_overrides(self, **kwargs) -> "CostModel":
        """A copy of this model with some constants replaced."""
        return replace(self, **kwargs)

    @classmethod
    def rdma(cls) -> "CostModel":
        """The default: 50 Gbps InfiniBand-class remote memory (the
        paper's testbed)."""
        return cls()

    @classmethod
    def cxl(cls) -> "CostModel":
        """A CXL-attached memory-pool profile (paper section 2.1: "our
        general designs apply to ... CXL-based memory pools").

        Cache-line-class access latency (~400 ns round trip), much higher
        effective bandwidth, no kernel fault path needed for the swap
        substrate (load/store semantics), cheaper messages.  Mira's
        *decisions* shift accordingly -- smaller efficient line sizes,
        shorter prefetch distances -- which the ``cxl.*`` cells of the
        ``figures`` suite (``repro.bench.figures``) exercise.
        """
        return cls(
            net_rtt_ns=400.0,
            net_bandwidth_bpns=32.0,  # ~256 Gbps CXL x8-class
            two_sided_msg_ns=150.0,
            two_sided_copy_bpns=32.0,
            page_fault_ns=1200.0,  # no full kernel swap path
            leap_extra_fault_ns=400.0,
            rpc_ns=2000.0,
            notes={"profile": "cxl"},
        )
