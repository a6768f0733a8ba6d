"""The memory-system interface every simulated system implements.

``MemorySystem`` is what the IR interpreter talks to.  Implementations:

* :class:`repro.baselines.native.NativeMemory` -- all-local, the
  normalization baseline,
* :class:`repro.cache.manager.CacheManager` -- Mira's section-based cache,
* :class:`repro.baselines.fastswap.FastSwap`,
  :class:`repro.baselines.leap.Leap` -- page-swap systems,
* :class:`repro.baselines.aifm.AIFM` -- object-granularity library runtime.

Semantics: ``access`` charges virtual time for the *placement* consequences
of one program access (lookup, miss, eviction, network); the interpreter
separately charges CPU/DRAM time for the access itself.  Data values never
live here -- correctness is handled by the interpreter's object store.
"""

from __future__ import annotations

import abc

from repro.cache.stats import MemoryStats, ObjectStats
from repro.memsim.address import AddressSpace, ObjectInfo
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.memsim.farnode import FarMemoryNode
from repro.memsim.network import Network


class MemorySystem(abc.ABC):
    """Base class wiring a system to the shared machine simulator."""

    name: str = "abstract"

    def __init__(
        self,
        cost: CostModel,
        local_mem_bytes: int,
        clock: VirtualClock | None = None,
    ) -> None:
        self.cost = cost
        self.local_mem_bytes = local_mem_bytes
        self.clock = clock or VirtualClock()
        self.network = Network(cost, self.clock)
        self.far_node = FarMemoryNode(cost)
        self.address_space = AddressSpace()
        self.stats = MemoryStats()
        #: attached :class:`repro.obs.Tracer`, or None (tracing disabled)
        self.tracer = None
        #: attached :class:`repro.obs.timeseries.TelemetryCollector`, or
        #: None (telemetry disabled; miss-path observe hooks are then a
        #: single ``is not None`` test, the same deal as the tracer)
        self.telemetry = None
        #: the tracer again iff it was built with ``access_log=True``:
        #: every public call then records a ``mem.*`` op-log event at its
        #: entry (time + arguments), making the trace self-replayable.
        #: None for default tracers, so pre-existing digests are untouched.
        self._alog = None
        #: pre-bound ``mem.access`` emitter for the hot path (or None)
        self._rec_access = None

    # -- allocation --------------------------------------------------------

    def allocate(
        self,
        size: int,
        elem_size: int = 8,
        name: str = "",
        alloc_site: str = "",
        attrs: dict | None = None,
    ) -> ObjectInfo:
        """Allocate an object; far-memory backing is created eagerly."""
        alog = self._alog
        if alog is not None:
            alog.emit(
                "mem.alloc",
                self.clock.now,
                size=size,
                elem=elem_size,
                name=name,
                **({"attrs": attrs} if attrs else {}),
            )
        obj = self.address_space.allocate(size, elem_size, name, alloc_site, attrs)
        self.stats.per_object[obj.obj_id] = ObjectStats()
        self.far_node.allocate(size)
        self._on_allocate(obj)
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "obj.alloc",
                self.clock.now,
                obj=obj.obj_id,
                size=size,
                name=name,
                far_rt=self.far_node.local_allocator.round_trips,
            )
        return obj

    def free(self, obj_id: int) -> None:
        alog = self._alog
        if alog is not None:
            alog.emit("mem.free", self.clock.now, obj=obj_id)
        obj = self.address_space.get(obj_id)
        tr = self.tracer
        if tr is not None:
            tr.emit("obj.free", self.clock.now, obj=obj_id, size=obj.size)
        self._on_free(obj)
        self.address_space.free(obj_id)

    # -- clock plumbing (thread simulation swaps the active clock) -----------

    def set_clock(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.network.clock = clock
        self.far_node.clock = clock

    # -- tracing (no-op unless a tracer is attached) -------------------------

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` (or None to detach).  Must be
        called before the interpreter is built so runtime-side emission
        points pick it up.  Subclasses propagate to their sections."""
        self.tracer = tracer
        self.network.tracer = tracer
        self._bind_access_log(tracer)

    def set_telemetry(self, telemetry) -> None:
        """Attach a :class:`~repro.obs.timeseries.TelemetryCollector`
        (or None to detach).  Subclasses propagate to their sections so
        miss-wait observations reach the collector's per-window
        histogram."""
        self.telemetry = telemetry

    def _bind_access_log(self, tracer) -> None:
        """Enable the ``mem.*`` op log iff the tracer asked for it."""
        if tracer is not None and getattr(tracer, "access_log", False):
            self._alog = tracer
            self._rec_access = tracer.emitter("mem.access")
        else:
            self._alog = None
            self._rec_access = None

    # -- fault injection (disabled unless a plan is installed) ---------------

    def enable_faults(self, plan) -> None:
        """Install a :class:`repro.faults.FaultPlan` for this run.

        Builds a fresh seeded :class:`~repro.faults.FaultInjector` (so
        every run under the same plan draws the same fault sequence) and
        wires it into the shared machine: the network gains the
        timeout/retry/backoff/breaker reliability layer, the far node's
        offload compute honors slowdown windows.  Pass None to disable.
        """
        if plan is None:
            self.network.install_faults(None)
            self.far_node.faults = None
            return
        from repro.faults import FaultInjector

        injector = FaultInjector(plan)
        self.network.install_faults(injector)
        self.far_node.faults = injector
        self.far_node.clock = self.clock

    # -- the data path -------------------------------------------------------

    @abc.abstractmethod
    def access(
        self,
        obj_id: int,
        offset: int,
        size: int,
        is_write: bool,
        native: bool = False,
    ) -> None:
        """One program access of ``size`` bytes at ``offset`` into the
        object.  Advances the clock by whatever the system's data path
        costs (zero extra for all-local native memory).  ``native=True``
        is the compiler's dereference-elision promise (section 4.4);
        systems without the concept ignore it."""

    # -- optional hints (no-ops for systems that cannot use them) -----------
    #
    # Each public hint is a thin wrapper that records the call in the
    # op log (when enabled) and delegates to an ``_impl`` hook, which is
    # what subclasses override.  Internal re-issues (e.g. a batch falling
    # back to single prefetches) go through the hooks directly, so every
    # program-level call is logged exactly once -- no nesting -- and the
    # self-replayer can re-issue the public surface verbatim.
    # ``CacheManager`` bypasses the wrappers of its two hot hints,
    # ``prefetch`` and ``evict_hint_trailing`` (the IR path issues one per
    # loop iteration): it overrides them whole and records the same op-log
    # entry itself, so while no op log is bound each costs one frame.

    def prefetch(self, obj_id: int, offset: int, size: int) -> None:
        """Asynchronous fetch hint (Mira compiler-inserted prefetch)."""
        alog = self._alog
        if alog is not None:
            alog.emit(
                "mem.prefetch", self.clock.now, obj=obj_id, off=offset, size=size
            )
        self._prefetch(obj_id, offset, size)

    def _prefetch(self, obj_id: int, offset: int, size: int) -> None:
        pass

    def flush(self, obj_id: int, offset: int, size: int) -> None:
        """Asynchronously write back a range (pre-eviction flush)."""
        alog = self._alog
        if alog is not None:
            alog.emit(
                "mem.flush", self.clock.now, obj=obj_id, off=offset, size=size
            )
        self._flush(obj_id, offset, size)

    def _flush(self, obj_id: int, offset: int, size: int) -> None:
        pass

    def evict_hint(self, obj_id: int, offset: int, size: int) -> None:
        """Mark a range evictable (compiler-inserted last-access hint)."""
        alog = self._alog
        if alog is not None:
            alog.emit(
                "mem.evict", self.clock.now, obj=obj_id, off=offset, size=size
            )
        self._evict_hint(obj_id, offset, size)

    def _evict_hint(self, obj_id: int, offset: int, size: int) -> None:
        pass

    def evict_hint_trailing(self, obj_id: int, offset: int) -> None:
        """Mark the line *behind* ``offset`` evictable (streaming hint:
        the previous line's last access has passed)."""
        alog = self._alog
        if alog is not None:
            alog.emit("mem.evict_trail", self.clock.now, obj=obj_id, off=offset)
        self._evict_hint_trailing(obj_id, offset)

    def _evict_hint_trailing(self, obj_id: int, offset: int) -> None:
        pass

    def discard(self, obj_id: int) -> None:
        """Drop an object's clean cached data without write-back
        (read-only scope ended)."""
        alog = self._alog
        if alog is not None:
            alog.emit("mem.discard", self.clock.now, obj=obj_id)
        self._discard(obj_id)

    def _discard(self, obj_id: int) -> None:
        pass

    def prefetch_batch(self, items: list[tuple[int, int, int]]) -> None:
        """Prefetch several ``(obj_id, offset, size)`` ranges; systems that
        can batch combine them into one network message (section 4.5)."""
        alog = self._alog
        if alog is not None:
            alog.emit(
                "mem.batch",
                self.clock.now,
                items=[[o, off, sz] for o, off, sz in items],
            )
        self._prefetch_batch(items)

    def _prefetch_batch(self, items: list[tuple[int, int, int]]) -> None:
        for obj_id, offset, size in items:
            self._prefetch(obj_id, offset, size)

    def set_native(self, obj_id: int, native: bool) -> None:
        """Compiler promise that subsequent accesses to this object are
        dereference-elided (section 4.4); systems without the concept
        ignore it."""
        alog = self._alog
        if alog is not None:
            alog.emit("mem.native", self.clock.now, obj=obj_id, on=native)
        self._set_native(obj_id, native)

    def _set_native(self, obj_id: int, native: bool) -> None:
        pass

    # -- bulk access (codegen's vectorized memref path, trace replay) --------

    def bulk_access(
        self,
        obj_id: int,
        offsets,
        writes,
        size: int,
        dram_ns: float,
        before_ns: float,
        after_ns: float,
    ) -> bool:
        """One access of ``size`` bytes at each of ``offsets`` (a sequence
        in any order, repeats allowed; a strided loop passes a ``range``),
        a write where the matching entry of ``writes`` is truthy.  True
        means done, bit-identical in total to, per element,
        ``clock.advance(dram_ns, "dram"); clock.charge(before_ns);
        access(obj_id, off, size, bool(w)); clock.charge(after_ns)``;
        False means nothing was done and the caller runs that loop itself
        (the default: systems without a batch path, or a state in which
        something observes single accesses).

        The three durations are on the time grid (they come from a
        :class:`CostModel`), which is what makes ``n * c`` equal ``n``
        adds of ``c``.  ``before_ns`` is compute the program does ahead
        of the access (trace replay's per-op charge), ``after_ns`` compute
        behind it (a loop body's ops in IR order)."""
        return False

    # -- bookkeeping hooks ---------------------------------------------------

    def _on_allocate(self, obj: ObjectInfo) -> None:
        pass

    def _on_free(self, obj: ObjectInfo) -> None:
        pass

    # -- reporting ---------------------------------------------------------

    def metadata_bytes(self) -> int:
        """Local-memory bytes spent on the system's own metadata."""
        return 0

    def local_bytes_available(self) -> int:
        """Local memory usable for data after metadata."""
        return max(0, self.local_mem_bytes - self.metadata_bytes())

    def describe(self) -> str:
        return f"{self.name}(local={self.local_mem_bytes} B)"
