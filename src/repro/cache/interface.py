"""The memory-system interface every simulated system implements.

``MemorySystem`` is what the IR interpreter talks to.  Implementations:

* :class:`repro.baselines.native.NativeMemory` -- all-local, the
  normalization baseline,
* :class:`repro.cache.manager.CacheManager` -- Mira's section-based cache,
* :class:`repro.baselines.fastswap.FastSwap`,
  :class:`repro.baselines.leap.Leap` -- page-swap systems: the cache
  manager with no sections,
* :class:`repro.baselines.aifm.AIFM` -- object-granularity library runtime.

Semantics: ``access`` charges virtual time for the *placement* consequences
of one program access (lookup, miss, eviction, network); the interpreter
separately charges CPU/DRAM time for the access itself.  Data values never
live here -- correctness is handled by the interpreter's object store.
"""

from __future__ import annotations

import abc

from repro.cache.oplog import OP_LOG
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
        """Record the op log iff the tracer asked for it: each verb of
        :data:`~repro.cache.oplog.OP_LOG` this system has gets a
        per-instance wrapper that emits its row's event at ``clock.now``
        on entry, unless another logged call is still running (the
        nesting rule).  Without a log no wrapper exists."""
        for verb, _, _ in OP_LOG.values():
            vars(self).pop(verb, None)
        if tracer is None or not getattr(tracer, "access_log", False):
            return
        busy = False

        def wrap(call, emit, fields):
            def logged_call(*args, **kwargs):
                nonlocal busy
                if busy:
                    return call(*args, **kwargs)
                emit(self.clock.now, **fields(*args, **kwargs))
                busy = True
                try:
                    return call(*args, **kwargs)
                finally:
                    busy = False

            return logged_call

        for kind, (verb, fields, _) in OP_LOG.items():
            call = getattr(self, verb, None)
            if call is not None:
                setattr(self, verb, wrap(call, tracer.emitter(kind), fields))

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
    # Subclasses override these names.  Each verb here, ``access``,
    # ``allocate``/``free`` and the managers' section verbs is one row of
    # :data:`repro.cache.oplog.OP_LOG`: under an op log it records its
    # entry, unless a logged call is already running (replay re-derives a
    # nested call).  A new verb is one row there.

    def prefetch(self, obj_id: int, offset: int, size: int) -> None:
        """Asynchronous fetch hint (Mira compiler-inserted prefetch)."""

    def flush(self, obj_id: int, offset: int, size: int) -> None:
        """Asynchronously write back a range (pre-eviction flush)."""

    def evict_hint(self, obj_id: int, offset: int, size: int) -> None:
        """Mark a range evictable (compiler-inserted last-access hint)."""

    def evict_hint_trailing(self, obj_id: int, offset: int) -> None:
        """Mark the line *behind* ``offset`` evictable (streaming hint:
        the previous line's last access has passed)."""

    def discard(self, obj_id: int) -> None:
        """Drop an object's clean cached data without write-back
        (read-only scope ended)."""

    def prefetch_batch(self, items: list[tuple[int, int, int]]) -> None:
        """Prefetch several ``(obj_id, offset, size)`` ranges; systems that
        can batch combine them into one network message (section 4.5)."""
        for obj_id, offset, size in items:
            self.prefetch(obj_id, offset, size)

    def set_native(self, obj_id: int, native: bool) -> None:
        """Compiler promise that subsequent accesses to this object are
        dereference-elided (section 4.4); systems without the concept
        ignore it."""

    # -- stream access (trace replay) ---------------------------------------

    def stream_access(self, obj_id: int, ops, size: int, dram_ns, before_ns, after_ns):
        """One access of ``size`` bytes per op of ``ops``, an iterator of
        ``(offset, write)`` pairs, taken until the stream ends or an op's
        access would leave the object: per op bit-identical to
        ``clock.advance(dram_ns, "dram"); clock.charge(before_ns);
        access(obj_id, off, size, bool(w)); clock.charge(after_ns)``.
        Returns ``(taken, stop)``: how many ops were applied, and the op
        the walk stopped at, untouched and not charged (None at the
        stream's end); the iterator has yielded nothing past it.  None
        means the system declined and took nothing from the stream (the
        default: systems without a batch path, or a state in which
        something observes single accesses), and the caller runs that
        loop itself.

        The three durations are on the time grid (they come from a
        :class:`CostModel`), which is what makes ``n * c`` equal ``n``
        adds of ``c``.  ``before_ns`` is compute the program does ahead
        of the access (trace replay's per-op charge), ``after_ns`` compute
        behind it.  A cache manager walks the stream as a one-slot plan in
        the loop that also settles codegen's chunks
        (``CacheManager.fold_chunk``); trace replay hands it its op
        iterator once per run of ops in one region."""
        return None

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
