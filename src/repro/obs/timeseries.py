"""Windowed telemetry: deterministic virtual-time series of run counters.

Everything else in ``repro.obs`` is end-of-run (one trace, one metrics
snapshot, one attribution tree).  The :class:`TelemetryCollector` adds the
time axis: it snapshots cumulative counters at *virtual-time window
boundaries*, producing one record per window -- the substrate the SLO
engine (:mod:`repro.obs.slo`) evaluates and the exporters
(:mod:`repro.obs.export`) serialize.

Design constraints (mirroring :mod:`repro.obs.trace`):

* **Zero overhead when disabled.**  Boundary detection lives inside the
  :class:`~repro.memsim.clock.VirtualClock`: with no hook armed every
  clock fold pays one float compare against ``+inf``, and the
  miss-wait observe sites are a single ``is not None`` test on an
  attribute that defaults to None.  Virtual time, golden trace digests,
  and BENCH baselines are bit-for-bit unchanged.

* **Engine determinism.**  A window record contains the *exact* boundary
  time ``(w+1) * window_ns`` -- never the live clock value at detection
  -- plus cumulative memory-system counters.  The reference interpreter
  folds compute charges immediately while the codegen engine buffers
  them (:meth:`VirtualClock.charge`), so the two engines detect a
  crossing at different fold points; but a buffered run contains no
  memory-system activity by construction (any access folds the buffer),
  so the counters are identical wherever inside it the boundary is
  detected.  The fold walker's callers (codegen's chunks, trace replay's
  streams) bail out to their exact per-element loops while a collector
  is attached, for the same reason the tracer makes them bail.  Result:
  byte-identical exported series across both engines.

* **Bounded memory.**  Records live in a ring buffer of ``max_windows``;
  overflow evicts the oldest record and counts it in :attr:`dropped`
  (reported, never silent).

* **Threads.**  Forked per-thread clocks carry no hook; boundaries
  crossed inside a parallel region all surface when the parent clock
  joins, with the counters as of the join -- windows are coalesced, not
  interleaved, keeping the series deterministic.

Alignment with the hybrid plane: :class:`~repro.cache.hybrid.HybridConfig`
windows are *access-count* based while telemetry windows are virtual-time
based, so the two grids do not coincide; instead every record carries the
cumulative ``path_switches`` (and ``degrades``) counters, which makes each
hybrid switch decision visible as a step in the series.
"""

from __future__ import annotations

from collections import deque

from repro.cache.stats import SectionStats
from repro.errors import ObsError

#: schema identifier for exported series files; bump on breaking change
SERIES_SCHEMA = "repro.obs.series/v1"

#: SectionStats fields summed across sections (swap included) per record
_STAT_FIELDS = (
    "accesses",
    "hits",
    "misses",
    "prefetch_hits",
    "prefetches_issued",
    "prefetch_wasted",
    "evictions",
    "hinted_evictions",
    "writebacks",
    "native_accesses",
    "miss_wait_ns",
    "overhead_ns",
)

#: every key a window record carries, in schema order (documentation and
#: the OpenMetrics exporter iterate this; records themselves are plain
#: dicts serialized with sorted keys)
RECORD_FIELDS = (
    ("w", "window index (0-based)"),
    ("t", "window-end virtual time, ns (exact boundary, or clock.now for "
          "the final partial window)"),
    ("partial", "True only for the final, shorter-than-window record"),
    *((f, f"cumulative {f} summed over all sections + swap") for f in _STAT_FIELDS),
    ("net_bytes_read", "cumulative network bytes read"),
    ("net_bytes_written", "cumulative network bytes written"),
    ("net_messages", "cumulative network messages"),
    ("retries", "cumulative fault-layer retries (0 when healthy)"),
    ("breaker_trips", "cumulative circuit-breaker trips"),
    ("giveups", "cumulative retry-budget exhaustions"),
    ("backoff_ns", "cumulative retry backoff time"),
    ("degrades", "cumulative graceful-degradation actions applied"),
    ("path_switches", "cumulative hybrid path switches applied"),
    ("mw_count", "miss-wait observations inside this window"),
    ("mw_sum", "sum of those waits, ns"),
    ("mw_p50", "per-window miss-wait p50, ns (0 when mw_count=0)"),
    ("mw_p95", "per-window miss-wait p95, ns"),
    ("mw_p99", "per-window miss-wait p99, ns"),
)

_MW_ZERO = {
    "mw_count": 0, "mw_sum": 0.0, "mw_p50": 0.0, "mw_p95": 0.0, "mw_p99": 0.0,
}


def _mw_fields(samples: list[float]) -> dict:
    """Per-window miss-wait distribution, exact nearest-rank percentiles.

    Open-coded rather than going through :class:`~repro.obs.metrics.Histogram`
    (a per-sample ``observe`` loop per window is the collector's single
    hottest path); the sum runs in observation order and the ranks match
    ``Histogram.percentile`` exactly, so the produced records are
    byte-identical to the Histogram-backed ones."""
    if not samples:
        return dict(_MW_ZERO)
    n = len(samples)
    total = sum(samples)  # before sorting: same addition order as observe()
    samples.sort()
    return {
        "mw_count": n,
        "mw_sum": total,
        "mw_p50": samples[int(max(1, -(-n * 50 // 100))) - 1],
        "mw_p95": samples[int(max(1, -(-n * 95 // 100))) - 1],
        "mw_p99": samples[int(max(1, -(-n * 99 // 100))) - 1],
    }


class TelemetryCollector:
    """Collects one record of cumulative counters per virtual-time window.

    Usage::

        tel = TelemetryCollector(window_ns=1_000_000)
        run_plan(compiled, cost, mem, telemetry=tel)   # attaches + finishes
        series = tel.windows()

    or manually: ``tel.attach(memsys)`` before the run, ``tel.finish()``
    after.  A collector is single-use: it keeps the series after
    ``finish`` and cannot be re-attached.
    """

    def __init__(
        self,
        window_ns: float,
        max_windows: int = 4096,
        meta: dict | None = None,
    ) -> None:
        if window_ns <= 0:
            raise ObsError(f"telemetry window must be positive, got {window_ns}")
        if max_windows < 1:
            raise ObsError("telemetry ring buffer needs at least one window")
        self.window_ns = float(window_ns)
        self.max_windows = max_windows
        #: free-form metadata for the series file header (never digested)
        self.meta: dict = dict(meta or {})
        self._records: deque[dict] = deque(maxlen=max_windows)
        #: windows evicted from the ring buffer (0 = complete series)
        self.dropped = 0
        self.memsys = None
        self._clock = None
        self._next_w = 0
        self._mw_samples: list[float] = []
        # the per-miss hot hook: bound straight to the sample list's
        # append so each observation is one C-level call, no Python frame
        # (the list object survives clear(), so the binding stays valid;
        # see the observe_miss_wait method below for the semantics)
        self.observe_miss_wait = self._mw_samples.append
        #: totals of sections whose lifetime ended (see :meth:`retire`)
        self._retired = SectionStats()
        self.finished = False

    # -- lifecycle ----------------------------------------------------------

    def attach(self, memsys) -> None:
        """Hook the collector into a memory system and its clock.  Must be
        called before the run so the first window starts at the current
        virtual time's window."""
        if self.memsys is not None or self.finished:
            raise ObsError("telemetry collector is single-use; already attached")
        self.memsys = memsys
        clock = memsys.clock
        self._clock = clock
        memsys.set_telemetry(self)
        self._next_w = int(clock.now // self.window_ns)
        clock.set_tick_hook(self._on_tick, (self._next_w + 1) * self.window_ns)

    def finish(self) -> list[dict]:
        """Close the final partial window, detach, and return the series."""
        if self.memsys is None:
            return self.windows()
        clock = self._clock
        now = clock.now  # flushes; fires _on_tick for any pending boundary
        last_boundary = self._next_w * self.window_ns
        if now > last_boundary or not self._records:
            self._append(self._next_w, now, partial=True)
        clock.set_tick_hook(None)
        self.memsys.set_telemetry(None)
        self.memsys = None
        self._clock = None
        self.finished = True
        return self.windows()

    # -- hooks (called by the clock / cache layers) -------------------------

    def _on_tick(self, now: float) -> float:
        """Clock callback: record every boundary the fold crossed; returns
        the next boundary to arm."""
        w = self._next_w
        boundary = (w + 1) * self.window_ns
        first = True
        while boundary <= now:
            self._append(w, boundary, partial=False, empty_mw=not first)
            first = False
            w += 1
            boundary = (w + 1) * self.window_ns
        self._next_w = w
        return boundary

    def observe_miss_wait(self, wait_ns: float) -> None:
        """Push one miss/stall wait into the current window's histogram
        (called from the swap/section/AIFM miss paths).

        Shadowed by an instance attribute bound to ``list.append`` in
        ``__init__`` -- the class method documents the contract and keeps
        subclass overrides possible (re-assign the instance attribute)."""
        self._mw_samples.append(wait_ns)

    def retire(self, stats: SectionStats) -> None:
        """Fold a closing section's stats into the retained totals, so
        cumulative counters stay monotone after the section vanishes from
        ``collect_section_stats()`` (called by the cache manager)."""
        self._retired.merge(stats)

    # -- snapshotting -------------------------------------------------------

    def _append(
        self, w: int, t: float, partial: bool, empty_mw: bool = False
    ) -> None:
        rec = {"w": w, "t": t, "partial": partial}
        rec.update(self._counters())
        if empty_mw:
            rec.update(_MW_ZERO)
        else:
            rec.update(_mw_fields(self._mw_samples))
            self._mw_samples.clear()
        if len(self._records) == self.max_windows:
            self.dropped += 1
        self._records.append(rec)

    def _counters(self) -> dict:
        m = self.memsys
        retired = self._retired
        agg = {f: getattr(retired, f) for f in _STAT_FIELDS}
        collect = getattr(m, "collect_section_stats", None)
        if collect is not None:
            for fields in collect().values():
                for f in _STAT_FIELDS:
                    agg[f] += fields.get(f, 0)
        # int/float stability: these are floats even when everything is 0
        agg["miss_wait_ns"] = float(agg["miss_wait_ns"])
        agg["overhead_ns"] = float(agg["overhead_ns"])
        net = m.network.stats
        agg["net_bytes_read"] = net.bytes_read
        agg["net_bytes_written"] = net.bytes_written
        agg["net_messages"] = net.messages
        faults = m.network.faults
        if faults is not None:
            fs = faults.stats
            agg["retries"] = fs.retries
            agg["breaker_trips"] = fs.breaker_trips
            agg["giveups"] = fs.giveups
            agg["backoff_ns"] = fs.backoff_ns
        else:
            agg["retries"] = agg["breaker_trips"] = agg["giveups"] = 0
            agg["backoff_ns"] = 0.0
        agg["degrades"] = len(getattr(m, "degrade_log", ()))
        agg["path_switches"] = len(getattr(m, "switch_log", ()))
        return agg

    # -- results ------------------------------------------------------------

    def windows(self) -> list[dict]:
        """The recorded series, oldest first (ring-buffer survivors)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


def series_from_events(events: list[dict], window_ns: float) -> list[dict]:
    """Derive a windowed series from an already-recorded trace.

    Bins events by their emitted virtual time into the same record schema
    the live collector produces.  This is *event-time* binning: a miss
    whose wait straddles a boundary is emitted (and therefore counted)
    after the wait, whereas the live collector snapshots mid-miss state
    counters -- so a trace-derived series is deterministic and
    self-consistent but not byte-equal to a live series of the same run.
    """
    if window_ns <= 0:
        raise ObsError(f"telemetry window must be positive, got {window_ns}")
    agg = dict.fromkeys(_STAT_FIELDS, 0)
    agg["miss_wait_ns"] = agg["overhead_ns"] = 0.0
    agg.update(
        net_bytes_read=0, net_bytes_written=0, net_messages=0,
        retries=0, breaker_trips=0, giveups=0, backoff_ns=0.0,
        degrades=0, path_switches=0,
    )
    records: list[dict] = []
    mw: list[float] = []
    w = 0
    last_t = 0.0

    def flush_to(t: float) -> None:
        # close every window whose boundary precedes t (events at exactly
        # the boundary time belong to the closing window)
        nonlocal w
        boundary = (w + 1) * window_ns
        while boundary < t:
            rec = {"w": w, "t": boundary, "partial": False, **agg}
            rec.update(_mw_fields(mw))
            mw.clear()
            records.append(rec)
            w += 1
            boundary = (w + 1) * window_ns

    for ev in events:
        t = ev.get("t", last_t)
        if t > last_t:
            flush_to(t)
            last_t = t
        kind = ev["k"]
        if kind == "cache.hit":
            agg["accesses"] += 1
            agg["hits"] += 1
            if ev.get("nat"):
                agg["native_accesses"] += 1
            agg["overhead_ns"] += ev.get("ov", 0.0)
        elif kind in ("cache.miss", "swap.fault"):
            agg["accesses"] += 1
            agg["misses"] += 1
            wait = ev.get("wait", 0.0)
            agg["miss_wait_ns"] += wait
            mw.append(wait)
        elif kind == "cache.prefetch_hit":
            agg["accesses"] += 1
            agg["misses"] += 1
            agg["prefetch_hits"] += 1
            wait = ev.get("wait", 0.0)
            agg["miss_wait_ns"] += wait
            mw.append(wait)
        elif kind == "cache.prefetch":
            agg["prefetches_issued"] += 1
        elif kind == "cache.evict":
            agg["evictions"] += 1
            if ev.get("hinted"):
                agg["hinted_evictions"] += 1
        elif kind == "cache.writeback":
            agg["writebacks"] += 1
        elif kind == "net.recv":
            agg["net_bytes_read"] += ev.get("bytes", 0)
            agg["net_messages"] += 1
        elif kind == "net.send":
            agg["net_bytes_written"] += ev.get("bytes", 0)
            agg["net_messages"] += 1
        elif kind in ("net.batch", "net.rpc"):
            agg["net_bytes_read"] += ev.get("bytes", 0)
            agg["net_messages"] += 1
        elif kind == "retry.attempt":
            agg["retries"] += 1
            agg["backoff_ns"] += ev.get("backoff", 0.0)
        elif kind == "fault.breaker":
            agg["breaker_trips"] += 1
        elif kind == "fault.giveup":
            agg["giveups"] += 1
        elif kind == "degrade.section":
            agg["degrades"] += 1
        elif kind == "path.switch":
            agg["path_switches"] += 1
    # final partial window at the last event time
    rec = {"w": w, "t": last_t, "partial": True, **agg}
    rec.update(_mw_fields(mw))
    records.append(rec)
    return records
