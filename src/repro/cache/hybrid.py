"""Hybrid data plane: per-section-group online path selection.

Neither the kernel page path (FastSwap-style swap) nor the runtime
object path (AIFM/Mira-style cache sections) wins everywhere, and the
right choice can change mid-run as the access pattern shifts ("A Tale of
Two Paths").  The :class:`HybridManager` generalizes the degradation
remap of :meth:`CacheManager._degrade_step` into a first-class system:

* **Plan time** -- each *path group* (a section config plus the
  allocation names it covers) starts on the path the planner chose from
  profiler/locality signals (:func:`repro.analysis.locality.choose_path`),
  or on the swap path when nothing is known yet (trace frontend).

* **Run time** -- every access lands in a fixed-size observation window
  per group.  At each window boundary the manager compares the windowed
  miss rate and read amplification (bytes fetched / bytes accessed)
  against the :class:`HybridConfig` thresholds and switches the group:
  swap->object ("promote") when locality appears -- high miss rate *and*
  page-level amplification, i.e. whole pages travel for a few useful
  bytes; object->swap ("demote") when the section thrashes -- near-total
  miss rate or line-level amplification beyond the demote threshold.

* **Hysteresis** -- decisions happen only at window boundaries, the
  promote and demote thresholds do not overlap, and every switch starts
  a cooldown of ``cooldown_windows`` windows, so a group oscillating
  around a threshold switches at most once per window and never flaps
  back immediately.

* **State migration** -- a promote opens the section and re-assigns the
  live objects, which drops their swap pages (dirty ones are written
  back asynchronously) and settles or wastes in-flight swap prefetches;
  a demote closes the section, which flushes dirty lines and counts
  still-in-flight section prefetches as wasted.  All of that rides the
  existing section/swap machinery, so the migration traffic is priced
  and traced exactly like any other eviction.  The control-plane cost of
  the flip itself is ``CostModel.path_switch_ns``, charged to the
  ``path_switch`` clock category and emitted as a ``path.switch`` event.

* **Degradation wins** -- while a fault plan is active (or a degradation
  is pending) voluntary switching is disabled entirely: the breaker's
  remap policy owns the configuration, its overhead is never compounded
  by switch overhead, and a group whose section was shed by degradation
  is locked on the swap path for the rest of the run.

Switches are a deterministic consequence of the access stream, so hybrid
runs keep the full parity contract: byte-identical traces across both
engines and bit-exact self-replay (``path.switch`` is deliberately
*not* a forbidden replay kind; the replayed manager re-derives every
switch from the replayed accesses).  Replay rebuilds groups from the
``mem.plan`` op-log events this manager records; thresholds are not in
the trace, so a replaying system must be built with the same
:class:`HybridConfig` (the default, for every named system).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from repro.cache.config import SectionConfig
from repro.cache.manager import CacheManager
from repro.errors import ConfigError
from repro.memsim.address import PAGE_SIZE, ObjectInfo


@dataclass(frozen=True)
class HybridConfig:
    """Switchover thresholds, calibrated against ``BENCH_trace.json``.

    With 8-byte accesses a swap miss fetches a 4096-byte page (worst-case
    amplification 512x) and an object miss a 256-byte line (32x).  The
    promote gate requires both a real miss rate and page-level waste, so
    dense scans (amplification ~1) stay on swap; the demote gate fires
    only when the object path is nearly always missing, far above any
    post-promote steady state, so the two gates cannot chase each other.
    """

    #: accesses per observation window (per group)
    window: int = 2048
    #: promote (swap->object) when the windowed miss rate reaches this...
    promote_miss_rate: float = 0.02
    #: ...and bytes-fetched/bytes-accessed reaches this
    promote_amplification: float = 32.0
    #: demote (object->swap) when the windowed miss rate reaches this...
    demote_miss_rate: float = 0.9
    #: ...or line amplification reaches this (miss rate ~0.75 at 8B/256B)
    demote_amplification: float = 24.0
    #: windows to sit out after any switch (hysteresis)
    cooldown_windows: int = 2

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigError("hybrid window must be positive")
        if not 0.0 < self.promote_miss_rate <= self.demote_miss_rate <= 1.0:
            raise ConfigError(
                "need 0 < promote_miss_rate <= demote_miss_rate <= 1"
            )
        if self.cooldown_windows < 0:
            raise ConfigError("cooldown_windows must be >= 0")


@dataclass
class PathGroup:
    """One planned section group and its current path + window state."""

    config: SectionConfig
    per_thread: int = 0
    #: "object" (CacheSection) or "swap" (kernel page path)
    path: str = "swap"
    #: allocation names covered; "*" matches any object
    names: tuple = ()
    #: live member objects, in allocation order
    obj_ids: list[int] = field(default_factory=list)
    # current-window counters
    win_acc: int = 0
    win_miss: int = 0
    win_bytes: int = 0
    #: windows left before the group may switch again
    cooldown: int = 0
    #: set when degradation shed the group's section: never promote again
    locked: bool = False
    #: whether the group's ``mem.plan`` op-log entry has been emitted
    logged: bool = False


class HybridManager(CacheManager):
    """A :class:`CacheManager` whose sections can switch paths online."""

    name = "hybrid"

    def __init__(
        self,
        cost,
        local_mem_bytes,
        clock=None,
        fault_lock=None,
        policy=None,
        hybrid_config: HybridConfig | None = None,
    ) -> None:
        super().__init__(
            cost, local_mem_bytes, clock=clock, fault_lock=fault_lock,
            policy=policy,
        )
        self.hybrid_config = hybrid_config or HybridConfig()
        self._groups: dict[str, PathGroup] = {}
        self._obj_group: dict[int, PathGroup] = {}
        #: applied switches, oldest first (mirrors ``degrade_log``)
        self.switch_log: list[dict] = []
        self._path_hook = self._path_account

    # -- planning -----------------------------------------------------------

    def plan_group(
        self,
        config: SectionConfig,
        names: list[str],
        per_thread: int = 0,
        path: str = "object",
    ) -> PathGroup:
        """Register a section group with an initial path.

        Must precede the member allocations (plans are made before the
        program runs); objects whose allocation name matches ``names``
        (or ``"*"``) join the group as they are allocated.  Re-planning
        an existing group is a no-op returning it, so replaying a
        recorded ``mem.plan`` onto a pre-planned system is safe.
        """
        existing = self._groups.get(config.name)
        if existing is not None:
            return existing
        if path not in ("object", "swap"):
            raise ConfigError(
                f"unknown path {path!r}; expected 'object' or 'swap'"
            )
        group = PathGroup(
            config=config, per_thread=per_thread, path=path,
            names=tuple(names),
        )
        self._groups[config.name] = group
        self._log_plan(group)
        if path == "object":
            self._open_section_impl(config, [], per_thread=per_thread)
        return group

    def _log_plan(self, group: PathGroup) -> None:
        alog = self._alog
        if alog is None or group.logged:
            return
        group.logged = True
        alog.emit(
            "mem.plan",
            self.clock.now,
            sec=group.config.name,
            cfg=group.config.to_fields(),
            names=list(group.names),
            pt=group.per_thread,
            path=group.path,
        )

    def set_tracer(self, tracer) -> None:
        super().set_tracer(tracer)
        # groups planned before the tracer attached (make_system) log
        # their plan now, so the trace is self-describing from event 0
        for group in self._groups.values():
            self._log_plan(group)

    def groups(self) -> dict[str, PathGroup]:
        return dict(self._groups)

    # -- membership ---------------------------------------------------------

    def _match_group(self, name: str) -> PathGroup | None:
        wildcard = None
        for group in self._groups.values():
            if name and name in group.names:
                return group
            if wildcard is None and "*" in group.names:
                wildcard = group
        return wildcard

    def _on_allocate(self, obj: ObjectInfo) -> None:
        group = self._match_group(obj.name)
        if group is None:
            super()._on_allocate(obj)
            return
        group.obj_ids.append(obj.obj_id)
        self._obj_group[obj.obj_id] = group
        if group.path == "object":
            self.assign(obj.obj_id, group.config.name)

    def _on_free(self, obj: ObjectInfo) -> None:
        group = self._obj_group.pop(obj.obj_id, None)
        if group is not None:
            group.obj_ids.remove(obj.obj_id)
        super()._on_free(obj)

    # -- windowed switchover ------------------------------------------------

    def _path_account(self, obj_id: int, size: int, n: int, misses: int) -> None:
        """Window ``n`` accesses of ``size`` bytes, ``misses`` of them
        misses: one ``access``, or a run the walker settled (a stream is
        walked in runs that end where the window does, so a run never
        overshoots it)."""
        group = self._obj_group.get(obj_id)
        if group is None:
            return
        group.win_acc += n
        group.win_bytes += size * n
        group.win_miss += misses
        if group.win_acc >= self.hybrid_config.window:
            self._evaluate(group)

    def _stream_walk(self, obj_id, ops, *charges):
        """Walk a group's stream in runs that end where its window does,
        so ``_evaluate`` fires after the access it fires after per element
        and every run resolves the object's section afresh (a promote
        moves it mid-stream; no event of a section feeds a policy)."""
        group = self._obj_group.get(obj_id)
        if group is None:
            return super()._stream_walk(obj_id, ops, *charges)
        total = 0
        while True:
            room = self.hybrid_config.window - group.win_acc
            taken, stop = super()._stream_walk(obj_id, islice(ops, room), *charges)
            total += taken
            if stop is not None or taken < room:
                return total, stop

    def _evaluate(self, group: PathGroup) -> None:
        acc, miss, touched = group.win_acc, group.win_miss, group.win_bytes
        group.win_acc = group.win_miss = group.win_bytes = 0
        if group.cooldown:
            group.cooldown -= 1
            return
        if group.locked:
            return
        if self.network.faults is not None or self._degrade_pending:
            # degradation owns the configuration under fault injection;
            # never compound breaker recovery with voluntary switches
            return
        if self.fault_lock is not None:
            # threaded runs fork per-thread clocks; windowed signals are
            # not globally ordered there, so switching stays plan-time
            return
        hc = self.hybrid_config
        miss_rate = miss / acc
        if group.path == "swap":
            amplification = miss * PAGE_SIZE / touched
            if (
                miss_rate >= hc.promote_miss_rate
                and amplification >= hc.promote_amplification
            ):
                self._promote(group, miss_rate, amplification)
        else:
            amplification = miss * group.config.transfer_bytes / touched
            if (
                miss_rate >= hc.demote_miss_rate
                or amplification >= hc.demote_amplification
            ):
                self._demote(group, miss_rate, amplification)

    def _promote(
        self, group: PathGroup, miss_rate: float, amplification: float
    ) -> None:
        try:
            self._open_section_impl(
                group.config, [], per_thread=group.per_thread
            )
        except ConfigError:
            # budget currently committed elsewhere: back off and retry
            # after the cooldown instead of failing the run
            group.cooldown = self.hybrid_config.cooldown_windows
            return
        for obj_id in list(group.obj_ids):
            self.assign(obj_id, group.config.name)
        group.path = "object"
        self._finish_switch(group, "promote", miss_rate, amplification)

    def _demote(
        self, group: PathGroup, miss_rate: float, amplification: float
    ) -> None:
        self._close_section_impl(group.config.name)
        group.path = "swap"
        self._finish_switch(group, "demote", miss_rate, amplification)

    def _finish_switch(
        self, group: PathGroup, direction: str, miss_rate: float,
        amplification: float,
    ) -> None:
        group.cooldown = self.hybrid_config.cooldown_windows
        overhead = self.cost.path_switch_ns
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "path.switch",
                self.clock.now,
                sec=group.config.name,
                dir=direction,
                path=group.path,
                miss=round(miss_rate, 6),
                amp=round(amplification, 6),
                ov=overhead,
            )
        self.clock.advance(overhead, "path_switch")
        self.switch_log.append(
            {
                "sec": group.config.name,
                "dir": direction,
                "t": self.clock.now,
                "miss_rate": miss_rate,
                "amplification": amplification,
            }
        )

    # -- degradation interplay ---------------------------------------------

    def _degrade_step(self) -> None:
        super()._degrade_step()
        # reconcile: a group whose section degradation just shed is now on
        # the swap path, permanently -- no path.switch event (the
        # degrade.section event already records the remap, and degraded
        # traces are not replayable anyway)
        for group in self._groups.values():
            if group.path == "object" and group.config.name not in self._open:
                group.path = "swap"
                group.locked = True
