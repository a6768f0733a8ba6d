"""Virtual-time attribution, critical path, and flamegraph export.

Folds the flat JSONL event stream (:mod:`repro.obs.trace`) into a
hierarchy — run → segment (one per ``prof.snapshot``, labelled by the
``ctrl.iter`` that follows it) → ``prof.region`` phase → exclusive
bucket — and attributes **every nanosecond** of virtual time to exactly
one bucket.  The attribution is *exclusive and exact*: the buckets of a
trace sum to precisely the total virtual time of its runs, because
whatever the event stream cannot explain lands in the ``compute``
residual and every duration is on the time grid (DESIGN.md section 4),
where sums and differences are exact.

How each bucket is derived from events (the per-access cost constants
ride on the events themselves — ``sec.open`` carries the section's
hit/insert/evict overheads, ``swap.fault`` its kernel time, sync
``fault.inject`` its detection timeout — so analysis never needs the
cost model):

* ``cache_hit`` — per-hit lookup overhead (``sec.open.hit_ov``); native
  (compiler-elided, ``nat=True``) and swap hits are free.
* ``miss_service`` — insert overhead plus the synchronous wire time of
  the fetch (the paired ``net.recv``/``net.send`` ``ns``).
* ``swap_fault`` — the kernel fault path (``swap.fault.kern``).
* ``prefetch_wait`` — stall on an in-flight prefetch
  (``cache.prefetch_hit.wait``).
* ``eviction`` — evict overhead, plus the swap dirty-page write-back.
* ``net_issue`` — async issue cost of prefetches and write-backs.
* ``net_wait`` — link-queue drain: the part of a miss's ``wait`` that
  neither the wire time, the kernel, nor fault penalties explain.
* ``fault_timeout`` / ``fault_retry`` — detection timeouts and backoff
  of the reliability loop (sync ops only; async faults fold into
  ``ready`` and surface as ``prefetch_wait``).
* ``offload_rpc`` — two-sided RPC round trips.
* ``aifm_runtime`` — AIFM's per-dereference and per-miss library time.
* ``path_switch`` — the hybrid manager's control-plane cost of flipping
  a section group between the swap and object paths (``path.switch.ov``).
* ``compute`` — the residual: CPU, DRAM, profiling, lock time.

The per-category totals are cross-validated against the clock breakdown
that ``prof.snapshot`` carries (``bd``); material mismatches become
warnings, not crashes, so the analyzer stays useful on legacy traces
that predate the attribution fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: attributed clock category -> reporting bucket
BUCKET_OF = {
    "hit_overhead": "cache_hit",
    "insert_overhead": "miss_service",
    "net_read": "miss_service",
    "net_write": "miss_service",
    "page_fault": "swap_fault",
    "miss_wait": "prefetch_wait",
    "evict_overhead": "eviction",
    "eviction": "eviction",
    "net_issue": "net_issue",
    "net_wait": "net_wait",
    "net_timeout": "fault_timeout",
    "net_backoff": "fault_retry",
    "rpc": "offload_rpc",
    "aifm_deref": "aifm_runtime",
    "aifm_miss": "aifm_runtime",
    "path_switch": "path_switch",
    "compute": "compute",
}

#: tolerance (virtual ns) below which a cross-check mismatch is noise
_TOL_NS = 0.5


@dataclass
class PhaseNode:
    """One ``prof.region`` span (or a segment's implicit root)."""

    label: str
    start: float
    end: float | None = None
    children: list["PhaseNode"] = field(default_factory=list)
    #: exclusive contributions attributed while this was the innermost
    #: open phase: category -> list of ns values (fsum'd at finalize)
    attr: dict[str, list[float]] = field(default_factory=dict)
    #: duration (end - start), set at finalize
    dur: float = 0.0
    #: time not covered by child phases (self time), set at finalize
    self_ns: float = 0.0
    #: self time not explained by attributed events (compute residual)
    residual: float = 0.0

    def add(self, cat: str, ns: float) -> None:
        self.attr.setdefault(cat, []).append(ns)

    def attr_totals(self) -> dict[str, float]:
        return {c: math.fsum(v) for c, v in self.attr.items()}


@dataclass
class Segment:
    """One run of the program: everything up to a ``prof.snapshot``."""

    index: int
    label: str = ""
    total: float = 0.0
    runtime: float = 0.0
    #: clock breakdown carried by the snapshot (empty on legacy traces)
    bd: dict = field(default_factory=dict)
    #: category -> list of attributed ns (fsum'd into by_category)
    cat: dict[str, list[float]] = field(default_factory=dict)
    #: section -> category -> list of attributed ns
    sec_cat: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    root: PhaseNode = field(default_factory=lambda: PhaseNode("run", 0.0))
    #: per-section wasted prefetches: evicted while still in flight
    wasted_prefetch: dict[str, dict] = field(default_factory=dict)
    degradations: list[dict] = field(default_factory=list)
    truncated: bool = False

    def by_category(self) -> dict[str, float]:
        return {c: math.fsum(v) for c, v in self.cat.items()}


@dataclass
class Attribution:
    """Whole-trace result: exclusive, exact attribution plus checks."""

    segments: list[Segment]
    total_ns: float
    by_category: dict[str, float]
    by_bucket: dict[str, float]
    #: section -> bucket -> ns ("program" holds the compute residual)
    by_section: dict[str, dict[str, float]]
    wasted_prefetch: dict[str, dict]
    degradations: list[dict]
    warnings: list[str]


class _Analyzer:
    """Single forward pass over the event stream."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        self.warnings: list[str] = []
        #: sec -> (hit_ov, ins_ov, ev_ov) from sec.open
        self.sec_consts: dict[str, tuple[float, float, float]] = {}
        self._legacy_warned = False
        self._reset_segment()

    def _reset_segment(self) -> None:
        self.seg = Segment(index=len(self.segments))
        #: innermost-first stack of open prof.region spans
        self.open_phases: list[PhaseNode] = []
        #: per-label stacks (same-label nesting pops the innermost)
        self.label_stacks: dict[str, list[PhaseNode]] = {}
        # deferred sync-op costs, consumed by the next miss/fault/rpc
        self.pend_read = 0.0
        self.pend_write = 0.0
        self.pend_timeout = 0.0
        self.pend_backoff = 0.0
        self.pend_issue = 0.0
        #: (sec, obj, line) -> in-flight prefetch info for waste detection
        self.inflight: dict[tuple, dict] = {}
        self._last_async_bytes = 0
        self._open_window: dict | None = None
        self._max_t = 0.0

    # -- attribution sink ----------------------------------------------------

    def _add(self, cat: str, ns: float, sec: str) -> None:
        if ns == 0.0:
            return
        seg = self.seg
        seg.cat.setdefault(cat, []).append(ns)
        seg.sec_cat.setdefault(sec, {}).setdefault(cat, []).append(ns)
        node = self.open_phases[-1] if self.open_phases else seg.root
        node.add(cat, ns)
        w = self._open_window
        if w is not None:
            w["attr_ns"] += ns

    def _consts(self, sec: str) -> tuple[float, float, float]:
        c = self.sec_consts.get(sec)
        if c is None:
            if not self._legacy_warned:
                self._legacy_warned = True
                self.warnings.append(
                    f"sec.open for {sec!r} lacks overhead constants "
                    "(legacy trace?): overhead buckets will undercount"
                )
            c = (0.0, 0.0, 0.0)
        return c

    def _flush_pending(self, sec: str) -> None:
        """Attribute deferred sync costs that found no consumer."""
        if self.pend_read:
            self._add("net_read", self.pend_read, sec)
            self.pend_read = 0.0
        if self.pend_write:
            self._add("net_write", self.pend_write, sec)
            self.pend_write = 0.0
        if self.pend_timeout:
            self._add("net_timeout", self.pend_timeout, sec)
            self.pend_timeout = 0.0
        if self.pend_backoff:
            self._add("net_backoff", self.pend_backoff, sec)
            self.pend_backoff = 0.0
        if self.pend_issue:
            self._add("net_issue", self.pend_issue, sec)
            self.pend_issue = 0.0

    # -- event handlers ------------------------------------------------------

    def feed(self, ev: dict) -> None:
        kind = ev["k"]
        t = ev.get("t", 0.0)
        if t > self._max_t:
            self._max_t = t
        handler = getattr(self, "_on_" + kind.replace(".", "_"), None)
        if handler is not None:
            handler(ev)

    def _on_sec_open(self, ev: dict) -> None:
        if "hit_ov" in ev:
            self.sec_consts[ev["sec"]] = (
                ev.get("hit_ov", 0.0),
                ev.get("ins_ov", 0.0),
                ev.get("ev_ov", 0.0),
            )

    def _on_cache_hit(self, ev: dict) -> None:
        sec = ev.get("sec", "swap")
        key = (sec, ev.get("obj"), ev.get("line"))
        self.inflight.pop(key, None)
        if sec == "aifm":
            self._add("aifm_deref", ev.get("ov", 0.0), sec)
        elif sec != "swap" and not ev.get("nat"):
            self._add("hit_overhead", self._consts(sec)[0], sec)
        # native and swap hits are free (elided deref / MMU-resolved)

    def _on_cache_prefetch_hit(self, ev: dict) -> None:
        sec = ev.get("sec", "swap")
        self.inflight.pop((sec, ev.get("obj"), ev.get("line")), None)
        self._add("miss_wait", ev.get("wait", 0.0), sec)

    def _on_cache_miss(self, ev: dict) -> None:
        sec = ev.get("sec", "swap")
        self.inflight.pop((sec, ev.get("obj"), ev.get("line")), None)
        wait = ev.get("wait", 0.0)
        explained = (
            self.pend_read + self.pend_write + self.pend_timeout + self.pend_backoff
        )
        self._add("net_read", self.pend_read, sec)
        self._add("net_write", self.pend_write, sec)
        self._add("net_timeout", self.pend_timeout, sec)
        self._add("net_backoff", self.pend_backoff, sec)
        self.pend_read = self.pend_write = 0.0
        self.pend_timeout = self.pend_backoff = 0.0
        remainder = wait - explained
        if remainder < -_TOL_NS:
            self.warnings.append(
                f"cache.miss at t={ev.get('t', 0):.0f} (sec={sec}): wait "
                f"{wait:.0f} < paired sync costs {explained:.0f}"
            )
            remainder = 0.0
        elif remainder < 0.0:
            remainder = 0.0
        if sec == "aifm":
            self._add("aifm_deref", ev.get("ov", 0.0), sec)
            # remainder = miss_extra plus any link drain (inseparable)
            self._add("aifm_miss", remainder, sec)
        else:
            self._add("insert_overhead", self._consts(sec)[1], sec)
            self._add("net_wait", remainder, sec)

    def _on_swap_fault(self, ev: dict) -> None:
        wait = ev.get("wait", 0.0)
        kern = ev.get("kern", 0.0)
        explained = (
            kern
            + self.pend_read
            + self.pend_write
            + self.pend_timeout
            + self.pend_backoff
        )
        self._add("page_fault", kern, "swap")
        self._add("net_read", self.pend_read, "swap")
        self._add("net_write", self.pend_write, "swap")
        self._add("net_timeout", self.pend_timeout, "swap")
        self._add("net_backoff", self.pend_backoff, "swap")
        self.pend_read = self.pend_write = 0.0
        self.pend_timeout = self.pend_backoff = 0.0
        remainder = wait - explained
        if remainder < -_TOL_NS:
            self.warnings.append(
                f"swap.fault at t={ev.get('t', 0):.0f}: wait {wait:.0f} < "
                f"paired sync costs {explained:.0f}"
            )
            remainder = 0.0
        elif remainder < 0.0:
            remainder = 0.0
        self._add("net_wait", remainder, "swap")

    def _on_cache_evict(self, ev: dict) -> None:
        sec = ev.get("sec", "swap")
        key = (sec, ev.get("obj"), ev.get("line"))
        entry = self.inflight.pop(key, None)
        if entry is not None:
            w = self.seg.wasted_prefetch.setdefault(
                sec, {"in_flight": 0, "unused": 0, "bytes": 0}
            )
            if ev.get("t", 0.0) < entry["ready"]:
                w["in_flight"] += 1  # evicted before the data even arrived
            else:
                w["unused"] += 1  # arrived, never touched, evicted
            w["bytes"] += entry["bytes"]
        if sec == "swap":
            self._add("eviction", ev.get("wb", 0.0), sec)
        elif sec == "aifm":
            self._add("eviction", ev.get("ov", 0.0), sec)
        else:
            self._add("evict_overhead", self._consts(sec)[2], sec)

    def _on_cache_prefetch(self, ev: dict) -> None:
        sec = ev.get("sec", "swap")
        if self.pend_issue:
            self._add("net_issue", self.pend_issue, sec)
            self.pend_issue = 0.0
        self.inflight[(sec, ev.get("obj"), ev.get("line"))] = {
            "ready": ev.get("ready", 0.0),
            # single prefetches pair with the async net.recv just before
            # them; batched ones with net.batch's per-line share
            "bytes": self._last_async_bytes,
        }

    def _on_cache_writeback(self, ev: dict) -> None:
        if self.pend_issue:
            self._add("net_issue", self.pend_issue, ev.get("sec", "swap"))
            self.pend_issue = 0.0

    def _on_net_recv(self, ev: dict) -> None:
        if "ready" in ev:  # async issue
            self.pend_issue += ev.get("issue", 0.0)
            self._last_async_bytes = ev.get("bytes", 0)
        else:  # sync wire time, consumed by the next miss/fault
            self.pend_read += ev.get("ns", 0.0)

    def _on_net_send(self, ev: dict) -> None:
        if "ready" in ev:
            self.pend_issue += ev.get("issue", 0.0)
            self._last_async_bytes = ev.get("bytes", 0)
        else:
            self.pend_write += ev.get("ns", 0.0)

    def _on_net_batch(self, ev: dict) -> None:
        if self.pend_issue:
            self._add("net_issue", self.pend_issue, "net")
            self.pend_issue = 0.0
        lines = ev.get("lines", 0) or 1
        self._last_async_bytes = ev.get("bytes", 0) // lines

    def _on_net_rpc(self, ev: dict) -> None:
        self._add("rpc", ev.get("ns", 0.0), "offload")
        self._add("net_timeout", self.pend_timeout, "offload")
        self._add("net_backoff", self.pend_backoff, "offload")
        self.pend_timeout = self.pend_backoff = 0.0

    def _on_fault_inject(self, ev: dict) -> None:
        # async faults fold into the transfer's ready time: not clock-charged
        if not str(ev.get("op", "")).endswith("_async"):
            self.pend_timeout += ev.get("timeout", 0.0)

    def _on_retry_attempt(self, ev: dict) -> None:
        if not str(ev.get("op", "")).endswith("_async"):
            self.pend_backoff += ev.get("backoff", 0.0)

    def _on_prof_region(self, ev: dict) -> None:
        label = ev.get("label", "?")
        if ev.get("ev") == "begin":
            node = PhaseNode(label, ev.get("t", 0.0))
            parent = self.open_phases[-1] if self.open_phases else self.seg.root
            parent.children.append(node)
            self.open_phases.append(node)
            self.label_stacks.setdefault(label, []).append(node)
        else:
            stack = self.label_stacks.get(label)
            if not stack:
                self.warnings.append(f"prof.region end without begin: {label!r}")
                return
            node = stack.pop()
            node.end = ev.get("t", 0.0)
            if self.open_phases and self.open_phases[-1] is node:
                self.open_phases.pop()
            else:
                # overlapping (non-nested) regions: drop from wherever
                self.warnings.append(f"prof.region {label!r} ends out of order")
                if node in self.open_phases:
                    self.open_phases.remove(node)

    def _on_ctrl_iter(self, ev: dict) -> None:
        if self.segments and not self.segments[-1].label:
            self.segments[-1].label = f"iter{ev.get('it', len(self.segments) - 1)}"

    def _on_degrade_section(self, ev: dict) -> None:
        t = ev.get("t", 0.0)
        if self._open_window is not None:
            self._open_window["end"] = t
        self._open_window = {
            "sec": ev.get("sec", "?"),
            "action": ev.get("action", "?"),
            "start": t,
            "end": None,
            "attr_ns": 0.0,
        }
        self.seg.degradations.append(self._open_window)

    def _on_path_switch(self, ev: dict) -> None:
        # hybrid data plane: the switch's control-plane overhead is its
        # own exclusive bucket; the migration traffic (write-backs,
        # refills) is already attributed by the cache/swap events
        self._add("path_switch", ev.get("ov", 0.0), ev.get("sec", "?"))

    def _on_prof_snapshot(self, ev: dict) -> None:
        self._finalize_segment(ev.get("elapsed", ev.get("t", 0.0)), ev)

    # -- segment finalization ------------------------------------------------

    def _finalize_segment(self, total: float, snapshot: dict | None) -> None:
        seg = self.seg
        self._flush_pending("net")
        for label, stack in self.label_stacks.items():
            for node in stack:
                if node.end is None:
                    node.end = total
                    self.warnings.append(f"prof.region {label!r} never ended")
        if self.inflight:
            for (sec, _obj, _line), entry in self.inflight.items():
                w = seg.wasted_prefetch.setdefault(
                    sec, {"in_flight": 0, "unused": 0, "bytes": 0}
                )
                w["unused"] += 1
                w["bytes"] += entry["bytes"]
        if self._open_window is not None:
            self._open_window["end"] = total
        seg.total = total
        if snapshot is not None:
            seg.runtime = snapshot.get("runtime", 0.0)
            seg.bd = snapshot.get("bd", {}) or {}
        else:
            seg.truncated = True
            self.warnings.append(
                f"segment {seg.index} has no prof.snapshot (truncated trace); "
                "using the last event time as its span"
            )
        self._finalize_phases(seg)
        self._cross_check(seg)
        self.segments.append(seg)
        self._reset_segment()

    def _finalize_phases(self, seg: Segment) -> None:
        root = seg.root
        root.end = seg.total

        def walk(node: PhaseNode) -> None:
            node.dur = max(0.0, (node.end or node.start) - node.start)
            child_ns = 0.0
            for c in node.children:
                walk(c)
                child_ns += c.dur
            node.self_ns = node.dur - child_ns
            attributed = math.fsum(math.fsum(v) for v in node.attr.values())
            node.residual = node.self_ns - attributed
            if node.residual < -_TOL_NS:
                self.warnings.append(
                    f"phase {node.label!r}: attributed {attributed:.0f} ns "
                    f"exceeds its self time {node.self_ns:.0f} ns"
                )
            if node.residual < 0.0:
                node.residual = 0.0

        walk(root)

    def _cross_check(self, seg: Segment) -> None:
        """Compare event-derived category totals with the snapshot's
        clock breakdown (when present)."""
        if not seg.bd:
            return
        derived = seg.by_category()
        for cat, ns in derived.items():
            want = seg.bd.get(cat)
            if want is None:
                continue
            if abs(ns - want) > max(_TOL_NS, 1e-9 * seg.total):
                self.warnings.append(
                    f"segment {seg.index} ({seg.label or 'final'}): derived "
                    f"{cat}={ns:.1f} ns vs clock breakdown {want:.1f} ns"
                )

    # -- final assembly ------------------------------------------------------

    def finish(self) -> Attribution:
        # a trailing segment only counts when it attributed real work --
        # stray post-snapshot events (ctrl.iter, sec.close) are not a run
        if self.seg.cat or self.seg.root.children:
            self._finalize_segment(self._max_t, None)
        # label leftovers: final run is "final", earlier unlabeled "runN"
        for seg in self.segments[:-1]:
            if not seg.label:
                seg.label = f"run{seg.index}"
        if self.segments and not self.segments[-1].label:
            self.segments[-1].label = "final"

        total = math.fsum(s.total for s in self.segments)
        by_category: dict[str, float] = {}
        all_vals: list[float] = []
        for seg in self.segments:
            for cat, vals in seg.cat.items():
                by_category.setdefault(cat, 0.0)
                all_vals.extend(vals)
        for cat in by_category:
            by_category[cat] = math.fsum(
                v for s in self.segments for v in s.cat.get(cat, ())
            )
        by_category["compute"] = total - math.fsum(all_vals)

        by_bucket: dict[str, float] = {}
        for cat, ns in by_category.items():
            b = BUCKET_OF.get(cat, "compute")
            by_bucket[b] = by_bucket.get(b, 0.0) + ns

        by_section: dict[str, dict[str, float]] = {}
        for seg in self.segments:
            for sec, cats in seg.sec_cat.items():
                dst = by_section.setdefault(sec, {})
                for cat, vals in cats.items():
                    b = BUCKET_OF.get(cat, "compute")
                    dst[b] = dst.get(b, 0.0) + math.fsum(vals)
        attributed = math.fsum(
            ns for cats in by_section.values() for ns in cats.values()
        )
        by_section["program"] = {"compute": total - attributed}

        wasted: dict[str, dict] = {}
        degradations: list[dict] = []
        for seg in self.segments:
            for sec, w in seg.wasted_prefetch.items():
                dst = wasted.setdefault(sec, {"in_flight": 0, "unused": 0, "bytes": 0})
                for k in dst:
                    dst[k] += w[k]
            for d in seg.degradations:
                degradations.append({**d, "segment": seg.label})
        return Attribution(
            segments=self.segments,
            total_ns=total,
            by_category=by_category,
            by_bucket=by_bucket,
            by_section=by_section,
            wasted_prefetch=wasted,
            degradations=degradations,
            warnings=self.warnings,
        )


def analyze_events(events: list[dict]) -> Attribution:
    """Attribute a trace's virtual time; see the module docstring."""
    a = _Analyzer()
    for ev in events:
        a.feed(ev)
    return a.finish()


def critical_path(att: Attribution) -> list[dict]:
    """Drill down the hierarchy, at each level following the heaviest
    child, until a node's own (self) time dominates; finish on the
    dominant exclusive bucket.  Each step reports inclusive ns and its
    share of the parent."""
    steps: list[dict] = [
        {
            "level": "run",
            "name": "run",
            "inclusive_ns": att.total_ns,
            "share": 1.0,
        }
    ]
    if not att.segments or att.total_ns <= 0.0:
        return steps
    seg = max(att.segments, key=lambda s: s.total)
    if len(att.segments) > 1:
        steps.append(
            {
                "level": "segment",
                "name": seg.label,
                "inclusive_ns": seg.total,
                "share": seg.total / att.total_ns if att.total_ns else 0.0,
            }
        )
    node = seg.root
    while node.children:
        best = max(node.children, key=lambda c: c.dur)
        if best.dur <= node.self_ns:
            break
        steps.append(
            {
                "level": "phase",
                "name": best.label,
                "inclusive_ns": best.dur,
                "share": best.dur / node.dur if node.dur else 0.0,
            }
        )
        node = best
    buckets: dict[str, float] = {}
    for cat, total in node.attr_totals().items():
        b = BUCKET_OF.get(cat, "compute")
        buckets[b] = buckets.get(b, 0.0) + total
    buckets["compute"] = buckets.get("compute", 0.0) + node.residual
    if buckets:
        name, ns = max(buckets.items(), key=lambda kv: kv[1])
        base = node.self_ns if node.self_ns > 0.0 else node.dur
        steps.append(
            {
                "level": "bucket",
                "name": name,
                "inclusive_ns": ns,
                "share": ns / base if base else 0.0,
            }
        )
    return steps


def collapsed_stacks(att: Attribution) -> list[str]:
    """Collapsed-stack lines (``frame;frame;... <ns>``) compatible with
    flamegraph.pl / speedscope.  Frames: run → segment (when the trace
    holds several runs) → phase chain → exclusive bucket; values are the
    bucket's exclusive virtual ns (rounded to integers)."""
    agg: dict[str, int] = {}
    multi = len(att.segments) > 1

    def emit(path: str, ns: float) -> None:
        v = int(round(ns))
        if v > 0:
            agg[path] = agg.get(path, 0) + v

    def walk(node: PhaseNode, prefix: str) -> None:
        path = prefix if node.label == "run" else f"{prefix};{node.label}"
        for cat, total in node.attr_totals().items():
            emit(f"{path};{BUCKET_OF.get(cat, 'compute')}", total)
        emit(f"{path};compute", node.residual)
        for c in node.children:
            walk(c, path)

    for seg in att.segments:
        base = f"run;{seg.label}" if multi else "run"
        walk(seg.root, base)
    return [f"{path} {v}" for path, v in sorted(agg.items())]
