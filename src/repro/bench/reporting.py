"""Plain-text tables: the paper's figures ("the same rows/series the
paper reports") and the observability reports."""

from __future__ import annotations


def format_figure(
    title: str,
    corner: str,
    cols: list[str],
    rows: list[str],
    grid: list[list[str]],
    notes: list[str] = (),
) -> str:
    """One table of the evaluation (``benchmarks/results/*.txt``): a row
    per ``rows`` label, a column per ``cols`` label, ``grid[i][j]`` the
    already-formatted cell, free-text ``notes`` underneath."""
    left = max(len(corner), *map(len, rows))
    widths = [
        max(10, len(col), *(len(line[j]) for line in grid))
        for j, col in enumerate(cols)
    ]

    def line(label: str, cells: list[str]) -> str:
        return f"{label:>{left}} | " + " | ".join(
            f"{cell:>{w}}" for cell, w in zip(cells, widths)
        )

    header = line(corner, cols)
    body = [line(label, cells) for label, cells in zip(rows, grid)]
    return "\n".join([title, header, "-" * len(header), *body, *notes])


def _fmt_ns(ns: float) -> str:
    """Human-scaled virtual time (ns/us/ms/s)."""
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3f}us"
    return f"{ns:.0f}ns"


def format_phase_timeline(rows: list[dict]) -> str:
    """Table for :func:`repro.obs.report.phase_timeline` rows: one line per
    completed ``prof.region`` span with its cache/network activity."""
    header = (
        f"{'phase':>16} | {'start':>10} | {'duration':>10} | "
        f"{'hits':>8} | {'misses':>8} | {'net bytes':>10}"
    )
    lines = ["phase timeline", header, "-" * len(header)]
    if not rows:
        lines.append("(no prof.region events in trace)")
        return "\n".join(lines)
    for r in rows:
        lines.append(
            f"{r['phase']:>16} | {_fmt_ns(r['start_ns']):>10} | "
            f"{_fmt_ns(r['duration_ns']):>10} | {r['hits']:>8} | "
            f"{r['misses']:>8} | {r['net_bytes']:>10}"
        )
    return "\n".join(lines)


def format_attribution(att) -> str:
    """Tables for a :class:`repro.obs.analyze.Attribution`: exclusive
    buckets (summing exactly to the total), per-section split, wasted
    prefetches, degradation windows, and any analyzer warnings."""
    total = att.total_ns or 1.0
    runs = len(att.segments)
    lines = [
        f"virtual-time attribution: total {_fmt_ns(att.total_ns)} "
        f"over {runs} run{'s' if runs != 1 else ''}"
    ]
    header = f"{'bucket':>16} | {'time':>10} | {'share':>6}"
    lines += [header, "-" * len(header)]
    for bucket, ns in sorted(att.by_bucket.items(), key=lambda kv: -kv[1]):
        lines.append(f"{bucket:>16} | {_fmt_ns(ns):>10} | {ns / total:>6.1%}")
    lines.append("")
    header = f"{'section':>16} | {'bucket':>16} | {'time':>10} | {'share':>6}"
    lines += ["per-section attribution", header, "-" * len(header)]
    for sec in sorted(att.by_section):
        for bucket, ns in sorted(
            att.by_section[sec].items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"{sec:>16} | {bucket:>16} | {_fmt_ns(ns):>10} | "
                f"{ns / total:>6.1%}"
            )
    if att.wasted_prefetch:
        lines.append("")
        lines.append("wasted prefetches (fetched but never used):")
        for sec in sorted(att.wasted_prefetch):
            w = att.wasted_prefetch[sec]
            lines.append(
                f"  {sec}: {w['in_flight']} evicted in flight, "
                f"{w['unused']} arrived unused, ~{w['bytes']} bytes wasted"
            )
    if att.degradations:
        lines.append("")
        lines.append("degradation windows:")
        for d in att.degradations:
            dur = (d["end"] or d["start"]) - d["start"]
            lines.append(
                f"  [{d.get('segment', '?')}] {d['action']} sec={d['sec']} "
                f"at t={d['start']:.0f}, window {_fmt_ns(dur)}, "
                f"{_fmt_ns(d['attr_ns'])} attributed inside"
            )
    if att.warnings:
        lines.append("")
        lines.append("analyzer warnings:")
        lines += [f"  ! {w}" for w in att.warnings]
    return "\n".join(lines)


def format_critical_path(steps: list[dict]) -> str:
    """Indented drill-down for :func:`repro.obs.analyze.critical_path`."""
    lines = ["virtual-time critical path"]
    if not steps:
        lines.append("(empty trace)")
        return "\n".join(lines)
    for depth, s in enumerate(steps):
        lines.append(
            f"{'  ' * depth}-> {s['name']} [{s['level']}] "
            f"{_fmt_ns(s['inclusive_ns'])} ({s['share']:.1%} of parent)"
        )
    return "\n".join(lines)


def format_regression(checks: list) -> str:
    """Table for :func:`repro.obs.regress.compare` checks (a ``None``
    value is a failed or missing cell)."""

    def ns(v) -> str:
        return f"{'-':>12}" if v is None else f"{v:>12.1f}"

    header = (
        f"{'metric':>48} | {'baseline':>12} | {'current':>12} | "
        f"{'delta':>7} | {'verdict':>8}"
    )
    lines = ["perf-regression gate", header, "-" * len(header)]
    if not checks:
        lines.append("(nothing to compare)")
        return "\n".join(lines)
    for c in checks:
        verdict = "ok" if c.ok else "FAIL"
        if c.ok and c.note:
            verdict = "note"
        lines.append(
            f"{c.metric:>48} | {ns(c.baseline)} | {ns(c.current)} | "
            f"{c.rel:>+7.1%} | {verdict:>8}"
        )
        if c.note:
            lines.append(f"{'':>48}   {c.note}")
    return "\n".join(lines)


def format_percentiles(name: str, snap: dict) -> str:
    """One line for a :class:`repro.obs.metrics.Histogram` snapshot."""
    if not snap.get("count"):
        return f"{name}: (no observations)"
    return (
        f"{name}: n={snap['count']} mean={_fmt_ns(snap['mean'])} "
        f"p50={_fmt_ns(snap['p50'])} p95={_fmt_ns(snap['p95'])} "
        f"p99={_fmt_ns(snap['p99'])} max={_fmt_ns(snap['max'])}"
    )


def format_section_summary(rows: dict[str, dict]) -> str:
    """Table for :func:`repro.obs.report.section_summary`: one line per
    cache section (swap included) with aggregate hit/miss/evict counts."""
    header = (
        f"{'section':>16} | {'accesses':>9} | {'hits':>9} | {'misses':>8} | "
        f"{'miss%':>6} | {'pf hits':>7} | {'evicts':>7} | {'wb':>6} | "
        f"{'miss wait':>10}"
    )
    lines = ["section summary", header, "-" * len(header)]
    if not rows:
        lines.append("(no cache events in trace)")
        return "\n".join(lines)
    for sec in sorted(rows):
        r = rows[sec]
        lines.append(
            f"{sec:>16} | {r['accesses']:>9} | {r['hits']:>9} | "
            f"{r['misses']:>8} | {r['miss_rate']:>6.1%} | "
            f"{r['prefetch_hits']:>7} | {r['evictions']:>7} | "
            f"{r['writebacks']:>6} | {_fmt_ns(r['miss_wait_ns']):>10}"
        )
    return "\n".join(lines)
