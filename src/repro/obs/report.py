"""Trace analysis + report CLI.

Turns a JSONL trace (written by :class:`repro.obs.Tracer`) into the views
the controller's story needs: a per-phase timeline (one row per
``prof.region`` span, with the cache activity that happened inside it),
a per-section summary (one row per cache section, swap included), the
exclusive virtual-time attribution with its critical path
(:mod:`repro.obs.analyze`), and a collapsed-stack flamegraph export.
Rendering lives in :mod:`repro.bench.reporting` next to the figure
tables, so trace reports and paper tables share one look.

Usage::

    python -m repro.obs.report trace.jsonl                  # timeline + sections
    python -m repro.obs.report trace.jsonl --phases         # timeline only
    python -m repro.obs.report trace.jsonl --sections       # summary only
    python -m repro.obs.report trace.jsonl --attribution    # exclusive buckets
    python -m repro.obs.report trace.jsonl --critical-path  # dominant chain
    python -m repro.obs.report trace.jsonl --flame          # collapsed stacks
    python -m repro.obs.report trace.jsonl --timeseries     # windowed series JSONL
    python -m repro.obs.report trace.jsonl --slo            # SLO verdict
    python -m repro.obs.report trace.jsonl --openmetrics    # Prometheus text
    python -m repro.obs.report --check                      # perf-regression gate

``--flame`` output pipes straight into ``flamegraph.pl`` or loads in
speedscope.  ``--timeseries`` folds the events into the canonical
windowed series (:mod:`repro.obs.timeseries`, window set by
``--window-ns``); ``--slo`` evaluates an :class:`repro.obs.slo.SloSpec`
(from ``--slo-spec FILE.json``, or a permissive built-in default) over
that series; ``--openmetrics`` exports the series totals in OpenMetrics
text format.  ``--check`` needs no trace: it delegates to
:mod:`repro.obs.regress` against the committed BENCH baselines.
Malformed trailing lines (truncated traces) are skipped with a warning;
an unreadable input file exits 2, as does a trace whose header is
missing or declares an unsupported schema version.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.trace import SCHEMA, digest_of_events, load_trace

#: event kinds counted as cache activity inside a phase
_MISS_KINDS = frozenset({"cache.miss", "swap.fault"})


def phase_timeline(events: list[dict]) -> list[dict]:
    """One row per completed ``prof.region`` span, in begin order.

    Rows carry start/end virtual time and the hit/miss/network activity
    observed while the phase was open (nested phases both count shared
    events: the timeline is inclusive, like the profiler).  Spans are
    tracked with a per-label stack, so re-entered and same-label nested
    regions each close their own row.
    """
    rows: list[dict] = []
    open_stacks: dict[str, list[dict]] = {}
    open_count = 0
    for ev in events:
        kind = ev["k"]
        if kind == "prof.region":
            label = ev["label"]
            if ev["ev"] == "begin":
                span = {
                    "phase": label,
                    "start_ns": ev["t"],
                    "end_ns": None,
                    "duration_ns": None,
                    "hits": 0,
                    "misses": 0,
                    "net_bytes": 0,
                }
                rows.append(span)
                open_stacks.setdefault(label, []).append(span)
                open_count += 1
            else:
                stack = open_stacks.get(label)
                if stack:
                    span = stack.pop()
                    span["end_ns"] = ev["t"]
                    span["duration_ns"] = ev["t"] - span["start_ns"]
                    open_count -= 1
            continue
        if not open_count:
            continue
        if kind == "cache.hit":
            for stack in open_stacks.values():
                for span in stack:
                    span["hits"] += 1
        elif kind in _MISS_KINDS:
            for stack in open_stacks.values():
                for span in stack:
                    span["misses"] += 1
        elif kind in ("net.send", "net.recv"):
            b = ev.get("bytes", 0)
            for stack in open_stacks.values():
                for span in stack:
                    span["net_bytes"] += b
    return [r for r in rows if r["end_ns"] is not None]


def section_summary(events: list[dict]) -> dict[str, dict]:
    """Aggregate cache events per section (``swap`` included)."""
    out: dict[str, dict] = {}

    def row(sec: str) -> dict:
        r = out.get(sec)
        if r is None:
            r = out[sec] = {
                "hits": 0,
                "misses": 0,
                "prefetch_hits": 0,
                "prefetches": 0,
                "evictions": 0,
                "hinted_evictions": 0,
                "writebacks": 0,
                "miss_wait_ns": 0.0,
            }
        return r

    for ev in events:
        kind = ev["k"]
        if not (kind.startswith("cache.") or kind == "swap.fault"):
            continue
        sec = ev.get("sec", "swap")
        r = row(sec)
        if kind == "cache.hit":
            r["hits"] += 1
        elif kind in ("cache.miss", "swap.fault"):
            r["misses"] += 1
            r["miss_wait_ns"] += ev.get("wait", 0.0)
        elif kind == "cache.prefetch_hit":
            r["misses"] += 1
            r["prefetch_hits"] += 1
            r["miss_wait_ns"] += ev.get("wait", 0.0)
        elif kind == "cache.prefetch":
            r["prefetches"] += 1
        elif kind == "cache.evict":
            r["evictions"] += 1
            r["hinted_evictions"] += ev.get("hinted", 0)
        elif kind == "cache.writeback":
            r["writebacks"] += 1
    for r in out.values():
        total = r["hits"] + r["misses"]
        r["accesses"] = total
        r["miss_rate"] = r["misses"] / total if total else 0.0
    return out


def miss_wait_histogram(events: list[dict]):
    """Exact percentiles of the per-miss wait, over every miss/fault/
    prefetch-stall in the trace."""
    from repro.obs.metrics import Histogram

    h = Histogram()
    for ev in events:
        if ev["k"] in ("cache.miss", "swap.fault", "cache.prefetch_hit"):
            h.observe(ev.get("wait", 0.0))
    return h


def fault_summary(events: list[dict]) -> dict:
    """Aggregate the fault/retry/degradation story of a trace.

    Returns zeros when the run was healthy; the renderer shows the block
    only when something actually went wrong.
    """
    out = {
        "injected": 0,
        "losses": 0,
        "timeouts": 0,
        "retries": 0,
        "backoff_ns": 0.0,
        "giveups": 0,
        "breaker_trips": 0,
        "degradations": [],
    }
    for ev in events:
        kind = ev["k"]
        if kind == "fault.inject":
            out["injected"] += 1
            if ev.get("fault") == "loss":
                out["losses"] += 1
            else:
                out["timeouts"] += 1
        elif kind == "retry.attempt":
            out["retries"] += 1
            out["backoff_ns"] += ev.get("backoff", 0.0)
        elif kind == "fault.giveup":
            out["giveups"] += 1
        elif kind == "fault.breaker":
            out["breaker_trips"] += 1
        elif kind == "degrade.section":
            out["degradations"].append(
                {"t": ev["t"], "sec": ev.get("sec", "?"), "action": ev.get("action", "?")}
            )
    return out


def event_counts(events: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for ev in events:
        counts[ev["k"]] = counts.get(ev["k"], 0) + 1
    return dict(sorted(counts.items()))


def render_report(
    header: dict,
    events: list[dict],
    phases: bool = True,
    sections: bool = True,
    attribution: bool = False,
    critical: bool = False,
) -> str:
    """The CLI's full plain-text report."""
    from repro.bench.reporting import (
        format_attribution,
        format_critical_path,
        format_percentiles,
        format_phase_timeline,
        format_section_summary,
    )

    lines = [
        f"trace: {header.get('schema', '?')} | {len(events)} events | "
        f"digest {digest_of_events(events)[:16]}"
    ]
    counts = event_counts(events)
    lines.append(
        "kinds: " + ", ".join(f"{k}={n}" for k, n in counts.items())
    )
    faults = fault_summary(events)
    if faults["injected"] or faults["degradations"] or faults["breaker_trips"]:
        lines.append("")
        lines.append(
            "fault summary: "
            f"{faults['injected']} injected "
            f"({faults['losses']} loss / {faults['timeouts']} timeout), "
            f"{faults['retries']} retries "
            f"({faults['backoff_ns']:.0f} ns backoff), "
            f"{faults['giveups']} giveups, "
            f"{faults['breaker_trips']} breaker trips"
        )
        for d in faults["degradations"]:
            lines.append(
                f"  degraded: {d['action']} sec={d['sec']} at t={d['t']:.0f}"
            )
    if phases:
        lines.append("")
        lines.append(format_phase_timeline(phase_timeline(events)))
    if sections:
        lines.append("")
        lines.append(format_section_summary(section_summary(events)))
        lines.append(
            format_percentiles("miss wait", miss_wait_histogram(events).snapshot())
        )
    if attribution or critical:
        from repro.obs.analyze import analyze_events, critical_path

        att = analyze_events(events)
        if attribution:
            lines.append("")
            lines.append(format_attribution(att))
        if critical:
            lines.append("")
            lines.append(format_critical_path(critical_path(att)))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__
    )
    ap.add_argument(
        "trace",
        nargs="?",
        help="JSONL trace file written by Tracer.write_jsonl "
        "(optional with --check)",
    )
    ap.add_argument("--phases", action="store_true", help="timeline only")
    ap.add_argument("--sections", action="store_true", help="section summary only")
    ap.add_argument(
        "--attribution",
        action="store_true",
        help="exclusive virtual-time buckets (sum exactly to the total)",
    )
    ap.add_argument(
        "--critical-path",
        action="store_true",
        dest="critical",
        help="dominant run/phase/bucket chain",
    )
    ap.add_argument(
        "--flame",
        action="store_true",
        help="collapsed-stack output (flamegraph.pl / speedscope)",
    )
    ap.add_argument(
        "--out",
        default=None,
        help="write --flame/--timeseries/--openmetrics output to a file",
    )
    ap.add_argument(
        "--timeseries",
        action="store_true",
        help="fold events into the canonical windowed series (JSONL + digest)",
    )
    ap.add_argument(
        "--slo",
        action="store_true",
        help="evaluate an SLO spec over the windowed series",
    )
    ap.add_argument(
        "--slo-spec",
        default=None,
        dest="slo_spec",
        help="JSON file holding SloSpec fields (default: a permissive "
        "built-in spec: miss_rate<=0.5, stall_fraction<=0.95)",
    )
    ap.add_argument(
        "--openmetrics",
        action="store_true",
        help="export the series totals in OpenMetrics/Prometheus text format",
    )
    ap.add_argument(
        "--window-ns",
        type=float,
        default=1_000_000.0,
        dest="window_ns",
        help="window width in virtual ns for --timeseries/--slo/--openmetrics "
        "(default 1e6)",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help="run the perf-regression gate (repro.obs.regress)",
    )
    ap.add_argument(
        "--current",
        default=None,
        help="with --check: a directory of BENCH files or a flat {metric: value} "
        "JSON to compare instead of measuring",
    )
    ap.add_argument(
        "--baseline-dir",
        default=None,
        help="with --check: directory holding the BENCH_*.json baselines",
    )
    args = ap.parse_args(argv)

    if args.check:
        from repro.obs import regress

        rargv: list[str] = []
        if args.baseline_dir:
            rargv += ["--baseline-dir", args.baseline_dir]
        if args.current:
            rargv += ["--current", args.current]
        return regress.main(rargv)

    if not args.trace:
        print("report: a trace file is required unless --check is given",
              file=sys.stderr)
        return 2
    try:
        header, events, warnings = load_trace(args.trace)
    except OSError as e:
        print(f"report: cannot read {args.trace}: {e}", file=sys.stderr)
        return 2
    for w in warnings:
        print(f"report: warning: {w}", file=sys.stderr)

    # schema gate: refuse traces from another schema version (or with no
    # header at all) instead of misreading them.  A completely empty file
    # still reports cleanly (nothing to misinterpret).
    if header:
        if header.get("schema") != SCHEMA:
            print(
                f"report: {args.trace}: unsupported trace schema "
                f"{header.get('schema')!r}; this tool reads {SCHEMA!r}",
                file=sys.stderr,
            )
            return 2
    elif events:
        print(
            f"report: {args.trace}: missing schema header; expected a first "
            f"line declaring {SCHEMA!r}",
            file=sys.stderr,
        )
        return 2

    if args.timeseries or args.slo or args.openmetrics:
        from repro.obs.timeseries import series_from_events

        try:
            series = series_from_events(events, args.window_ns)
        except Exception as e:
            print(f"report: cannot build series: {e}", file=sys.stderr)
            return 2
        out_text = None
        if args.timeseries:
            from repro.obs.export import series_digest, series_jsonl

            out_text = series_jsonl(series)
            print(f"series digest: {series_digest(series)}", file=sys.stderr)
        elif args.openmetrics:
            from repro.obs.export import registry_from_series, to_openmetrics

            out_text = to_openmetrics(registry_from_series(series))
        if out_text is not None:
            if args.out:
                with open(args.out, "w", encoding="utf-8") as f:
                    f.write(out_text)
                print(f"wrote {args.out} ({len(series)} windows)")
            else:
                sys.stdout.write(out_text)
        if args.slo:
            import json

            from repro.obs.slo import SloSpec, evaluate, render_verdict

            from repro.errors import ObsError

            if args.slo_spec:
                try:
                    with open(args.slo_spec, "r", encoding="utf-8") as f:
                        spec = SloSpec.from_dict(json.load(f))
                except (OSError, ValueError, TypeError, ObsError) as e:
                    print(
                        f"report: cannot load SLO spec {args.slo_spec}: {e}",
                        file=sys.stderr,
                    )
                    return 2
            else:
                spec = SloSpec(miss_rate=0.5, stall_fraction=0.95)
            verdict = evaluate(series, spec)
            print(render_verdict(verdict))
            print(f"verdict digest: {verdict.digest()}")
            return 0 if verdict.ok else 1
        return 0

    if args.flame:
        from repro.obs.analyze import analyze_events, collapsed_stacks

        stacks = collapsed_stacks(analyze_events(events))
        text = "\n".join(stacks) + ("\n" if stacks else "")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
            print(f"wrote {args.out} ({len(stacks)} stacks)")
        else:
            sys.stdout.write(text)
        return 0

    explicit = args.phases or args.sections or args.attribution or args.critical
    print(
        render_report(
            header,
            events,
            phases=not explicit or args.phases,
            sections=not explicit or args.sections,
            attribution=args.attribution,
            critical=args.critical,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
