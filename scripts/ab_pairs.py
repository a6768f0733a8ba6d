#!/usr/bin/env python
"""Alternating parent/change pairs of the layered benchmark's command.

For each workload named, run ``BENCHMARK.json``'s command (``--trace 0``)
from a ``git worktree`` of the parent commit and from the working tree,
one after the other, ``--pairs`` times; the side that goes first
alternates from pair to pair, so drift in the host's speed lands on both
sides, and the workloads' pairs interleave (pair 1 of each, then pair 2
of each, ...), so it lands on every workload too::

    python scripts/ab_pairs.py ir_graph_mira --pairs 10 --seconds 15
    python scripts/ab_pairs.py trace_scan_leap ir_native --pairs 10

The parent is ``HEAD`` while tracked files differ from it (the change is
not committed yet), else ``HEAD~1``.  Printed: each pair's ``wall_s``,
each side's median and quartiles, how many pairs the change won (lower
``wall_s``), the medians of ``setup_s`` and ``peak_rss_mb``, and any
``virtual_ns``, ``norm_perf`` or ``sim_digest`` that differs between the
sides (each run of a seed must agree), per workload; then one summary
line per workload.  The worktree lives in a temporary directory
(``$TMPDIR``) and is removed at the end.

The directory a tree runs from biases ``wall_s``: identical code run
from two trees (an A/A run) has read up to ~3 % apart, steadily, so a
difference that small between the sides says nothing about the code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the metrics that must agree between the sides, not just be close
EXACT = ("virtual_ns", "norm_perf", "sim_digest")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def parent_rev() -> str:
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD" if dirty else "HEAD~1")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``tree``: its metrics and its digest."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(
        cmd, cwd=tree, check=True, capture_output=True, text=True
    ).stdout.splitlines()
    result = json.loads(out[-1])
    got = {name: m["value"] for name, m in result["metrics"].items()}
    got["failed"] = result["failed"]
    got["sim_digest"] = next(
        (line.split()[1] for line in out if line.startswith("sim_digest ")), None
    )
    return got


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def report(workload: str, runs: dict) -> str:
    """Print one workload's sides and drift; return its summary line."""
    print(f"== {workload}")
    med = {}
    for side, rs in runs.items():
        q1, med[side], q3 = quartiles([r["wall_s"] for r in rs])
        failed = sum(r["failed"] for r in rs)
        setup = statistics.median(r["setup_s"] for r in rs)
        rss = statistics.median(r["peak_rss_mb"] for r in rs)
        print(f"{side:6s} wall_s median {med[side]:.4f} [q1 {q1:.4f}, "
              f"q3 {q3:.4f}]; setup_s {setup:.4f}, peak_rss_mb {rss:.2f}; "
              f"failed {failed}")
    pairs = list(zip(runs["parent"], runs["change"]))
    wins = sum(c["wall_s"] < p["wall_s"] for p, c in pairs)
    differs = []
    for name in EXACT:
        seen = {side: sorted({str(r[name]) for r in rs}) for side, rs in runs.items()}
        if seen["parent"] != seen["change"]:
            differs.append(name)
            print(f"{name} differs: parent {seen['parent']} change {seen['change']}")
    exact = "differ: " + ", ".join(differs) if differs else "identical"
    return (f"{workload}: wall_s {med['parent']:.4f} -> {med['change']:.4f}, "
            f"{100 * (med['change'] / med['parent'] - 1):+.1f} % in the median, "
            f"{wins}/{len(pairs)} pairs won; virtual_ns, norm_perf and "
            f"sim_digest {exact}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args(argv)
    rev = parent_rev()
    print(f"parent {rev[:12]} vs the working tree, {' '.join(args.workloads)}, "
          f"seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        base = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(base), rev)
        trees = {"parent": base, "change": ROOT}
        try:
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for workload in args.workloads:
                    got = runs[workload]
                    for side in order:
                        got[side].append(
                            run_once(trees[side], workload, args.seed, args.seconds)
                        )
                    p, c = got["parent"][-1]["wall_s"], got["change"][-1]["wall_s"]
                    print(f"{workload} pair {i + 1:2d} ({order[0]} first): "
                          f"parent {p:.4f}  change {c:.4f}  "
                          f"{100 * (c / p - 1):+.1f} %", flush=True)
        finally:
            git("worktree", "remove", "--force", str(base))
    lines = [report(workload, got) for workload, got in runs.items()]
    print("== summary")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
