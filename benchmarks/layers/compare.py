"""Compare two result files of the layered benchmark.

``python -m benchmarks.layers.compare A.json B.json`` (files written by
``python -m benchmarks.layers --out``; A is the parent, B the change).
One row per end-to-end metric and workload with both medians and
quartiles, the change as a share of A's median, and a verdict by the
metric's bound in ``BENCHMARK.json``:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- B's median is better by more than A's own
  inter-quartile spread;
* ``unchanged``  -- neither;
* ``unresolved`` -- A's own inter-quartile spread exceeds the bound, so
  the runs cannot tell (unless every run of one side beats every run of
  the other).

Then the exact part: simulated statistics, ``sim_digest`` and call
counts must be identical between two runs of the same seed unless the
change is to the modelled design.  Exit code 1 on any ``regressed`` row
or a larger ``failed_frac``.
"""

from __future__ import annotations

import json
import sys

from .run import load_spec


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    lower = better == "lower"
    worse = (b["median"] - a["median"]) / a["median"] * (1 if lower else -1)
    spread = (a["q3"] - a["q1"]) / a["median"]
    if spread > bound:
        b_wins = b["max"] < a["min"] if lower else b["min"] > a["max"]
        a_wins = a["max"] < b["min"] if lower else a["min"] > b["max"]
        if b_wins:
            return "improved"
        if a_wins and worse > bound:
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < 0 and -worse > spread:
        return "improved"
    return "unchanged"


def _cell(s: dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"


def compare_end_to_end(a: dict, b: dict, spec: dict) -> int:
    """Prints the rows; returns the number of regressions."""
    bad = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:g} of A's median)")
        for workload in (w["name"] for w in spec["workloads"]):
            try:
                sa = a["workloads"][workload]["end_to_end"]["metrics"][name]
                sb = b["workloads"][workload]["end_to_end"]["metrics"][name]
            except KeyError:
                print(f"  {workload:<22} missing on one side")
                continue
            change = (sb["median"] - sa["median"]) / sa["median"]
            v = verdict(sa, sb, metric["better"], metric["bound"])
            bad += v == "regressed"
            print(f"  {workload:<22} A {_cell(sa):<44} B {_cell(sb):<44} "
                  f"{change:+.2%} of {sa['median']:.6g}  {v}")
    print("\nfailed_frac (ratio, lower is better, no worsening allowed)")
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            ea = a["workloads"][workload]["end_to_end"]
            eb = b["workloads"][workload]["end_to_end"]
        except KeyError:
            continue
        fa = ea["failed"] / ea["attempted"]
        fb = eb["failed"] / eb["attempted"]
        v = "regressed" if fb > fa else "unchanged"
        bad += fb > fa
        print(f"  {workload:<22} A {ea['failed']}/{ea['attempted']} = {fa:g}   "
              f"B {eb['failed']}/{eb['attempted']} = {fb:g}  {v}")
    return bad


def compare_exact(a: dict, b: dict) -> None:
    """Simulated statistics and call counts, which repeat exactly."""
    print("\nexact (simulated statistics, sim_digest, call counts)")
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print("  seeds or sizes differ: nothing to compare exactly")
        return
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        differs = []
        ea, eb = wa.get("end_to_end"), wb.get("end_to_end")
        if ea and eb:
            if ea["sim_digest"] != eb["sim_digest"]:
                differs.append(("sim_digest", ea["sim_digest"][:12], eb["sim_digest"][:12]))
            for key in sorted(set(ea["sim"]) | set(eb["sim"])):
                if ea["sim"].get(key) != eb["sim"].get(key):
                    differs.append((key, ea["sim"].get(key), eb["sim"].get(key)))
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb:
            for key in sorted(set(la["metrics"]) | set(lb["metrics"])):
                exact = key.endswith(".calls") or key in (
                    "py.calls_total", "obs.trace_events", "obs.telemetry_added_calls"
                )
                if exact and la["metrics"].get(key) != lb["metrics"].get(key):
                    differs.append((key, la["metrics"].get(key), lb["metrics"].get(key)))
        if not differs:
            print(f"  {workload:<22} identical")
        for key, va, vb in differs:
            print(f"  {workload:<22} sim_changed {key}: A {va!r}  B {vb!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    bad = compare_end_to_end(a, b, load_spec())
    compare_exact(a, b)
    print(f"\n{bad} regressed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
