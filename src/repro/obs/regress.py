"""Perf-regression gate over the committed ``BENCH_<suite>.json`` baselines.

Generic over the suite registry and the one file schema of
:mod:`repro.bench.suites`: every gated number is deterministic virtual
time, so it must match its baseline within a tight relative tolerance
(default 1%).  Slower fails the gate; markedly faster is reported as an
improvement and a prompt to regenerate the baselines (the gate stays
green).  A current cell with no baseline entry fails, and so does a cell
that failed on one side and ran on the other; baseline cells the current
side did not measure are not compared.

Usage::

    python -m repro.obs.regress                    # re-measure each suite's live subset
    python -m repro.obs.regress trace chaos        # just these suites
    python -m repro.obs.regress --current DIR      # BENCH files `python -m repro.bench --out-dir DIR` wrote
    python -m repro.obs.regress --current cur.json # a flat file --save-current wrote
    python -m repro.obs.regress --save-current cur.json --json report.json

Exit codes: 0 = within tolerance, 1 = regression (or a violation in a
current summary), 2 = unreadable baseline/current file.  Also reachable
as ``python -m repro.obs.report --check``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from dataclasses import dataclass

from repro.bench import suites
from repro.bench.reporting import format_regression

#: default relative tolerance for deterministic virtual-time metrics
VIRT_REL_TOL = 0.01


@dataclass
class Check:
    """One metric comparison; ``None`` stands for a failed cell (or, on
    the baseline side, a missing one)."""

    metric: str
    baseline: float | None
    current: float | None
    rel: float  # (current - baseline) / baseline
    tol: float
    ok: bool
    note: str = ""

    def row(self) -> dict:
        return dict(vars(self))


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def flatten(doc: dict) -> dict[str, float | None]:
    """A BENCH document -> flat ``{suite.cell.metric: virtual ns}``; a
    failed cell is ``{suite.cell: None}`` (status gated, no number)."""
    out: dict[str, float | None] = {}
    for cell in doc["cells"]:
        name = f"{doc['suite']}.{cell['key']}"
        if cell.get("failed"):
            out[name] = None
        else:
            for metric, ns in cell["gated"].items():
                out[f"{name}.{metric}"] = float(ns)
    return out


def load(directory, names) -> list[dict]:
    """The ``BENCH_<suite>.json`` documents of ``names`` in ``directory``."""
    return [load_json(suites.bench_path(directory, name)) for name in names]


def measure(names) -> list[dict]:
    """Re-measure the live subset of each named suite, as documents."""
    return [
        suites.measure(suites.SUITES[name], suites.SUITES[name].live)
        for name in names
    ]


def _merge(docs: list[dict]) -> tuple[dict[str, float | None], list[str]]:
    """Documents -> (flat metrics, the violations their summaries list)."""
    flat: dict[str, float | None] = {}
    violations: list[str] = []
    for doc in docs:
        flat.update(flatten(doc))
        violations += doc["summary"].get("violations", [])
    return flat, violations


def compare(
    baseline: dict[str, float | None],
    current: dict[str, float | None],
    virt_tol: float = VIRT_REL_TOL,
) -> list[Check]:
    """One check per current entry; see the module docstring."""
    failed_before = [k for k, v in baseline.items() if v is None]
    checks: list[Check] = []
    for metric in sorted(current):
        cur = current[metric]
        if metric not in baseline:
            if cur is None:
                note = "cell failed; the baseline has no such failure"
            elif any(metric.startswith(f + ".") for f in failed_before):
                note = "cell ran; it failed in the baseline"
            else:
                note = "no baseline for this metric"
            checks.append(Check(metric, None, cur, 0.0, virt_tol, False, note))
            continue
        base = baseline[metric]
        if base is None or cur is None:
            checks.append(
                Check(metric, base, cur, 0.0, virt_tol, True, "failed on both sides")
            )
            continue
        # virtual time: lower is better, determinism expected
        rel = (cur - base) / base if base else float(cur != base)
        note = ""
        if rel > virt_tol:
            note = f"virtual time regressed {rel:+.1%}"
        elif rel < -virt_tol:
            note = f"improved {rel:+.1%}; regenerate the BENCH baselines"
        checks.append(Check(metric, base, cur, rel, virt_tol, rel <= virt_tol, note))
    return checks


def gate(checks: list[Check]) -> bool:
    """True iff no check failed."""
    return all(c.ok for c in checks)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.regress", description=__doc__
    )
    ap.add_argument(
        "suites",
        nargs="*",
        type=suites.suite_name,
        metavar="SUITE",
        help=", ".join(suites.SUITES),
    )
    ap.add_argument(
        "--baseline-dir",
        default=None,
        help="directory holding the BENCH_<suite>.json baselines "
        "(default: nearest one at or above the cwd)",
    )
    ap.add_argument(
        "--current",
        default=None,
        help="compare this instead of measuring: a directory of freshly "
        "written BENCH files, or a flat {metric: value} JSON",
    )
    ap.add_argument("--save-current", default=None, help="write the flat current metrics")
    ap.add_argument("--json", dest="json_out", default=None, help="write full report")
    ap.add_argument("--virt-tol", type=float, default=VIRT_REL_TOL)
    args = ap.parse_args(argv)
    names = args.suites or list(suites.SUITES)

    try:
        baseline, _ = _merge(load(args.baseline_dir or suites.baseline_dir(), names))
    except (OSError, ValueError, KeyError) as e:
        print(f"regress: cannot load baselines: {e!r}")
        return 2
    if args.current is None:
        current, violations = _merge(measure(names))
    else:
        try:
            if pathlib.Path(args.current).is_dir():
                current, violations = _merge(load(args.current, names))
            else:
                doc = load_json(args.current)
                current, violations = dict(doc.get("metrics", doc)), []
        except (OSError, ValueError, KeyError) as e:
            print(f"regress: cannot load --current: {e!r}")
            return 2
    if args.save_current:
        with open(args.save_current, "w", encoding="utf-8") as f:
            json.dump({"metrics": current}, f, indent=2, sort_keys=True)
            f.write("\n")

    checks = compare(baseline, current, virt_tol=args.virt_tol)
    ok = gate(checks) and not violations
    print(format_regression(checks))
    for v in violations:
        print(f"violation: {v}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "ok": ok,
                    "checks": [c.row() for c in checks],
                    "violations": violations,
                },
                f,
                indent=2,
                sort_keys=True,
            )
            f.write("\n")
    print("regress: OK" if ok else "regress: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
