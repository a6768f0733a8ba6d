"""Measure whole benchmark suites and write their ``BENCH_<suite>.json``.

    python -m repro.bench                  # every suite, into the baseline dir
    python -m repro.bench trace chaos      # just these
    python -m repro.bench --out-dir D      # anywhere else (CI)

A suite is always measured whole, so a written file is always a complete
baseline.  Exit code 1 if any suite's summary lists violations.  See
:mod:`repro.bench.suites` for the registry and the file schema.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.bench.suites import SUITES, baseline_dir, measure, suite_name, write


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.bench", description=__doc__)
    ap.add_argument(
        "suites", nargs="*", type=suite_name, metavar="SUITE", help=", ".join(SUITES)
    )
    ap.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=None,
        help="directory to write into (default: where the committed files are)",
    )
    args = ap.parse_args(argv)
    out_dir = args.out_dir or baseline_dir()

    rc = 0
    for name in args.suites or SUITES:
        doc = measure(SUITES[name])
        for cell in doc["cells"]:
            status = f"failed: {cell['error']}" if cell.get("failed") else cell["gated"]
            print(f"{name}.{cell['key']}  {status}")
        print(json.dumps(doc["summary"], indent=2))
        print(f"wrote {write(doc, out_dir)} ({doc['wall_s']} s)\n")
        if doc["summary"].get("violations"):
            rc = 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
