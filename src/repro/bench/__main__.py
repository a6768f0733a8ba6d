"""Measure whole benchmark suites and write their ``BENCH_<suite>.json``.

    python -m repro.bench                  # every suite, into the baseline dir
    python -m repro.bench trace chaos      # just these
    python -m repro.bench --out-dir D      # anywhere else (CI)

A suite is always measured whole, so a written file is always a complete
baseline; a suite that renders tables (``figures``) writes them beside it
under ``benchmarks/results/``.  Prints each suite's host seconds and its
five slowest cells.  Exit code 1 if any suite's summary lists violations.
See :mod:`repro.bench.suites` for the registry and the file schema.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.bench.suites import (
    SUITES,
    baseline_dir,
    measure,
    suite_name,
    write,
    write_tables,
)


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
        slowest = sorted(doc["cells"], key=lambda c: -c["wall_s"])[:5]
        print(
            f"{name}: {doc['wall_s']} s; slowest cells: "
            + ", ".join(f"{c['key']} {c['wall_s']} s" for c in slowest)
        )
        tables = write_tables(SUITES[name], doc, out_dir)
        if tables:
            print(f"wrote {len(tables)} tables under {tables[0].parent}")
        print(f"wrote {write(doc, out_dir)}\n")
        if doc["summary"].get("violations"):
            rc = 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
