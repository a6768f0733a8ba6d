"""Importing the package loads no numerical stack until a run calls it.

numpy and scipy cost most of a cold ``import repro``; only the section-size
ILP (scipy) and the IR workloads' data generators (numpy) use them, and
each imports its own on first call.  This runs in a clean interpreter so
nothing the rest of the suite imported can mask an eager import.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = textwrap.dedent(
    """
    import sys

    import repro
    import repro.obs.report
    import repro.workloads
    import repro.workloads.trace

    heavy = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
    assert not heavy, f"import loaded {heavy}"

    from repro.core.size_solver import SizeSample, solve_sizes
    from repro.core.size_solver import solve_sizes_bruteforce

    curves = {
        "a": [SizeSample(100, 100.0), SizeSample(300, 10.0)],
        "b": [SizeSample(100, 50.0), SizeSample(300, 40.0)],
    }
    got = solve_sizes(curves, budget_bytes=400)
    assert got == solve_sizes_bruteforce(curves, 400) == {"a": 300, "b": 100}
    assert "scipy" in sys.modules

    from repro.workloads import make_workload

    w = make_workload("graph_traversal", num_edges=64, num_nodes=16)
    assert w.name == "graph_traversal"
    assert "numpy" in sys.modules
    print("ok")
    """
)


def test_import_loads_no_numerical_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
