"""The benchmark suite registry: every virtual-time baseline, declared once.

A :class:`Suite` is a name, the full list of cell keys, the subset the
regression gate re-measures live, one ``measure(key) -> record``, the
record fields that are gated virtual nanoseconds, an optional
``summary(records)`` for what a report carries beside its cells, and an
optional ``tables(document)`` for text tables rendered from them.
:func:`measure` is the one entry both ``python -m repro.bench`` (whole
suites, written to ``BENCH_<suite>.json``) and ``repro.obs.regress``
(live subsets, compared with those files) go through; it returns a
document in the one schema every BENCH file has::

    generated, host, wall_s   when / where / how long (never compared)
    suite, config             the suite's name and fixed parameters
    cells[]                   {key, gated: {metric: virtual ns}, wall_s, detail: record}
                              or {key, failed: true, error, wall_s, detail}
                              -- a failed cell gates its status, not a
                              number; a cell's wall_s is host seconds,
                              written for sizing and never compared
    summary                   suite-specific; a non-empty ``violations``
                              list fails the writer and the gate

Every cell is a deterministic single run under the virtual clock, which
is why these suites are not part of ``benchmarks/layers`` (host time,
subprocesses, repeats).  Adding a suite is one :class:`Suite` entry in
:data:`SUITES`.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import itertools
import json
import os
import pathlib
import platform
import time
from dataclasses import dataclass
from typing import Callable

from repro.bench import figures, hybrid, prefetch, tracebench
from repro.bench.harness import mira_point, native_time_ns, system_point
from repro.faults.chaos import (
    CHAOS_WORKLOADS,
    DEFAULT_MAX_SLOWDOWN,
    default_matrix,
    run_chaos_point,
)
from repro.memsim.cost_model import CostModel
from repro.workloads import make_graph_workload
from repro.workloads.trace.generators import SCENARIOS


@dataclass(frozen=True)
class Suite:
    name: str
    #: every cell of the suite, in report order
    keys: tuple[str, ...]
    #: the cells the gate re-measures when given no ``--current``
    live: tuple[str, ...]
    measure: Callable[[str], dict]
    #: record fields gated as virtual nanoseconds (lower is better); a
    #: suite whose cells differ in what they gate gives ``key -> fields``
    metrics: tuple[str, ...] | Callable[[str], tuple[str, ...]]
    config: Callable[[], dict]
    summary: Callable[[list[dict]], dict] | None = None
    #: ``document -> {file stem: text}``, written beside the BENCH file
    #: under ``benchmarks/results/``
    tables: Callable[[dict], dict[str, str]] | None = None

    def gated(self, key: str) -> tuple[str, ...]:
        return self.metrics(key) if callable(self.metrics) else self.metrics


def _cross(*axes) -> tuple[str, ...]:
    return tuple(".".join(parts) for parts in itertools.product(*axes))


# -- chaos: workload.system.s<seed>.<intensity> ------------------------------

_CHAOS_SYSTEMS = ("fastswap", "mira")
_CHAOS_SEEDS = ("s1", "s2")
_CHAOS_INTENSITIES = ("light", "medium")


def _chaos_cell(key: str) -> dict:
    workload, system, seed, intensity = key.split(".")
    (plan,) = default_matrix(seeds=(int(seed[1:]),), intensities=(intensity,))
    try:
        return run_chaos_point(workload, system, plan).row()
    except Exception as e:  # a crash is the worst violation, not a traceback
        return {"failed": True, "error": f"{key} crashed: {e!r}"}


def _chaos_summary(records: list[dict]) -> dict:
    ran = [r for r in records if not r.get("failed")]
    violations = [r["error"] for r in records if r.get("failed")]
    violations += [
        f"{r['workload']}/{r['system']}/seed={r['seed']}: slowdown "
        f"{r['slowdown']:.2f}x exceeds {DEFAULT_MAX_SLOWDOWN:.1f}x bound"
        for r in ran
        if r["slowdown"] > DEFAULT_MAX_SLOWDOWN
    ]
    return {
        "cells": len(records),
        "retries": sum(r["retries"] for r in ran),
        "degrades": sum(r["degrades"] for r in ran),
        "worst_slowdown": max((r["slowdown"] for r in ran), default=0.0),
        "violations": violations,
    }


# -- engine: the Fig. 5 single points (graph workload, ratio 0.2) ------------

_ENGINE_POINTS = ("native", "fastswap@0.2", "mira@0.2")


def _engine_cell(key: str) -> dict:
    cost = CostModel()
    wl = make_graph_workload()
    ns = native_ns = native_time_ns(wl, cost)
    if key == "fastswap@0.2":
        ns = system_point(wl, "fastswap", cost, 0.2, native_ns).elapsed_ns
    elif key == "mira@0.2":
        ns = mira_point(wl, cost, 0.2, native_ns)[0].elapsed_ns
    return {"point": key, "native_ns": native_ns, "virtual_ns": ns}


# -- the registry ------------------------------------------------------------

SUITES: dict[str, Suite] = {
    s.name: s
    for s in (
        Suite(
            "chaos",
            keys=_cross(
                sorted(CHAOS_WORKLOADS),
                _CHAOS_SYSTEMS,
                _CHAOS_SEEDS,
                _CHAOS_INTENSITIES,
            ),
            live=_cross(
                ("array_sum", "graph_traversal"),
                _CHAOS_SYSTEMS,
                ("s1",),
                ("medium",),
            ),
            measure=_chaos_cell,
            metrics=("healthy_ns", "faulty_ns"),
            config=lambda: {
                "workloads": CHAOS_WORKLOADS,
                "ratio": 0.25,
                "max_slowdown": DEFAULT_MAX_SLOWDOWN,
            },
            summary=_chaos_summary,
        ),
        Suite(
            "engine",
            keys=_ENGINE_POINTS,
            live=_ENGINE_POINTS,
            measure=_engine_cell,
            metrics=("virtual_ns",),
            config=lambda: {
                "workload": "fig05 graph traversal (6000 edges, 2000 nodes)"
            },
        ),
        Suite(
            "prefetch",
            keys=_cross(prefetch.WORKLOADS, prefetch.POLICIES),
            # the two workloads where the policy ranking is most
            # load-bearing (sequential + the oblivious headliner)
            live=_cross(("array_sum", "dataframe"), prefetch.POLICIES),
            measure=lambda key: prefetch.measure_cell(*key.split(".")),
            metrics=("stall_ns", "elapsed_ns"),
            config=prefetch.config,
            summary=prefetch.summary,
        ),
        Suite(
            "trace",
            keys=_cross(sorted(SCENARIOS), tracebench.SYSTEMS),
            # one skew-dominated and one structure-dominated scenario on a
            # swap baseline, its prefetching variant and the strongest
            # Mira geometry; hybrid on one steady promote and on the
            # mid-run phase-change switch
            live=_cross(("zipf_hot", "chase_small"), ("fastswap", "leap", "mira-set"))
            + _cross(("zipf_hot", "mixed_rw"), ("hybrid",)),
            measure=lambda key: tracebench.measure_cell(*key.split(".")),
            metrics=("elapsed_ns",),
            config=tracebench.config,
            summary=tracebench.summary,
        ),
        Suite(
            "hybrid",
            keys=_cross(prefetch.WORKLOADS, hybrid.SYSTEMS),
            live=(),
            measure=lambda key: hybrid.measure_cell(*key.split(".")),
            metrics=("elapsed_ns",),
            config=hybrid.config,
            summary=hybrid.summary,
        ),
        # the paper's section 6, one cell per table cell; live: one cheap
        # cell per figure
        Suite(
            "figures",
            keys=figures.KEYS,
            live=figures.LIVE,
            measure=figures.measure,
            metrics=figures.metrics,
            config=figures.config,
            summary=figures.summary,
            tables=figures.tables,
        ),
    )
}


def suite_name(name: str) -> str:
    """``argparse`` type of the SUITE positionals of the writer and the gate."""
    if name not in SUITES:
        raise argparse.ArgumentTypeError(
            f"unknown suite {name!r}; known: {', '.join(SUITES)}"
        )
    return name


# -- the one measure entry ---------------------------------------------------

#: environment knobs that change what a measurement runs (engine choice,
#: ambient prefetch policy); pinned off for the whole of :func:`measure`
#: so neither a written baseline nor a comparison against one is
#: contaminated by the caller's shell
_MEASURE_ENV = ("REPRO_ENGINE", "REPRO_PREFETCH")


@contextlib.contextmanager
def _pinned_env(*names: str):
    """Remove ``names`` from ``os.environ`` for the duration, restoring
    the exact prior values on exit -- including when the body raises, so
    a crashing measurement can never leak a mutated environment into the
    caller's process."""
    saved = {name: os.environ.pop(name, None) for name in names}
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def measure(suite: Suite, keys=None) -> dict:
    """Measure ``keys`` (default: the whole suite) into a BENCH document."""
    cells = []
    t0 = time.perf_counter()
    with _pinned_env(*_MEASURE_ENV):
        for key in suite.keys if keys is None else keys:
            t_cell = time.perf_counter()
            record = suite.measure(key)
            wall_s = round(time.perf_counter() - t_cell, 3)
            if record.get("failed"):
                cell = {"key": key, "failed": True, "error": record.get("error")}
            else:
                cell = {"key": key, "gated": {m: record[m] for m in suite.gated(key)}}
            cells.append({**cell, "wall_s": wall_s, "detail": record})
    records = [c["detail"] for c in cells]
    return {
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "wall_s": round(time.perf_counter() - t0, 3),
        "suite": suite.name,
        "config": suite.config(),
        "cells": cells,
        "summary": suite.summary(records) if suite.summary else {},
    }


# -- where BENCH files live --------------------------------------------------


def bench_path(directory, name: str) -> pathlib.Path:
    return pathlib.Path(directory) / f"BENCH_{name}.json"


def baseline_dir() -> pathlib.Path:
    """The nearest directory at or above the cwd that holds a BENCH file
    (CI and the docs run at the repo root), else the cwd."""
    here = pathlib.Path.cwd()
    for d in (here, *here.parents):
        if any(d.glob("BENCH_*.json")):
            return d
    return here


def write(doc: dict, directory) -> pathlib.Path:
    path = bench_path(directory, doc["suite"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def write_tables(suite: Suite, doc: dict, directory) -> list[pathlib.Path]:
    """Render ``suite``'s tables from ``doc`` into
    ``directory/benchmarks/results/`` (beside the committed BENCH files
    that is the repo's own ``benchmarks/results/``)."""
    out = pathlib.Path(directory) / "benchmarks" / "results"
    paths = []
    for stem, text in (suite.tables(doc) if suite.tables else {}).items():
        out.mkdir(parents=True, exist_ok=True)
        paths.append(out / f"{stem}.txt")
        paths[-1].write_text(text + "\n")
    return paths
