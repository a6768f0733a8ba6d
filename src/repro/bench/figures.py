"""The paper's evaluation (section 6, Figs. 5-25) as the ``figures`` suite.

A :class:`Figure` is one table of the evaluation: a grid of row and
column coordinates, ``run(col, row) -> record`` for one cell, the value
the table prints for a record, and the figure's shape checks.  One cell
is one deterministic run under the virtual clock; its record carries
``elapsed_ns`` (gated) plus whatever the printed value needs
(``native_ns`` for normalized performance, which is derived and never
gated: the gate reads every number as lower-is-better), and a figure
whose printed quantity is not derived from ``elapsed_ns`` names it as a
second gated metric (``Figure.second``).  A system that cannot run a
point (AIFM below full memory on MCF) is a ``failed`` cell.

``summary`` evaluates every figure's checks -- the paper's qualitative
results -- over whatever records it is given and lists the ones that do
not hold as named ``violations``; a check whose cells were not measured
(the gate's live subset) or did not run is skipped.  ``tables`` renders
``benchmarks/results/<file>.txt`` from a BENCH document.

Set-up shared between cells (built workloads, native runs, swap
profiles and the plans made from them) is memoised per process; a cell
never runs a memoised plan itself, only a private copy, because the
compile pipeline writes pass discoveries back into the plan it is given.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.analysis.offload import decide_offload
from repro.bench.harness import (
    ExperimentPoint,
    ModuleMemo,
    effective_ns,
    mira_point,
    native_time_ns,
    one_point,
)
from repro.bench.reporting import format_figure
from repro.cache.config import SectionConfig, Structure
from repro.core import (
    MiraController,
    MiraPlan,
    SectionPlan,
    compile_program,
    plan_sections,
    run_plan,
)
from repro.ir.dialects import scf
from repro.memsim.cost_model import CostModel
from repro.runtime.interpreter import RunResult
from repro.transforms import convert_to_remote
from repro.transforms.prefetch import prefetch_distance
from repro.workloads import WORKLOAD_FACTORIES, Workload

#: one cost model for the whole evaluation
COST = CostModel()

#: a workload is named by its registry name and factory arguments, so
#: the memos below can key on it
Spec = tuple[str, tuple[tuple[str, object], ...]]


def _spec(name: str, **params) -> Spec:
    return (name, tuple(sorted(params.items())))


GRAPH = _spec("graph_traversal")
GRAPH3 = _spec("graph_traversal", with_random_array=True)
ARRAY_SUM = _spec("array_sum")
DATAFRAME = _spec("dataframe")
AMM = _spec("dataframe_amm")
GPT2 = _spec("gpt2")
MCF = _spec("mcf")
MCF_CHASE = _spec("mcf", num_nodes=8192, num_arcs=8192, chases=192)
BY_NAME = {s[0]: s for s in (GRAPH, ARRAY_SUM, DATAFRAME, GPT2, MCF)}


def _gpt2_mt(threads: int) -> Spec:
    # the paper's CPU inference is strongly compute-bound relative to the
    # link; the scaling study uses the matching regime
    return _spec(
        "gpt2", layers=24, passes=2, compute_per_byte_ns=1.0, num_threads=threads
    )


def _filter_mt(threads: int) -> Spec:
    return _spec("dataframe_filter", num_threads=threads)


# -- shared set-up, memoised per process -------------------------------------


@functools.lru_cache(maxsize=None)
def _memo(spec: Spec) -> ModuleMemo:
    name, params = spec
    return ModuleMemo(WORKLOAD_FACTORIES[name](**dict(params)))


def _wl(spec: Spec) -> Workload:
    return _memo(spec).workload


@functools.lru_cache(maxsize=None)
def _native(spec: Spec, cost: CostModel) -> float:
    """Native all-local time (also validates the workload's results)."""
    return native_time_ns(_wl(spec), cost, memo=_memo(spec))


@functools.lru_cache(maxsize=None)
def _planned(spec: Spec, cost: CostModel, local: int) -> tuple[MiraPlan, float]:
    """Iteration 0 and 1 of the controller by hand: run everything in the
    swap section, instrumented, and plan sections from that profile.
    Returns the plan and the swap run's time."""
    wl, src = _wl(spec), _memo(spec).module
    compiled = compile_program(src, MiraPlan.swap_only(), cost, instrument=True)
    swap = run_plan(compiled, cost, local, wl.data_init)
    plan = plan_sections(src, cost, local, swap.profiler, fraction=0.1)
    return plan, effective_ns(swap)


def _local(spec: Spec, ratio: float) -> int:
    return int(_memo(spec).footprint_bytes * ratio)


def _run(spec: Spec, plan: MiraPlan, local: int, threads: int = 1) -> RunResult:
    """Compile a private copy of ``plan`` and run it (results verified)."""
    wl = _wl(spec)
    compiled = compile_program(_memo(spec).module, plan.without_options(), COST)
    result = run_plan(compiled, COST, local, wl.data_init, num_threads=threads)
    wl.verify_results(result.results)
    return result


def _record(native: Spec, ns: float, **more) -> dict:
    """A cell that ran in ``ns``, normalized over ``native``'s all-local run."""
    return {"elapsed_ns": ns, "native_ns": _native(native, COST), **more}


def _timed(native: Spec, result: RunResult, **more) -> dict:
    return _record(native, effective_ns(result), **more)


def _plan(spec: Spec, ratio: float) -> MiraPlan:
    return _planned(spec, COST, _local(spec, ratio))[0]


def _swap_only(spec: Spec, ratio: float) -> dict:
    return _record(spec, _planned(spec, COST, _local(spec, ratio))[1])


def _variant_run(spec: Spec, ratio: float, edit=None) -> RunResult:
    """Run the plan made at ``ratio``, through ``edit(plan)`` if given."""
    plan = _plan(spec, ratio)
    return _run(spec, edit(plan) if edit else plan, _local(spec, ratio))


def _variant(spec: Spec, ratio: float, edit=None) -> dict:
    return _timed(spec, _variant_run(spec, ratio, edit))


def _point(p: ExperimentPoint, native_ns: float) -> dict:
    if p.failed:
        return {"failed": True, "error": p.extra["error"]}
    return {"elapsed_ns": p.elapsed_ns, "native_ns": native_ns, **p.extra}


def _system(
    spec: Spec,
    system: str,
    ratio: float,
    threads: int = 1,
    native: Spec | None = None,
    cost: CostModel | None = None,
) -> dict:
    """One controller or baseline point, normalized over ``native`` (the
    workload itself unless a thread-scaling figure names its 1-thread
    twin)."""
    cost = cost or COST
    native_ns = _native(native or spec, cost)
    return _point(
        one_point(
            _wl(spec), system, cost, ratio, native_ns,
            num_threads=threads, memo=_memo(spec),
        ),
        native_ns,
    )


def _without(*dropped: str):
    return lambda plan: plan.without_options(*dropped)


def _section_of(plan: MiraPlan, obj: str) -> SectionPlan:
    return next(sp for sp in plan.sections if obj in sp.object_names)


def _swap_section(plan: MiraPlan, old: SectionPlan, new: SectionPlan) -> MiraPlan:
    return replace(plan, sections=[new if sp is old else sp for sp in plan.sections])


# -- printed values ----------------------------------------------------------


def _perf(r: dict) -> float:
    """Normalized performance: native time over system time."""
    return r["native_ns"] / r["elapsed_ns"]


def _slowdown(r: dict) -> float:
    return r["elapsed_ns"] / r["native_ns"]


def _overhead_ms(r: dict) -> float:
    return r["overhead_ns"] / 1e6


# -- shape checks ------------------------------------------------------------

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

Check = tuple[str, Callable[["_Cells"], bool]]


def _check(a: str, op: str, b: str | float, k: float = 1.0) -> Check:
    """The named check ``a op k * b``; ``a`` is a cell (its printed value)
    or ``cell:field`` (that field of its record), ``b`` likewise or a
    constant."""
    holds = _OPS[op]
    rhs = f"{k:g} x {b}" if k != 1.0 else f"{b}"
    return (
        f"{a} {op} {rhs}",
        lambda c: holds(c(a), k * (c(b) if isinstance(b, str) else b)),
    )


def _fails(a: str) -> Check:
    return (f"{a} cannot run", lambda c: c.failed(a))


def _runs(a: str) -> Check:
    return (f"{a} runs", lambda c: not c.failed(a))


class _Skip(LookupError):
    """A check needs a cell that was not measured or did not run."""


class _Cells:
    """What a figure's checks see: ``c("cell")`` is the cell's printed
    value, ``c("cell:field")`` a field of its record."""

    def __init__(self, fig: "Figure", by_key: dict[str, dict]) -> None:
        self.fig, self.by_key = fig, by_key

    def record(self, cell: str) -> dict:
        try:
            return self.by_key[f"{self.fig.name}.{cell}"]
        except KeyError:
            raise _Skip(cell) from None

    def failed(self, cell: str) -> bool:
        return bool(self.record(cell).get("failed"))

    def __call__(self, ref: str):
        cell, _, field = ref.partition(":")
        record = self.record(cell)
        if record.get("failed"):
            raise _Skip(cell)
        return record[field] if field else self.fig.value(record)


# -- the figure type ---------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    #: cell-key prefix
    name: str
    title: str
    #: header over the row labels
    corner: str
    rows: tuple
    cols: tuple[str, ...]
    #: one cell: ``run(col, row) -> record``
    run: Callable[[str, object], dict]
    checks: tuple[Check, ...]
    #: ``(col, row)`` of the cell the gate's live subset measures
    live: tuple[str, object]
    #: cell key below ``name``
    key: str = "{col}@{row}"
    #: what the table prints for a record, and how
    value: Callable[[dict], object] = _perf
    fmt: str = ".3f"
    #: a second gated metric: a printed quantity not derived from time
    second: str | None = None
    #: printed row/column labels where they differ from the coordinates
    #: (a float row prints as a percentage)
    labels: dict = field(default_factory=dict)
    #: lines under the table, from the records
    notes: Callable[["_Cells"], list[str]] | None = None
    #: ``benchmarks/results/<file>.txt`` (default: ``name``)
    file: str = ""

    def cell(self, col: str, row) -> str:
        return f"{self.name}.{self.key.format(col=col, row=row)}"

    def label(self, coord) -> str:
        label = self.labels.get(coord, coord)
        return f"{label:.0%}" if isinstance(label, float) else str(label)

    def render(self, by_key: dict[str, dict]) -> str:
        grid = [
            [
                "FAIL" if r.get("failed") else format(self.value(r), self.fmt)
                for r in (by_key[self.cell(col, row)] for col in self.cols)
            ]
            for row in self.rows
        ]
        return format_figure(
            self.title,
            self.corner,
            [self.label(c) for c in self.cols],
            [self.label(r) for r in self.rows],
            grid,
            self.notes(_Cells(self, by_key)) if self.notes else [],
        )


RATIOS5 = (0.2, 0.35, 0.5, 0.75, 1.0)
RATIOS3 = (0.2, 0.35, 0.5)
FIFTHS = (0.2, 0.4, 0.6, 0.8, 1.0)
SYSTEMS = ("fastswap", "leap", "aifm", "mira")
THREADS = (1, 2, 4, 8)


def _sweep(spec: Spec) -> Callable[[str, float], dict]:
    return lambda system, ratio: _system(spec, system, ratio)


def _each(items, make) -> tuple[Check, ...]:
    """``make(item)`` -> a check or a list of checks, flattened (a call
    per item, so a predicate written in ``make`` binds its own item)."""
    out: list[Check] = []
    for item in items:
        made = make(item)
        out += made if isinstance(made, list) else [made]
    return tuple(out)


# -- Figs. 6, 15, 21: technique stacks ---------------------------------------

_FIG06 = {
    "sections": {"convert"},
    "prefetch": {"convert", "prefetch"},
    "evict": {"convert", "prefetch", "evict"},
    "readwrite": {"convert", "prefetch", "evict", "readwrite"},
    "full": {"convert", "prefetch", "evict", "readwrite", "native", "batching"},
}


def _fig06(_, stack: str) -> dict:
    if stack == "swap":
        return _swap_only(GRAPH, 0.25)
    keep = _FIG06[stack]
    return _variant(GRAPH, 0.25, lambda p: p.without_options(*p.options - keep))


_FIG15 = {
    "sections": ("prefetch", "evict", "batching", "native"),
    "prefetch": ("evict", "batching", "native"),
    "evict": ("prefetch", "batching", "native"),
    "both": ("batching", "native"),
}


def _fig15(_, config: str) -> dict:
    if config == "leap":
        return _system(GRAPH, "leap", 0.25)
    return _variant(GRAPH, 0.25, _without(*_FIG15[config]))


_FIG21 = {
    "sections": ("prefetch", "evict", "batching", "readwrite", "native"),
    "prefetch_evict": ("batching", "readwrite", "native"),
    "full": (),
}


def _fig21(stack: str, workload: str) -> dict:
    spec = BY_NAME[workload]
    if stack == "swap":
        return _swap_only(spec, 0.3)
    return _variant(spec, 0.3, _without(*_FIG21[stack]))


# -- Figs. 7-11: the section studies on the graph example --------------------


def _joint(plan: MiraPlan) -> MiraPlan:
    """All planned objects in one undifferentiated section, without the
    per-pattern code optimizations.  Section separation is what lets Mira
    "customize cache configurations for one access pattern at a time and
    in turn optimize code for one cache configuration at a time" (section
    1), so the non-separated baseline loses both."""
    names = [n for sp in plan.sections for n in sp.object_names]
    total = sum(sp.config.size_bytes for sp in plan.sections)
    cfg = SectionConfig(
        "joint", total, 128, Structure.FULLY_ASSOCIATIVE,
        notes={"reason": "no separation (Fig. 7 baseline)"},
    )
    merged = replace(plan, sections=[SectionPlan(cfg, names)])
    return merged.without_options("prefetch", "evict", "batching", "native")


def _fig07(config: str, ratio: float) -> dict:
    if config == "aifm":
        return _system(GRAPH, "aifm", ratio)
    return _variant(GRAPH, ratio, _joint if config == "joint" else None)


def _fig08(config: str, ratio: float) -> dict:
    obj, how = config.split("_")
    result = _variant_run(GRAPH, ratio, _joint if how == "joint" else None)
    memsys = result.memsys
    obj_id = memsys.address_space.find_by_name(obj).obj_id
    return _timed(GRAPH, result, miss_rate=memsys.stats.object(obj_id).miss_rate)


def _section_study(spec: Spec, ratio: float, obj: str, edit) -> dict:
    """Run ``edit(plan, obj's section plan)`` and report that section's
    overhead."""
    sp = _section_of(_plan(spec, ratio), obj)
    result = _variant_run(spec, ratio, lambda plan: edit(plan, sp))
    stats = result.memsys.collect_section_stats()[sp.config.name]
    return _timed(
        spec, result, overhead_ns=stats["overhead_ns"] + stats["miss_wait_ns"]
    )


def _fig09(obj: str, line: int) -> dict:
    def with_line(plan: MiraPlan, sp: SectionPlan) -> MiraPlan:
        cfg = replace(
            sp.config,
            line_size=line,
            size_bytes=max(sp.config.size_bytes, line * 4),
            fetch_bytes=None,
        )
        return _swap_section(plan, sp, replace(sp, config=cfg))

    return _section_study(GRAPH, 0.35, obj, with_line)


_STRUCTURES = {
    "direct": (Structure.DIRECT, 1),
    "set-assoc": (Structure.SET_ASSOCIATIVE, 8),
    "full-assoc": (Structure.FULLY_ASSOCIATIVE, 1),
}


def _fig10(structure: str, ratio: float) -> dict:
    kind, ways = _STRUCTURES[structure]

    def restructured(plan: MiraPlan) -> MiraPlan:
        sp = _section_of(plan, "nodes")
        cfg = replace(sp.config, structure=kind, ways=ways)
        return _swap_section(plan, sp, replace(sp, config=cfg))

    return _variant(GRAPH, ratio, restructured)


def _fig11(obj: str, fraction: float) -> dict:
    def resized(plan: MiraPlan, target: SectionPlan) -> MiraPlan:
        cfg = target.config
        size = max(cfg.line_size * 2, int(cfg.size_bytes * fraction))
        # the other sections are parked at their minimum so the sampled
        # section's behaviour is isolated (how the controller samples too)
        return replace(
            plan,
            sections=[
                sp.with_size(size if sp is target else sp.config.line_size * 8)
                for sp in plan.sections
            ],
        )

    return _section_study(GRAPH3, 0.5, obj, resized)


# -- Fig. 12: the ILP's partition against enumerated ones --------------------


#: enumerated (node share, third share) partitions
_FIG12 = {
    "node20": (0.2, 0.8),
    "node40": (0.4, 0.6),
    "node60": (0.6, 0.4),
    "node80": (0.8, 0.2),
}


@functools.lru_cache(maxsize=None)
def _fig12_plan(cost: CostModel) -> MiraPlan:
    wl = _wl(GRAPH3)
    return MiraController(
        _memo(GRAPH3).fresh, cost, _local(GRAPH3, 0.5), data_init=wl.data_init,
        max_iterations=1, sample_sizes=True,
    ).optimize().plan


def _fig12(_, partition: str) -> dict:
    plan, local = _fig12_plan(COST), _local(GRAPH3, 0.5)
    if partition == "ilp":
        result = _run(GRAPH3, plan, local)
        return _timed(GRAPH3, result, ilp_sizes=plan.notes.get("ilp", {}))
    # the node and third sections split their pool; the edge section keeps
    # its small streaming size
    share = dict(zip(("nodes", "third"), _FIG12[partition]))
    pool = sum(_section_of(plan, obj).config.size_bytes for obj in share)
    sections = list(plan.sections)
    for obj, frac in share.items():
        sp = _section_of(plan, obj)
        sections[sections.index(sp)] = sp.with_size(
            max(sp.config.line_size, int(pool * frac))
        )
    return _timed(GRAPH3, _run(GRAPH3, replace(plan, sections=sections), local))


# -- Figs. 19, 20: full local memory -----------------------------------------


def _full_memory(system: str, workload: str) -> dict:
    spec = BY_NAME[workload]
    record = _system(spec, system, 1.0)
    return {**record, "footprint_bytes": _memo(spec).footprint_bytes}


# -- Fig. 22: offloading the pointer chase -----------------------------------


def _fig22(where: str, ratio: float) -> dict:
    if where == "offloaded":
        return _variant(
            MCF_CHASE, ratio, lambda p: replace(p, offload_functions=["chase_update"])
        )
    result = _variant_run(MCF_CHASE, ratio)
    # the analysis itself: is offloading predicted to pay?
    converted = _memo(MCF_CHASE).fresh()
    convert_to_remote(converted, _plan(MCF_CHASE, ratio).converted_sites)
    decision = decide_offload(
        converted.get("chase_update"), converted, COST, result.profiler,
        far_traffic_bytes=64.0,
    )
    return _timed(MCF_CHASE, result, decision=vars(decision))


# -- Fig. 23: batching -------------------------------------------------------


def _fig23(config: str, ratio: float) -> dict:
    if config in ("fastswap", "aifm"):
        return _system(AMM, config, ratio)
    return _variant(AMM, ratio, _without("batching") if config == "nobatch" else None)


# -- Figs. 24, 25: thread scaling --------------------------------------------


@functools.lru_cache(maxsize=None)
def _fig24_mira(cost: CostModel, threads: int) -> tuple[dict, MiraPlan]:
    """The controller's point at ``threads`` and the plan it chose (the
    unoptimized twin shares that plan's sections between the threads)."""
    spec, native_ns = _gpt2_mt(threads), _native(_gpt2_mt(1), cost)
    point, program = mira_point(
        _wl(spec), cost, 0.6, native_ns, num_threads=threads, memo=_memo(spec)
    )
    return _point(point, native_ns), program.plan


def _fig24(system: str, threads: int) -> dict:
    spec = _gpt2_mt(threads)
    if system == "fastswap":
        return _system(spec, system, 0.6, threads, native=_gpt2_mt(1))
    record, plan = _fig24_mira(COST, threads)
    if system == "mira":
        return record
    shared = replace(
        plan, sections=[replace(sp, per_thread=0) for sp in plan.sections]
    )
    return _timed(_gpt2_mt(1), _run(spec, shared, _local(spec, 0.6), threads))


def _fig25(system: str, threads: int) -> dict:
    return _system(_filter_mt(threads), system, 0.4, threads, native=_filter_mt(1))


# -- section 6.1 text: profiling overhead, scope reduction -------------------


def _profiling(_, workload: str) -> dict:
    spec = BY_NAME[workload]
    wl, src = _wl(spec), _memo(spec).module
    local = _memo(spec).footprint_bytes // 2
    plain, instrumented = (
        run_plan(
            compile_program(src, MiraPlan.swap_only(), COST, instrument=on),
            COST, local, wl.data_init,
        ).elapsed_ns
        for on in (False, True)
    )
    return {"elapsed_ns": instrumented, "plain_ns": plain}


def _scope(_, workload: str) -> dict:
    spec = BY_NAME[workload]
    wl = _wl(spec)
    t0 = time.perf_counter()
    program = MiraController(
        _memo(spec).fresh, COST, _memo(spec).footprint_bytes // 3,
        data_init=wl.data_init, max_iterations=1,
    ).optimize()
    return {
        "elapsed_ns": program.best_ns,
        "functions_analyzed": program.functions_analyzed,
        "functions_total": program.functions_total,
        "alloc_sites_selected": program.alloc_sites_selected,
        "alloc_sites_total": program.alloc_sites_total,
        # host seconds of profile + analysis + compile: never rendered,
        # never gated, only held under the two-minute bound
        "compile_wall_s": round(time.perf_counter() - t0, 2),
    }


def _scope_value(r: dict) -> str:
    return (
        f"{r['functions_analyzed']}/{r['functions_total']} functions, "
        f"{r['alloc_sites_selected']}/{r['alloc_sites_total']} sites"
    )


# -- beyond the paper: the same programs on a CXL-class link -----------------

_LINKS = {"rdma": CostModel.rdma, "cxl": CostModel.cxl}


def _cxl(system: str, link: str) -> dict:
    cost = _LINKS[link]()
    record = _system(GRAPH, system, 0.25, cost=cost)
    if system == "mira":
        loop = next(
            op for op in _memo(GRAPH).module.walk() if isinstance(op, scf.ForOp)
        )
        record["prefetch_distance"] = prefetch_distance(loop, cost)
    return record


# -- the 22 tables -----------------------------------------------------------

_APPS = ("array_sum", "graph_traversal", "dataframe", "mcf")

FIGURES: tuple[Figure, ...] = (
    Figure(
        "fig05", "Fig. 5: graph traversal, normalized performance",
        "local mem", RATIOS5, SYSTEMS, _sweep(GRAPH),
        checks=(
            # Mira dominates the swap systems at small memory...
            _check("mira@0.2", ">", "fastswap@0.2", 5),
            # ...everything but AIFM converges near native at full memory
            *_each(
                ("mira", "fastswap", "leap"), lambda s: _check(f"{s}@1.0", ">", 0.7)
            ),
            _check("aifm@1.0", "<", 0.5),
            # and Mira's curve is the flattest
            *_each(RATIOS5, lambda r: _check(f"mira@{r}", ">", 0.6)),
        ),
        live=("fastswap", 0.2),
    ),
    Figure(
        "fig06", "Fig. 6: Mira techniques on the graph example (25% local memory)",
        "configuration", ("swap", *_FIG06), ("normalized perf",), _fig06,
        checks=(
            # sections alone already beat swap; the full stack beats
            # sections alone and is (nearly) the best of all
            _check("sections", ">", "swap"),
            _check("full", ">", "sections"),
            *_each(
                ("swap", "sections", "prefetch", "evict", "readwrite"),
                lambda s: _check("full", ">=", s, 0.95),
            ),
        ),
        live=("normalized perf", "sections"),
        key="{row}", fmt=".4f",
        labels={
            "swap": "swap only", "sections": "+sections", "prefetch": "+prefetch",
            "evict": "+evict hints", "readwrite": "+read/write",
            "full": "full (+elision)",
        },
    ),
    Figure(
        "fig07", "Fig. 7: cache separation vs joint cache (graph traversal)",
        "local", RATIOS3, ("separated", "joint", "aifm"), _fig07,
        checks=(
            # separation never loses, and wins clearly at the smallest memory
            *_each(
                RATIOS3,
                lambda r: [
                    _check(f"separated@{r}", ">=", f"joint@{r}"),
                    _check(f"separated@{r}", ">", f"aifm@{r}"),
                ],
            ),
            _check("separated@0.2", ">", "joint@0.2", 1.1),
        ),
        live=("joint", 0.2),
    ),
    Figure(
        "fig08", "Fig. 8: per-array miss rates, joint vs separated",
        "local", RATIOS3,
        ("nodes_joint", "nodes_sep", "edges_joint", "edges_sep"), _fig08,
        checks=_each(
            RATIOS3,
            lambda r: [
                # separation reduces node misses substantially (paper: 44-78%)
                (
                    f"nodes_sep@{r} < 0.7 x nodes_joint@{r}",
                    lambda c: c(f"nodes_joint@{r}") <= 0.01
                    or c(f"nodes_sep@{r}") < 0.7 * c(f"nodes_joint@{r}"),
                ),
                # the edge stream stays cheap in both configurations (its
                # joint misses are the compulsory per-line ones)
                _check(f"edges_sep@{r}", "<=", f"edges_joint@{r}"),
                _check(f"edges_joint@{r}", "<", 0.1),
            ],
        ),
        live=("nodes_sep", 0.2),
        value=operator.itemgetter("miss_rate"), fmt=".4f", second="miss_rate",
        labels={
            "nodes_joint": "node joint", "nodes_sep": "node sep",
            "edges_joint": "edge joint", "edges_sep": "edge sep",
        },
    ),
    Figure(
        "fig09", "Fig. 9: cache overhead (ms) vs line size",
        "line B", (64, 128, 256, 512, 1024, 2048, 4096), ("nodes", "edges"), _fig09,
        checks=(
            # node section: small lines beat big lines (amplification hurts)
            _check("nodes@64", "<", "nodes@4096"),
            # edge section: the 2 KB line beats tiny lines (per-line costs
            # amortize)
            _check("edges@2048", "<", "edges@64"),
        ),
        live=("edges", 2048),
        value=_overhead_ms, second="overhead_ns",
        labels={"nodes": "node section", "edges": "edge section"},
    ),
    Figure(
        "fig10", "Fig. 10: node-section structure, normalized performance",
        "local", (0.15, 0.3, 0.6), tuple(_STRUCTURES), _fig10,
        checks=(
            # at small memory, associativity beats direct mapping (conflicts)
            (
                "max(set-assoc, full-assoc)@0.15 >= direct@0.15",
                lambda c: max(c("set-assoc@0.15"), c("full-assoc@0.15"))
                >= c("direct@0.15"),
            ),
            # at large memory, full associativity's lookup overhead is the
            # constant cost: set-assoc does not trail it
            _check("set-assoc@0.6", ">=", "full-assoc@0.6", 0.95),
        ),
        live=("set-assoc", 0.15),
    ),
    Figure(
        "fig11", "Fig. 11: section overhead (ms) vs sampled share of the planned size",
        "planned size", (0.1, 0.25, 0.5, 0.75, 1.0), ("edges", "nodes", "third"),
        _fig11,
        checks=(
            # the streaming section is already near-flat at small sizes
            (
                "edges@0.1 < 3 x edges@1.0 + 0.05 ms",
                lambda c: c("edges@0.1") < 3 * c("edges@1.0") + 0.05,
            ),
            # a non-streaming section improves substantially with size
            _check("nodes@1.0", "<", "nodes@0.1"),
        ),
        live=("nodes", 0.1),
        value=_overhead_ms, second="overhead_ns",
    ),
    Figure(
        "fig12", "Fig. 12: partitions of the node/third memory pool",
        "partition", (*_FIG12, "ilp"), ("normalized perf",), _fig12,
        # the ILP's partition is at least as good as the best enumerated
        # one (small tolerance: enumerations are coarse)
        checks=_each(_FIG12, lambda p: _check("ilp", ">=", p, 0.93)),
        live=("normalized perf", "node80"),
        key="{row}",
        labels={
            "node20": "node 20% / third 80%", "node40": "node 40% / third 60%",
            "node60": "node 60% / third 40%", "node80": "node 80% / third 20%",
            "ilp": "ILP-chosen",
        },
        notes=lambda c: [f"ILP-chosen sizes: {c('ilp:ilp_sizes')}"],
    ),
    Figure(
        "fig15", "Fig. 15: prefetch / eviction-hint ablation (25% local memory)",
        "configuration", (*_FIG15, "leap"), ("normalized perf",), _fig15,
        checks=(
            _check("prefetch", ">", "sections"),  # prefetch helps
            _check("both", ">=", "evict", 0.98),  # combined best-ish
            _check("both", ">", "leap", 2),  # Leap can't follow pointers
        ),
        live=("normalized perf", "leap"),
        key="{row}", fmt=".4f",
        labels={
            "sections": "sections only", "prefetch": "+prefetch",
            "evict": "+evict hints", "both": "+both", "leap": "Leap",
        },
    ),
    Figure(
        "fig16", "Fig. 16: DataFrame, normalized performance",
        "local mem", FIFTHS, SYSTEMS, _sweep(DATAFRAME),
        checks=(
            _check("mira@0.2", ">", "fastswap@0.2", 1.5),
            # AIFM is slow even at full local memory (dereference overhead)
            _check("aifm@1.0", "<", 0.5),
            *_each(FIFTHS, lambda r: _check(f"mira@{r}", ">", 0.5)),
        ),
        live=("fastswap", 0.2),
    ),
    Figure(
        "fig17", "Fig. 17: GPT-2 inference, normalized performance",
        "local mem", (0.045, 0.1, 0.2, 0.5, 1.0), ("fastswap", "leap", "mira"),
        _sweep(GPT2),
        checks=(
            # flat from 10% of local memory down (paper: flat at 4.5%)
            _check("mira@0.1", ">", 0.8),
            _check("mira@0.2", ">", 0.8),
            _check("mira@0.045", ">", 0.45),
            # swap systems collapse when memory shrinks
            _check("fastswap@0.1", "<", 0.4),
            _check("leap@0.1", "<", 0.4),
            # everything converges at full memory
            _check("fastswap@1.0", ">", 0.9),
            _check("mira@1.0", ">", 0.9),
        ),
        live=("fastswap", 0.1),
    ),
    Figure(
        "fig18", "Fig. 18: MCF, normalized performance",
        "local mem", (0.2, 0.4, 0.7, 1.0, 1.4, 1.8), SYSTEMS, _sweep(MCF),
        checks=(
            # Mira wins big at small memory
            _check("mira@0.2", ">", "fastswap@0.2", 3),
            # Mira ~ swap at full memory (rolls back to the swap
            # configuration or matches it)
            (
                "|mira@1.0 - fastswap@1.0| < 0.15",
                lambda c: abs(c("mira@1.0") - c("fastswap@1.0")) < 0.15,
            ),
            # AIFM fails below full memory...
            _fails("aifm@0.2"),
            _fails("aifm@0.4"),
            # ...and is orders of magnitude worse at/above full memory
            _runs("aifm@1.0"),
            _check("aifm@1.0", "<", 0.1),
            _runs("aifm@1.8"),
            _check("aifm@1.8", "<", 0.5),
        ),
        live=("fastswap", 0.2),
    ),
    Figure(
        "fig19", "Fig. 19: run-time overhead at 100% local memory (x over native)",
        "workload", _APPS, ("mira", "aifm"), _full_memory,
        checks=_each(
            _APPS,
            lambda w: [
                _check(f"mira.{w}", "<", 1.6),  # close to native at full memory
                _check(f"aifm.{w}", ">", f"mira.{w}"),  # AIFM's deref overhead
            ],
        ),
        live=("aifm", "graph_traversal"),
        key="{col}.{row}", value=_slowdown, fmt=".2f",
    ),
    Figure(
        "fig20", "Fig. 20: metadata bytes (per byte of data)",
        "workload", ("array_sum", "graph_traversal", "mcf"), ("mira", "aifm"),
        _full_memory,
        checks=(
            # no metadata at all for fully compiler-controlled lines
            ("mira.array_sum == 0", lambda c: c("mira.array_sum") == 0),
            # where AIFM keeps per-element remotable pointers (MCF's array
            # library), its metadata dwarfs Mira's per-line bookkeeping
            _runs("aifm.mcf"),
            _check("mira.mcf", "<", "aifm.mcf", 0.05),
            # Mira's metadata stays a small fraction of the data everywhere
            *_each(
                ("array_sum", "graph_traversal", "mcf"),
                lambda w: _check(f"mira.{w}", "<", 0.2),
            ),
        ),
        live=("aifm", "graph_traversal"),
        key="{col}.{row}",
        value=lambda r: r["metadata_bytes"] / r["footprint_bytes"],
        fmt=".4f", second="metadata_bytes",
        labels={"mira": "mira md/data", "aifm": "aifm md/data"},
    ),
    Figure(
        "fig21", "Fig. 21: technique deep dive at 30% local memory",
        "workload", ("dataframe", "gpt2", "mcf"), ("swap", *_FIG21), _fig21,
        checks=(
            *_each(
                ("dataframe", "gpt2", "mcf"),
                lambda w: _check(f"full.{w}", ">=", f"swap.{w}", 0.98),
            ),
            # the full stack gives a clear win for gpt2 and mcf at this ratio
            _check("full.gpt2", ">", "swap.gpt2", 2),
            _check("full.mcf", ">", "swap.mcf", 1.5),
        ),
        live=("sections", "mcf"),
        key="{col}.{row}",
        labels={"sections": "+sections", "prefetch_evict": "+prefetch/evict"},
    ),
    Figure(
        "fig22", "Fig. 22: offloading the pointer-chase function (MCF)",
        "local", (0.2, 0.4), ("local", "offloaded"), _fig22,
        checks=(
            # offloading the chase wins at small local memory
            _check("offloaded@0.2", ">", "local@0.2"),
            (
                "chase_update is an offload candidate",
                lambda c: c("local@0.2:decision")["candidate"],
            ),
        ),
        live=("offloaded", 0.4),
        labels={"local": "local exec"},
        notes=lambda c: [
            "analysis decision: {reason} -> offload={offload}".format(
                **c("local@0.2:decision")
            )
        ],
    ),
    Figure(
        "fig23", "Fig. 23: batching (avg/min/max over one vector)",
        "local", FIFTHS[:4], ("batch", "nobatch", "fastswap", "aifm"), _fig23,
        checks=(
            *_each(
                FIFTHS[:4],
                lambda r: [
                    _check(f"batch@{r}", ">=", f"nobatch@{r}", 0.98),  # never hurts
                    # AIFM cannot batch across operators
                    _check(f"batch@{r}", ">", f"aifm@{r}"),
                ],
            ),
            # batching helps somewhere in the sweep (in this cost model
            # element loops are DRAM-latency-bound, so the saved messages
            # show up as a small consistent gain rather than the paper's
            # larger one; see EXPERIMENTS.md)
            (
                "batch > 1.01 x nobatch at some ratio",
                lambda c: any(
                    c(f"batch@{r}") > 1.01 * c(f"nobatch@{r}") for r in FIFTHS[:4]
                ),
            ),
        ),
        live=("batch", 0.2),
        labels={"batch": "mira+batch", "nobatch": "mira-batch"},
    ),
    Figure(
        "fig24", "Fig. 24: GPT-2 multi-threaded scaling (perf vs 1-thread native)",
        "threads", THREADS, ("fastswap", "mira", "mira_unopt"), _fig24,
        checks=(
            # Mira scales with threads; FastSwap does not
            _check("mira.T4", ">", "mira.T1", 1.5),
            _check("fastswap.T4", "<", "fastswap.T1", 1.2),
            *_each(THREADS, lambda t: _check(f"mira.T{t}", ">", f"fastswap.T{t}")),
        ),
        live=("fastswap", 2),
        key="{col}.T{row}",
        labels={"mira_unopt": "mira-unopt"},
    ),
    Figure(
        "fig25", "Fig. 25: DataFrame filter multi-threaded scaling",
        "threads", THREADS, ("fastswap", "aifm", "mira"), _fig25,
        checks=(
            # everything scales here, but Mira scales best
            _check("mira.T8", ">", "fastswap.T8"),
            _check("mira.T8", ">", "aifm.T8"),
            _check("mira.T8", ">", "mira.T1", 2),
        ),
        live=("fastswap", 8),
        key="{col}.T{row}",
    ),
    Figure(
        "profiling", "Section 6.1: profiling overhead (instrumented vs plain)",
        "workload", ("graph_traversal", "dataframe", "mcf"), ("overhead",), _profiling,
        # sub-2%, the paper's class
        checks=_each(
            ("graph_traversal", "dataframe", "mcf"),
            lambda w: (f"-0.1% <= {w} < 2%", lambda c: -0.001 <= c(w) < 0.02),
        ),
        live=("overhead", "graph_traversal"),
        key="{row}",
        value=lambda r: (r["elapsed_ns"] - r["plain_ns"]) / r["plain_ns"],
        fmt=".4%", second="plain_ns",
        file="profiling_overhead",
    ),
    Figure(
        "scope", "Section 6.1: analysis-scope reduction",
        "workload", ("dataframe", "mcf"), ("analyzed/total",), _scope,
        checks=(
            *_each(
                ("dataframe", "mcf"),
                lambda w: [
                    _check(f"{w}:functions_analyzed", "<=", f"{w}:functions_total"),
                    _check(f"{w}:alloc_sites_selected", "<=", f"{w}:alloc_sites_total"),
                    # the profiling-guided pipeline runs in seconds, like
                    # the paper's
                    _check(f"{w}:compile_wall_s", "<", 120),
                ],
            ),
            # profiling narrowed the function scope below "all"
            _check("dataframe:functions_analyzed", "<", "dataframe:functions_total"),
        ),
        live=("analyzed/total", "dataframe"),
        key="{row}", value=_scope_value, fmt="",
        file="scope_reduction",
    ),
    Figure(
        "cxl", "Ablation: RDMA vs CXL far memory (graph traversal, 25% local)",
        "profile", tuple(_LINKS), ("fastswap", "mira"), _cxl,
        checks=(
            # everyone's penalty shrinks on faster memory
            _check("fastswap.cxl", ">", "fastswap.rdma"),
            # Mira still leads the swap baseline under CXL
            _check("mira.cxl", ">", "fastswap.cxl"),
            # and its prefetch lookahead adapts to the shorter round trip
            _check("mira.cxl:prefetch_distance", "<", "mira.rdma:prefetch_distance"),
        ),
        live=("mira", "cxl"),
        key="{col}.{row}",
        notes=lambda c: [
            "prefetch distance: "
            + ", ".join(f"{k} {c(f'mira.{k}:prefetch_distance')}" for k in _LINKS)
        ],
        file="cxl_ablation",
    ),
)

# -- what the registry entry in ``suites.py`` is made of ---------------------

_CELLS: dict[str, tuple[Figure, str, object]] = {
    fig.cell(col, row): (fig, col, row)
    for fig in FIGURES
    for row in fig.rows
    for col in fig.cols
}
KEYS = tuple(_CELLS)
LIVE = tuple(fig.cell(*fig.live) for fig in FIGURES)


def metrics(key: str) -> tuple[str, ...]:
    fig = _CELLS[key][0]
    return ("elapsed_ns", fig.second) if fig.second else ("elapsed_ns",)


def measure(key: str) -> dict:
    fig, col, row = _CELLS[key]
    try:
        record = fig.run(col, row)
    except Exception as e:  # one red cell and a violation, not a lost run
        record = {"failed": True, "crashed": True, "error": f"{key} crashed: {e!r}"}
    return {"cell": key, **record}


def config() -> dict:
    return {
        "cost_model": "CostModel() defaults; cxl.* cells: CostModel.rdma()/.cxl()"
    }


def summary(records: list[dict]) -> dict:
    by_key = {r["cell"]: r for r in records}
    violations = [r["error"] for r in records if r.get("crashed")]
    checked = 0
    for fig in FIGURES:
        cells = _Cells(fig, by_key)
        for name, holds in fig.checks:
            try:
                ok = holds(cells)
            except _Skip:
                continue
            checked += 1
            if not ok:
                violations.append(f"{fig.name}: {name}")
    return {
        "cells": len(records),
        "cannot_run": [
            r["cell"] for r in records if r.get("failed") and not r.get("crashed")
        ],
        "checks": checked,
        "violations": violations,
    }


def tables(doc: dict) -> dict[str, str]:
    """``{file stem: table text}`` for every figure ``doc`` holds whole."""
    by_key = {c["key"]: c["detail"] for c in doc["cells"]}
    return {
        fig.file or fig.name: fig.render(by_key)
        for fig in FIGURES
        if all(fig.cell(col, row) in by_key for row in fig.rows for col in fig.cols)
    }
