"""The compile pipeline: plan -> compiled module (sections 4.4-4.5).

Pass order matters: conversion first (later passes only optimize remote
accesses), fusion before prefetch insertion (so fused loops get one
batched prefetch), elision last (it requires prefetch marks).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.plan import MiraPlan
from repro.ir.core import Module
from repro.ir.dialects import memref, remotable
from repro.memsim.cost_model import CostModel
from repro.transforms import (
    apply_offload,
    apply_readwrite_optimization,
    combine_prefetches,
    convert_to_remote,
    elide_dereferences,
    fuse_adjacent_loops,
    insert_eviction_hints,
    insert_prefetches,
    instrument_profiling,
)

ALL_OPTIONS = frozenset(
    {"convert", "batching", "prefetch", "evict", "readwrite", "native", "offload"}
)


def compile_program(
    module: Module,
    plan: MiraPlan,
    cost: CostModel,
    instrument: bool = False,
) -> Module:
    """Clone and compile ``module`` according to ``plan``."""
    m = module.clone()
    opts = plan.options
    if "convert" in opts and plan.converted_sites:
        convert_to_remote(m, plan.converted_sites)
    if "batching" in opts:
        fuse_adjacent_loops(m)
    if "evict" in opts:
        # hints first: the prefetch pass then lands between a range's
        # death hint and the next range's access
        insert_eviction_hints(m)
    if "prefetch" in opts:
        insert_prefetches(m, cost)
    if "batching" in opts:
        combine_prefetches(m)
    rw_flags: dict[str, dict] = {}
    if "readwrite" in opts:
        rw_flags = apply_readwrite_optimization(m)
    elided: list[str] = []
    if "native" in opts:
        elided = elide_dereferences(m)
    if "offload" in opts and plan.offload_functions:
        apply_offload(m, cost, functions=plan.offload_functions)
    instrument_profiling(m, instrument)
    _finalize_section_configs(plan, rw_flags, elided)
    m.attrs["plan"] = plan
    return m


def _finalize_section_configs(
    plan: MiraPlan, rw_flags: dict[str, dict], elided: list[str]
) -> None:
    """Copy per-site pass discoveries into the section configs."""
    elided_set = set(elided)
    for i, sp in enumerate(plan.sections):
        cfg = sp.config
        if any(name in elided_set for name in sp.object_names):
            cfg = replace(cfg, metadata_free=True)
        if any(
            rw_flags.get(name, {}).get("write_no_fetch") for name in sp.object_names
        ):
            cfg = replace(cfg, write_no_fetch=True)
        sp.config = cfg


def footprint_bytes(module: Module) -> int:
    """Total bytes the program allocates (static alloc sites)."""
    total = 0
    for op in module.walk():
        if isinstance(op, (memref.AllocOp, remotable.RAllocOp)):
            total += op.num_elems * op.result.type.elem.byte_size
    return total
