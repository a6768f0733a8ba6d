"""Fold a cProfile run by ``repro`` package and hot module.

The traced run is never the run that yields ``wall_s``: cProfile charges
every Python call but nothing inside native code, which shifts the
proportions.  Self times rank layers; call counts are exact and repeat
run to run, so they are what a count-based claim may name.
"""

from __future__ import annotations

import cProfile
import pstats

PACKAGES = (
    "ir", "analysis", "transforms", "core", "runtime", "cache", "baselines",
    "prefetch", "memsim", "obs", "faults", "workloads",
)

HOT_MODULES = (
    "cache.manager", "cache.section", "cache.swap", "cache.hybrid",
    "cache.interface", "memsim.clock", "memsim.network", "runtime.codegen",
    "runtime.engine", "runtime.interpreter", "runtime.objects",
)

#: file name the codegen engine compiles generated program bodies under
CODEGEN_PREFIX = "<repro-codegen:"


def profiled(fn):
    """Run ``fn()`` under cProfile; returns ``(fn(), profile)``."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        out = fn()
    finally:
        profile.disable()
    return out, profile


def total_calls(profile: cProfile.Profile) -> int:
    return sum(row[1] for row in pstats.Stats(profile).stats.values())


def _layer_of(filename: str, package_root: str) -> tuple[str, str] | None:
    """``(package, module)`` of a frame's file, or None outside repro."""
    if filename.startswith(CODEGEN_PREFIX):
        return "runtime", "codegen"
    if not filename.startswith(package_root):
        return None
    parts = filename[len(package_root):].lstrip("/").split("/")
    if len(parts) < 2:
        return None  # repro/__init__.py, repro/errors.py
    return parts[0], parts[1].removesuffix(".py")


def fold(profile: cProfile.Profile, package_root: str, events: int) -> dict:
    """Per-layer metrics of one traced run (self times in raw seconds;
    the caller calibrates them).  ``package_root`` is the directory of
    the ``repro`` package."""
    self_s = {p: 0.0 for p in PACKAGES}
    calls = {p: 0 for p in PACKAGES}
    mod_self = {m: 0.0 for m in HOT_MODULES}
    mod_calls = {m: 0 for m in HOT_MODULES}
    builtin_s = other_s = 0.0
    calls_total = 0
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        ncalls, tottime = row[1], row[2]
        calls_total += ncalls
        if filename == "~":  # C functions and builtins
            builtin_s += tottime
            continue
        layer = _layer_of(filename, package_root)
        if layer is None or layer[0] not in self_s:
            other_s += tottime
            continue
        package, module = layer
        self_s[package] += tottime
        calls[package] += ncalls
        key = f"{package}.{module}"
        if key in mod_self:
            mod_self[key] += tottime
            mod_calls[key] += ncalls
    total_s = sum(self_s.values()) + builtin_s + other_s
    out: dict = {}
    for p in PACKAGES:
        out[f"{p}.self_s"] = self_s[p]
        out[f"{p}.calls"] = calls[p]
    for m in HOT_MODULES:
        out[f"{m}.self_s"] = mod_self[m]
        out[f"{m}.calls"] = mod_calls[m]
    out["py.calls_total"] = calls_total
    out["py.calls_per_event"] = calls_total / events if events else 0.0
    out["py.builtin_self_s"] = builtin_s
    out["py.other_self_s"] = other_s
    out["py.fold_coverage"] = (
        (total_s - other_s) / total_s if total_s else 0.0
    )
    return out
