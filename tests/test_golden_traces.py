"""Golden-trace regression tests.

One small ``array_sum`` run per memory system with its trace digest
committed.  Any change to event ordering, event payloads, the canonical
JSONL encoding, or the simulated systems' behavior will shift the digest
and fail here -- by design.  If a change is *intentional*, re-run the
failing test, inspect the diff in behavior, and update the constant.

AIFM runs at a larger local budget because its per-element remotable
metadata (16 B per 8 B element) is 2x the data footprint; at 0.5x it
deterministically fails allocation (the Fig. 18 effect, covered by the
sweep tests), which would leave almost nothing in the trace.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import BASELINE_SYSTEMS, ModuleMemo
from repro.core import MiraController, run_on_baseline, run_plan
from repro.memsim.cost_model import CostModel
from repro.obs import Tracer
from repro.workloads import make_workload

COST = CostModel()
NUM_ELEMS = 2048

#: system -> (sha256 digest of the canonical event lines, event count)
# re-pinned when attribution fields were added to existing events
# (sec.open overhead constants, swap.fault kern, evict wb/ov, async net
# issue, fault.inject timeout, prof.snapshot bd) and when ctrl.iter's
# iteration field was renamed k -> it (k collided with the reserved JSONL
# kind key and clobbered it on export); and when durations moved onto the
# 2**-10 ns time grid (timestamps and ns fields only, each within 1 ns);
# event counts unchanged throughout
GOLDEN = {
    "fastswap": (
        "aa024fa2b92c54f9208c6902740f3c97b691722741858e7801d202105c5ca743",
        2056,
    ),
    "leap": (
        "f2ef6074d183f42601a38d6e0e0534e3f7929ce06998ba9757fab6e10bdc4646",
        2057,
    ),
    "aifm": (
        "914ae633a348c37f5eb2a6787114a4f3010241f8f2fb9c2c917894fac395b6e1",
        5122,
    ),
    "mira": (
        "75dabacc56c6ac033202ddd7dede0ad399e1f9603ab70f9ef0bc17f172c3e61e",
        6204,
    ),
}


def _traced_run(system: str) -> Tracer:
    workload = make_workload("array_sum", num_elems=NUM_ELEMS)
    memo = ModuleMemo(workload)
    ratio = 2.5 if system == "aifm" else 0.5
    local = max(4096, int(memo.footprint_bytes * ratio))
    tracer = Tracer()
    if system == "mira":
        controller = MiraController(
            memo.fresh,
            COST,
            local,
            data_init=workload.data_init,
            entry=workload.entry,
            max_iterations=1,
            tracer=tracer,
        )
        program = controller.optimize()
        result = run_plan(
            program.module, COST, local, data_init=workload.data_init,
            entry=workload.entry, tracer=tracer,
        )
    else:
        result = run_on_baseline(
            memo.module,
            BASELINE_SYSTEMS[system](COST, local),
            workload.data_init,
            entry=workload.entry,
            tracer=tracer,
        )
    workload.verify_results(result.results)
    return tracer


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_golden_trace_digest(system, monkeypatch):
    # the CI prefetch matrix exports REPRO_PREFETCH; goldens pin the
    # *default* policy, so the knob must not leak in here
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)
    tracer = _traced_run(system)
    digest, events = GOLDEN[system]
    assert (tracer.digest(), len(tracer)) == (digest, events), (
        f"{system}: trace diverged from the committed golden digest; if the "
        f"behavior change is intentional, update GOLDEN with "
        f"({tracer.digest()!r}, {len(tracer)})"
    )


def test_golden_traces_cover_event_variety(monkeypatch):
    """Meta-check: the golden runs exercise a broad slice of the schema, so
    digest stability is a meaningful guarantee."""
    monkeypatch.delenv("REPRO_PREFETCH", raising=False)
    kinds = set()
    for system in GOLDEN:
        kinds.update(kind for kind, _t, _fields in _traced_run(system).events)
    expected = {
        "cache.hit", "cache.miss", "cache.evict", "swap.fault", "net.recv",
        "sec.open", "sec.assign", "obj.alloc", "prof.snapshot", "ctrl.iter",
    }
    missing = expected - kinds
    assert not missing, f"golden runs no longer emit: {sorted(missing)}"
