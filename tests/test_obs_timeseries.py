"""Windowed telemetry collector: unit behavior plus the PR's acceptance
criteria -- telemetry disabled changes nothing (virtual time + golden
trace digests bit-identical), telemetry enabled keeps virtual time
bit-identical, and the exported series and SLO verdicts are
**byte-identical** across the reference and codegen engines on fastswap, full Mira, and hybrid runs -- including a faulted run whose
degradation windows are visible in the series."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import BASELINE_SYSTEMS, ModuleMemo
from repro.core import MiraController, run_on_baseline, run_plan
from repro.errors import ObsError
from repro.faults import FaultPlan
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel
from repro.obs import (
    SloSpec,
    TelemetryCollector,
    Tracer,
    evaluate,
    series_from_events,
)
from repro.obs.export import (
    read_series,
    series_digest,
    series_jsonl,
    write_series,
)
from repro.obs.timeseries import RECORD_FIELDS
from repro.workloads import make_workload

COST = CostModel()


# -- unit: clock tick hook -----------------------------------------------------


def test_clock_tick_hook_fires_at_boundaries():
    clk = VirtualClock()
    seen = []

    def tick(now):
        seen.append(now)
        return (len(seen) + 1) * 100.0

    clk.set_tick_hook(tick, 100.0)
    clk.advance(99.0)
    assert seen == []
    clk.advance(1.0)  # lands exactly on the boundary: >= fires
    assert seen == [100.0]
    clk.advance(250.0)  # one fold crossing several boundaries: one call
    assert seen == [100.0, 350.0]
    clk.set_tick_hook(None)
    clk.advance(10_000.0)
    assert len(seen) == 2


def test_clock_tick_hook_fires_on_charge_flush():
    clk = VirtualClock()
    seen = []
    clk.set_tick_hook(lambda now: seen.append(now) or float("inf"), 50.0)
    clk.charge(60.0)  # buffered: no fold yet
    assert seen == []
    assert clk.now == 60.0  # observable read folds -> tick fires
    assert seen == [60.0]


def test_clock_reset_disarms_hook():
    clk = VirtualClock()
    clk.set_tick_hook(lambda now: float("inf"), 10.0)
    clk.reset()
    clk.advance(1_000.0)  # must not call the (cleared) hook


def test_forked_clock_carries_no_hook_boundaries_surface_at_join():
    clk = VirtualClock()
    seen = []
    clk.set_tick_hook(lambda now: seen.append(now) or float("inf"), 100.0)
    child = clk.fork()
    child.advance(500.0)  # no hook on the child
    assert seen == []
    clk.join(child)
    assert seen == [500.0]


# -- unit: collector -----------------------------------------------------------


def test_collector_validation():
    with pytest.raises(ObsError, match="window must be positive"):
        TelemetryCollector(0.0)
    with pytest.raises(ObsError, match="window must be positive"):
        TelemetryCollector(-5.0)
    with pytest.raises(ObsError, match="at least one window"):
        TelemetryCollector(100.0, max_windows=0)
    with pytest.raises(ObsError, match="must be positive"):
        series_from_events([], 0.0)


def test_collector_is_single_use():
    workload = make_workload("array_sum", num_elems=256)
    memo = ModuleMemo(workload)
    system = BASELINE_SYSTEMS["fastswap"](COST, 1 << 20)
    tel = TelemetryCollector(1_000.0)
    tel.attach(system)
    with pytest.raises(ObsError, match="single-use"):
        tel.attach(system)
    tel.finish()
    with pytest.raises(ObsError, match="single-use"):
        tel.attach(system)


def _fastswap_series(window_ns=50_000.0, max_windows=4096, num_elems=2048):
    workload = make_workload("array_sum", num_elems=num_elems)
    memo = ModuleMemo(workload)
    local = max(4096, memo.footprint_bytes // 4)
    tel = TelemetryCollector(window_ns, max_windows=max_windows)
    result = run_on_baseline(
        memo.module,
        BASELINE_SYSTEMS["fastswap"](COST, local),
        workload.data_init,
        entry=workload.entry,
        telemetry=tel,
    )
    return tel, result


def test_collector_records_have_full_schema_and_exact_boundaries():
    tel, result = _fastswap_series()
    series = tel.windows()
    assert len(series) >= 2 and tel.dropped == 0
    keys = {name for name, _ in RECORD_FIELDS}
    for i, rec in enumerate(series):
        assert set(rec) == keys
        assert rec["w"] == i
        if not rec["partial"]:
            # the exact boundary, never the live clock value at detection
            assert rec["t"] == (rec["w"] + 1) * tel.window_ns
    assert series[-1]["partial"] is True
    assert series[-1]["t"] == result.elapsed_ns
    assert series[-1]["accesses"] == 2048


def test_collector_counters_are_monotone():
    tel, _ = _fastswap_series()
    series = tel.windows()
    monotone = [
        name for name, _ in RECORD_FIELDS
        if name not in ("w", "t", "partial") and not name.startswith("mw_")
    ]
    for a, b in zip(series, series[1:]):
        for key in monotone:
            assert b[key] >= a[key], key


def test_ring_buffer_drops_oldest_and_counts():
    tel, _ = _fastswap_series(window_ns=10_000.0, max_windows=3)
    assert len(tel.windows()) == 3
    assert tel.dropped > 0
    # survivors are the newest, contiguous windows
    ws = [r["w"] for r in tel.windows()]
    assert ws == list(range(ws[0], ws[0] + 3))
    assert ws[0] == tel.dropped


def test_retire_keeps_counters_monotone_across_section_close():
    """A planned Mira run closes its sections at the end; the retire hook
    must fold their stats into the totals instead of dropping them."""
    workload = make_workload("array_sum", num_elems=2048)
    memo = ModuleMemo(workload)
    local = max(4096, memo.footprint_bytes // 4)
    controller = MiraController(
        memo.fresh, COST, local, data_init=workload.data_init,
        entry=workload.entry, max_iterations=1,
    )
    program = controller.optimize()
    tel = TelemetryCollector(50_000.0)
    run_plan(
        program.module, COST, local, data_init=workload.data_init,
        entry=workload.entry, telemetry=tel,
    )
    series = tel.windows()
    assert series[-1]["accesses"] >= max(r["accesses"] for r in series)
    assert series[-1]["accesses"] >= 2048


def test_series_export_roundtrip_and_digest(tmp_path):
    tel, _ = _fastswap_series()
    series = tel.windows()
    path = tmp_path / "series.jsonl"
    write_series(path, series, meta={"note": "x"})
    header, back = read_series(path)
    assert back == series
    assert header["schema"] == "repro.obs.series/v1"
    assert header["windows"] == len(series)
    # digest covers records only: metadata cannot perturb it
    assert series_digest(back) == series_digest(series)
    assert json.loads(path.read_text().splitlines()[0])["note"] == "x"


def test_series_from_events_matches_live_totals():
    """Event-time binning is not byte-equal to the live series (documented),
    but the final cumulative totals must agree exactly."""
    workload = make_workload("array_sum", num_elems=2048)
    memo = ModuleMemo(workload)
    local = max(4096, memo.footprint_bytes // 4)

    tel = TelemetryCollector(50_000.0)
    run_on_baseline(
        memo.module, BASELINE_SYSTEMS["fastswap"](COST, local),
        workload.data_init, entry=workload.entry, telemetry=tel,
    )
    tracer = Tracer()
    run_on_baseline(
        memo.module, BASELINE_SYSTEMS["fastswap"](COST, local),
        workload.data_init, entry=workload.entry, tracer=tracer,
    )
    events = [json.loads(line) for line in tracer.lines()]
    derived = series_from_events(events, 50_000.0)
    live_last, derived_last = tel.windows()[-1], derived[-1]
    for key in ("accesses", "misses", "evictions", "writebacks",
                "net_bytes_read", "miss_wait_ns"):
        assert derived_last[key] == live_last[key], key


# -- acceptance: disabled telemetry changes nothing ----------------------------


def test_disabled_telemetry_is_invisible():
    workload = make_workload("array_sum", num_elems=2048)
    memo = ModuleMemo(workload)
    local = max(4096, memo.footprint_bytes // 4)

    def run(telemetry=None):
        tracer = Tracer()
        result = run_on_baseline(
            memo.module, BASELINE_SYSTEMS["fastswap"](COST, local),
            workload.data_init, entry=workload.entry, tracer=tracer,
            telemetry=telemetry,
        )
        return result.elapsed_ns, tracer.digest()

    base_ns, base_digest = run()
    tel_ns, tel_digest = run(TelemetryCollector(50_000.0))
    assert tel_ns == base_ns  # bit-identical virtual time
    assert tel_digest == base_digest  # golden-trace digest unchanged


# -- acceptance: byte-identical series + verdicts across engines ---------------

SPEC = SloSpec(name="parity", p95_ns=50_000.0, miss_rate=0.25,
               stall_fraction=0.5, error_budget=0.2)


def _series_bytes(mode: str) -> tuple[str, str]:
    """(series JSONL, SLO verdict digest) for one run under the current
    engine selection."""
    workload = make_workload("array_sum", num_elems=2048)
    memo = ModuleMemo(workload)
    local = max(4096, memo.footprint_bytes // 4)
    tel = TelemetryCollector(window_ns=50_000.0)
    if mode == "fastswap":
        run_on_baseline(
            memo.module, BASELINE_SYSTEMS["fastswap"](COST, local),
            workload.data_init, entry=workload.entry, telemetry=tel,
        )
    elif mode == "mira":
        run_plan(
            memo.module, COST, local, data_init=workload.data_init,
            entry=workload.entry, telemetry=tel,
        )
    else:
        run_plan(
            memo.module, COST, local, data_init=workload.data_init,
            entry=workload.entry, telemetry=tel, hybrid=True,
        )
    series = tel.windows()
    return series_jsonl(series), evaluate(series, SPEC).digest()


@pytest.mark.parametrize("mode", ["fastswap", "mira", "hybrid"])
def test_series_byte_identical_across_engines(mode, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    ref_series, ref_verdict = _series_bytes(mode)
    assert ref_series.count("\n") > 1, "series is empty"
    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    series, verdict = _series_bytes(mode)
    assert series == ref_series, f"{mode}: series diverge on codegen"
    assert verdict == ref_verdict, f"{mode}: verdicts diverge on codegen"


def _faulted_series() -> str:
    """A planned Mira run on an irregular workload under fault injection:
    sync demand misses trip the breaker, the manager degrades sections,
    and the degradation must be visible as a step in the series."""
    workload = make_workload("graph_traversal", num_edges=1500, num_nodes=500)
    memo = ModuleMemo(workload)
    local = max(4096, memo.footprint_bytes // 4)
    controller = MiraController(
        memo.fresh, COST, local, data_init=workload.data_init,
        entry=workload.entry, max_iterations=1,
    )
    program = controller.optimize()
    faults = FaultPlan(
        seed=0, loss_prob=0.3, timeout_prob=0.1,
        breaker_threshold=1, max_retries=2,
    )
    tel = TelemetryCollector(window_ns=300_000.0)
    run_plan(
        program.module, COST, local, data_init=workload.data_init,
        entry=workload.entry, telemetry=tel, faults=faults,
    )
    series = tel.windows()
    last = series[-1]
    assert last["retries"] > 0 and last["breaker_trips"] > 0
    # degradation windows appear: the cumulative counter steps mid-series
    assert last["degrades"] > 0
    assert any(r["degrades"] < last["degrades"] for r in series)
    return series_jsonl(series)


def test_faulted_series_byte_identical_across_engines(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    ref = _faulted_series()
    monkeypatch.setenv("REPRO_ENGINE", "codegen")
    assert _faulted_series() == ref, "faulted series diverge on codegen"
