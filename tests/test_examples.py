"""Smoke tests: every example script runs end-to-end (on reduced inputs
where the script allows it)."""

import subprocess
import sys
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str, timeout: int = 600) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_show_ir_prints_all_three_stages():
    out = _run("show_ir.py")
    assert "remotable.alloc" in out
    assert "rmem.prefetch" in out
    assert "prefetch_stage" in out


def test_quickstart_runs():
    out = _run("quickstart.py", "0.3")
    assert "mira" in out
    assert "section" in out


@pytest.mark.slow
def test_data_analytics_runs():
    out = _run("data_analytics.py", "0.125")
    assert "batching" in out


@pytest.mark.slow
def test_pointer_chasing_runs():
    out = _run("pointer_chasing.py", "0.125")
    assert "offloaded" in out


@pytest.mark.slow
def test_ml_inference_runs():
    out = _run("ml_inference.py", "0.125")
    assert "multi-threaded" in out
