"""Calibrated host time, spans, and the summary statistic.

Raw wall time on a small shared host drifts by 10 % and more between
runs of the same code.  Every timed segment is therefore bracketed by
samples of a fixed pure-Python kernel and reported in *calibrated seconds*::

    s = raw_s * CALIB_REF_S / mean(calib_before, calib_after)

i.e. "seconds at reference host speed".  Raw seconds and the calibration
samples are kept beside every calibrated value.  This module never
imports ``repro``: the kernel must not speed up with the simulator.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

#: what one calibration sample costs on the reference host; only fixes
#: the scale of "calibrated seconds"
CALIB_REF_S = 0.030

def kernel() -> None:
    """~10 ms of dict traffic plus float adds: the mix the simulator's hot
    loops are made of, so host slowdowns hit both alike."""
    d: dict[int, int] = {}
    x = 0.0
    for i in range(100_000):
        k = i & 1023
        d[k] = d.get(k, 0) + 1
        x += i * 0.5


def calib() -> float:
    """One calibration sample (~30 ms): the kernel runs three times and
    the fastest run counts three times.  A burst on the host that lands
    on one 10 ms run says nothing about the second-long segment beside
    it; a sustained slowdown shows in all three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return 3.0 * best


def calibrated(raw_s: float, calib_s: float) -> float:
    return raw_s * CALIB_REF_S / calib_s


class HostTimer:
    """Times segments in calibrated seconds and records them as spans.

    A span is ``{name, start, end, parent, repeat}`` with times relative
    to ``origin`` and ``parent`` the index of the enclosing span; they
    stay in memory until the result is written.
    """

    def __init__(self, origin: float | None = None) -> None:
        self.origin = time.perf_counter() if origin is None else origin
        self.spans: list[dict] = []
        self.calib_samples: list[float] = []
        self.repeat: int | str | None = None
        #: while set, `measure` takes no new sample (a traced region must
        #: not run the kernel under the profiler)
        self.frozen = False
        self._stack: list[int] = []
        self._last = 0.0

    def sample(self) -> float:
        """Run the calibration kernel once; the result brackets the
        segments on either side of it."""
        self._last = calib()
        self.calib_samples.append(self._last)
        return self._last

    @contextmanager
    def span(self, name: str):
        row = {
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "repeat": self.repeat,
        }
        self.spans.append(row)
        self._stack.append(len(self.spans) - 1)
        try:
            yield row
        finally:
            row["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def measure(self, name: str, fn):
        """Run ``fn()`` as one calibrated segment.

        The sample taken before is the previous segment's closing sample
        (call :meth:`sample` first after any untimed gap); a fresh one is
        taken after.  Returns ``(fn(), segment)``.
        """
        before = self._last
        with self.span(name) as row:
            out = fn()
        raw = row["end"] - row["start"]
        calib = (before + (self._last if self.frozen else self.sample())) / 2.0
        return out, {
            "name": name,
            "raw_s": raw,
            "calib_s": calib,
            "s": calibrated(raw, calib),
        }


def summary(values: list[float]) -> dict:
    """Median with quartiles, range and count (quartiles as
    ``statistics.quantiles(n=4)`` gives them; a single sample is its own
    quartiles)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }
