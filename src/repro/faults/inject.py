"""The fault injector: consumes a plan's RNG and tallies what happened.

One injector is created per run (``MemorySystem.enable_faults``) so the
RNG stream always starts from the plan's seed -- two runs of the same
program under the same plan draw identical fault sequences.  The injector
is consulted only from shared simulator code (:class:`Network`,
:class:`FarMemoryNode`), never from engine-specific paths, which is what
keeps the codegen engine and the reference interpreter byte-identical
under faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.plan import FaultPlan


@dataclass
class FaultStats:
    """What the injector and the reliability layer did during one run."""

    #: messages lost outright (detected via timeout)
    losses: int = 0
    #: timeout episodes (late completions, detected the same way)
    timeouts: int = 0
    #: retry attempts issued after a detected fault
    retries: int = 0
    #: ops that exhausted their retry budget (completion then forced)
    giveups: int = 0
    #: ops short-circuited while the breaker was open
    fast_fails: int = 0
    #: times the circuit breaker tripped open
    breaker_trips: int = 0
    #: graceful-degradation actions the cache manager applied
    degrades: int = 0
    #: virtual ns spent in retry backoff
    backoff_ns: float = 0.0
    #: virtual ns spent waiting out detection timeouts
    timeout_wait_ns: float = 0.0

    def publish(self, registry) -> None:
        """Publish into a :class:`repro.obs.MetricsRegistry`."""
        for fname, value in vars(self).items():
            registry.gauge(f"fault.{fname}").set(value)


class FaultInjector:
    """Seeded per-run fault source; all draws go through :meth:`roll`."""

    __slots__ = ("plan", "rng", "stats", "_loss_p", "_fault_p")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.stats = FaultStats()
        self._loss_p = plan.loss_prob
        self._fault_p = plan.loss_prob + plan.timeout_prob

    def roll(self) -> str | None:
        """One per-op draw: None (healthy), ``"loss"``, or ``"timeout"``.

        Plans without probabilistic faults consume no RNG, so a
        windows-only plan perturbs timing without touching the stream.
        """
        if self._fault_p <= 0.0:
            return None
        r = self.rng.random()
        if r >= self._fault_p:
            return None
        if r < self._loss_p:
            self.stats.losses += 1
            return "loss"
        self.stats.timeouts += 1
        return "timeout"

    def link_scales(self, now: float) -> tuple[float, float]:
        """(bw_scale, rtt_scale) product of link windows active at ``now``."""
        bw = rtt = 1.0
        for w in self.plan.link_windows:
            if w.start_ns <= now < w.end_ns:
                bw *= w.bw_scale
                rtt *= w.rtt_scale
        return bw, rtt

    def far_scale(self, now: float) -> float:
        """Far-CPU slowdown product of far windows active at ``now``."""
        scale = 1.0
        for w in self.plan.far_windows:
            if w.start_ns <= now < w.end_ns:
                scale *= w.slowdown
        return scale
