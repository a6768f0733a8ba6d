"""Deterministic fault plans.

A :class:`FaultPlan` is a frozen, seeded description of everything that
can go wrong on the far-memory path during one run:

* **transient message loss** -- a network op's message vanishes; the
  sender detects it only after the per-op timeout;
* **timeout episodes** -- the op completes remotely but the completion is
  delayed past the timeout, which to the sender is indistinguishable
  from loss (both are detected-and-retried);
* **link-degradation windows** -- intervals of virtual time during which
  wire time and/or RTT are scaled up (congestion, failover to a slower
  path);
* **far-node slowdown windows** -- intervals during which the far node's
  CPU is further slowed (affects two-sided messages, RPCs, offloads).

Everything is derived from ``random.Random(seed)`` so a plan -- and every
run under it -- is exactly reproducible: the injector consumes the RNG
only inside shared :class:`~repro.memsim.network.Network` operations,
which both execution engines call in identical order, so engine parity
holds with faults enabled (``tests/test_engine_parity.py`` enforces it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.memsim.cost_model import CostModel, grid


@dataclass(frozen=True)
class LinkWindow:
    """A link-degradation episode: wire/RTT scaled while it is active."""

    start_ns: float
    end_ns: float
    #: wire-time multiplier (>= 1; 4.0 means a quarter of the bandwidth)
    bw_scale: float = 1.0
    #: round-trip-latency multiplier (>= 1)
    rtt_scale: float = 1.0

    def active(self, now: float) -> bool:
        return self.start_ns <= now < self.end_ns


@dataclass(frozen=True)
class FarWindow:
    """A far-node slowdown episode: remote CPU work scaled while active."""

    start_ns: float
    end_ns: float
    #: extra far-CPU slowdown multiplier (>= 1), on top of
    #: :attr:`CostModel.far_cpu_slowdown`
    slowdown: float = 1.0

    def active(self, now: float) -> bool:
        return self.start_ns <= now < self.end_ns


def _check_window(w, what: str) -> None:
    if w.end_ns <= w.start_ns:
        raise ConfigError(f"{what} window must have end_ns > start_ns: {w}")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, immutable fault schedule for one run.

    Probabilities apply per synchronous network operation (and once per
    async issue); window scales apply to whatever transfers overlap them
    in virtual time.  The reliability knobs (timeout, retry budget,
    backoff, breaker) describe how the *runtime* responds -- they live on
    the plan so a single object fully determines a chaos scenario.
    """

    seed: int = 0
    #: per-op probability that the message is lost outright
    loss_prob: float = 0.0
    #: per-op probability of a timeout episode (late completion)
    timeout_prob: float = 0.0
    link_windows: tuple[LinkWindow, ...] = ()
    far_windows: tuple[FarWindow, ...] = ()
    #: per-op detection timeout charged before a retry can start
    timeout_ns: float = CostModel.net_timeout_ns
    #: retries after the first attempt before the op gives up
    max_retries: int = 4
    #: first retry's backoff; grows by ``backoff_factor`` each attempt
    backoff_base_ns: float = CostModel.net_backoff_base_ns
    backoff_factor: float = 2.0
    #: consecutive failures that trip the circuit breaker open
    breaker_threshold: int = 8
    #: virtual ns the breaker stays open before a half-open probe
    breaker_cooldown_ns: float = 1_000_000.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigError(f"loss_prob must be in [0, 1): {self.loss_prob}")
        if not 0.0 <= self.timeout_prob < 1.0:
            raise ConfigError(f"timeout_prob must be in [0, 1): {self.timeout_prob}")
        if self.loss_prob + self.timeout_prob >= 1.0:
            raise ConfigError("loss_prob + timeout_prob must stay below 1")
        if self.timeout_ns <= 0:
            raise ConfigError("timeout_ns must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_ns < 0:
            raise ConfigError("backoff_base_ns must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_ns < 0:
            raise ConfigError("breaker_cooldown_ns must be >= 0")
        for w in self.link_windows:
            _check_window(w, "link")
            if w.bw_scale < 1.0 or w.rtt_scale < 1.0:
                raise ConfigError(f"link window scales must be >= 1: {w}")
        for w in self.far_windows:
            _check_window(w, "far")
            if w.slowdown < 1.0:
                raise ConfigError(f"far window slowdown must be >= 1: {w}")
        # the plan's own durations reach the clock: onto the time grid
        for name in ("timeout_ns", "backoff_base_ns", "breaker_cooldown_ns"):
            object.__setattr__(self, name, grid(getattr(self, name)))

    # -- derived -----------------------------------------------------------

    @property
    def fault_prob(self) -> float:
        return self.loss_prob + self.timeout_prob

    def backoff_ns(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based)."""
        return grid(self.backoff_base_ns * self.backoff_factor ** (attempt - 1))

    def with_overrides(self, **kwargs) -> "FaultPlan":
        return replace(self, **kwargs)

    # -- construction ------------------------------------------------------

    #: preset (loss_prob, timeout_prob, windows-per-kind) per intensity
    INTENSITIES = {
        "light": (0.01, 0.005, 1),
        "medium": (0.03, 0.015, 2),
        "heavy": (0.08, 0.04, 3),
    }

    @classmethod
    def generate(
        cls,
        seed: int,
        intensity: str = "light",
        horizon_ns: float = 1e9,
        **overrides,
    ) -> "FaultPlan":
        """A reproducible random plan: same seed, same plan, always.

        ``horizon_ns`` bounds where degradation windows land; runs shorter
        than the horizon simply see fewer windows.  Keyword overrides are
        applied on top of the generated fields.
        """
        try:
            loss, timeout, n_windows = cls.INTENSITIES[intensity]
        except KeyError:
            raise ConfigError(
                f"unknown intensity {intensity!r}; "
                f"choose from {sorted(cls.INTENSITIES)}"
            ) from None
        rng = random.Random(seed)
        link = []
        for _ in range(n_windows):
            start = rng.uniform(0.0, 0.7 * horizon_ns)
            dur = rng.uniform(0.05, 0.25) * horizon_ns
            link.append(
                LinkWindow(
                    start_ns=start,
                    end_ns=start + dur,
                    bw_scale=rng.uniform(2.0, 6.0),
                    rtt_scale=rng.uniform(1.0, 3.0),
                )
            )
        far = []
        for _ in range(n_windows):
            start = rng.uniform(0.0, 0.7 * horizon_ns)
            dur = rng.uniform(0.05, 0.25) * horizon_ns
            far.append(
                FarWindow(
                    start_ns=start,
                    end_ns=start + dur,
                    slowdown=rng.uniform(2.0, 8.0),
                )
            )
        fields = dict(
            seed=seed,
            loss_prob=loss,
            timeout_prob=timeout,
            link_windows=tuple(link),
            far_windows=tuple(far),
        )
        fields.update(overrides)
        return cls(**fields)
