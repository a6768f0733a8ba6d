"""Leap baseline (Al Maruf & Chowdhury, ATC'20).

Leap augments the Linux swap path with *majority-trend* prefetching: it
keeps a window of recent page accesses, finds the majority stride with a
Boyer-Moore vote (growing the detection window until a majority emerges),
and prefetches along that stride with a prefetch window that expands on
useful prefetches and shrinks on useless ones.

Two properties the paper leans on (sections 4.5, 6.1):

* Leap captures the process's *global majority* pattern, so an interleaved
  pattern (sequential edges + random nodes) defeats it -- the random
  accesses dilute the majority, or the sequential majority prefetches
  pages the random accesses never use.
* Leap's fault datapath is less optimized than FastSwap's, so it loses to
  FastSwap when its prefetches do not help.

The prefetcher itself is a pluggable policy (:mod:`repro.prefetch`);
``Leap`` is :class:`FastSwap` -- the cache manager with no sections --
plus Leap's fault path plus whichever policy ``$REPRO_PREFETCH`` selects
(default: the classic majority-trend detector,
:mod:`repro.prefetch.majority`).
"""

from __future__ import annotations

import os

from repro.baselines.fastswap import FastSwap
from repro.prefetch.policy import POLICY_ENV


class Leap(FastSwap):
    """FastSwap with Leap's fault path and a prefetch policy."""

    name = "leap"

    def __init__(
        self, cost, local_mem_bytes, clock=None, num_threads=1, policy=None
    ) -> None:
        if policy is None:
            policy = os.environ.get(POLICY_ENV, "leap")
        super().__init__(cost, local_mem_bytes, clock, num_threads, policy=policy)

    def _extra_fault_ns(self) -> float:
        return self.cost.leap_extra_fault_ns
