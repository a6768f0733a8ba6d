"""Leap's majority-trend stride prefetcher as a pluggable policy.

The algorithm (Al Maruf & Chowdhury, ATC'20) lived inside
``repro.baselines.leap`` until PR 7; it now lives here so all policies
share one package, and ``baselines.leap`` re-exports it for
compatibility.  The behaviour is byte-for-byte identical to the embedded
version: ``MajorityPolicy`` keeps ``traced = False`` so runs under the
default policy reproduce the committed golden trace digests.
"""

from __future__ import annotations

from collections import deque

from repro.prefetch.policy import PrefetchPolicy

#: page-access history length
HISTORY_LEN = 32
#: Boyer-Moore detection windows tried smallest-first (Leap grows the
#: window until a majority appears)
DETECT_WINDOWS = (8, 16, 32)
#: prefetch window bounds
MIN_PREFETCH = 1
MAX_PREFETCH = 32


class MajorityTrendPrefetcher:
    """Boyer-Moore majority-stride detector with an adaptive window."""

    def __init__(self) -> None:
        self._history: deque[int] = deque(maxlen=HISTORY_LEN)
        #: inter-access strides, maintained incrementally alongside the
        #: history (always == pairwise deltas of ``_history``); rebuilding
        #: both lists per fault dominated Leap's wall-clock cost
        self._deltas: deque[int] = deque(maxlen=HISTORY_LEN - 1)
        self._window = MIN_PREFETCH
        self._outstanding: set[int] = set()
        self._useful = 0
        self._issued = 0
        self._last_page: int | None = None

    def record(self, page: int) -> None:
        # Leap observes the fault/access stream at page granularity:
        # repeated accesses within one page are a single history event
        if page == self._last_page:
            return
        history = self._history
        if history:
            self._deltas.append(page - history[-1])
        self._last_page = page
        history.append(page)
        if page in self._outstanding:
            self._outstanding.discard(page)
            self._useful += 1

    def majority_stride(self) -> int | None:
        """The majority inter-access page stride, or None."""
        if not self._deltas:
            return None
        deltas = list(self._deltas)
        for w in DETECT_WINDOWS:
            window = deltas[-w:]
            if len(window) < 2:
                continue
            candidate = _boyer_moore(window)
            if candidate is None or candidate == 0:
                continue
            if window.count(candidate) * 2 > len(window):
                return candidate
        return None

    def plan(self, page: int) -> list[int]:
        """Pages to prefetch after a miss on ``page``."""
        self._adapt()
        stride = self.majority_stride()
        if stride is None:
            return []
        plan = [page + stride * i for i in range(1, self._window + 1)]
        self._outstanding.update(plan)
        self._issued += len(plan)
        return plan

    def _adapt(self) -> None:
        if self._issued == 0:
            return
        if self._useful * 2 >= self._issued:
            self._window = min(self._window * 2, MAX_PREFETCH)
        else:
            self._window = max(self._window // 2, MIN_PREFETCH)
        self._useful = 0
        self._issued = 0
        self._outstanding.clear()


def _boyer_moore(items: list[int]) -> int | None:
    """Boyer-Moore majority-vote candidate (unverified)."""
    count = 0
    candidate: int | None = None
    for x in items:
        if count == 0:
            candidate = x
            count = 1
        elif x == candidate:
            count += 1
        else:
            count -= 1
    return candidate


class MajorityPolicy(PrefetchPolicy):
    """Strategy wrapper over :class:`MajorityTrendPrefetcher`.

    ``traced`` stays False: this is the default/compat policy, and its
    runs must keep emitting exactly the pre-PR-7 event stream.
    """

    name = "leap"
    traced = False
    repeat_is_noop = True

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.prefetcher = MajorityTrendPrefetcher()

    def record(self, page: int) -> None:
        self.prefetcher.record(page)

    def _plan(self, page: int) -> list[int]:
        return self.prefetcher.plan(page)
