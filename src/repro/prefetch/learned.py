"""Online-learned prefetch policy (integer feature-table perceptron).

Predicts the next page *delta* from the recent delta history using three
feature tables keyed by the last 1, 2, and 3 deltas (longer context ->
larger vote weight, a standard perceptron-style context mixture).  On
every observed transition the realised delta's weight is rewarded and,
if the tables would have predicted something else, the mispredicted
delta is penalised -- so the policy converges on streams with phase
changes (stride flips, alternating columns) faster than a pure counter.

Everything is integer arithmetic over insertion-ordered dicts with
explicit tie-breaks, so runs are bit-reproducible; ``seed`` is accepted
for interface symmetry but unused (no stochastic exploration).
"""

from __future__ import annotations

from repro.prefetch.policy import PrefetchPolicy

#: context lengths and their vote weights (longest context dominates)
CONTEXTS = ((3, 4), (2, 2), (1, 1))
#: prefetch chain length proposed per miss
WINDOW = 8
#: deltas remembered per context key
MAX_DELTAS = 6
#: per-order table capacity
MAX_KEYS = 1 << 14
#: reward / penalty magnitudes and weight clamp
REWARD = 2
PENALTY = 1
MAX_WEIGHT = 64


class LearnedPolicy(PrefetchPolicy):
    name = "learned"
    repeat_is_noop = True

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        #: order -> {delta-history tuple -> {delta -> weight}}
        self._tables: dict[int, dict[tuple, dict[int, int]]] = {
            order: {} for order, _ in CONTEXTS
        }
        self._hist: list[int] = []
        self._last: int | None = None

    # -- learning --------------------------------------------------------------

    def record(self, page: int) -> None:
        last = self._last
        if page == last:
            return
        self._last = page
        if last is None:
            return
        delta = page - last
        predicted = self._predict(self._hist)
        if predicted is not None and predicted != delta:
            self._bump(self._hist, predicted, -PENALTY)
        self._bump(self._hist, delta, REWARD)
        self._hist.append(delta)
        if len(self._hist) > 3:
            del self._hist[0]

    def _bump(self, hist: list[int], delta: int, amount: int) -> None:
        for order, _weight in CONTEXTS:
            if len(hist) < order:
                continue
            key = tuple(hist[-order:])
            table = self._tables[order]
            row = table.get(key)
            if row is None:
                if amount <= 0 or len(table) >= MAX_KEYS:
                    continue
                row = table[key] = {}
            w = row.get(delta, 0) + amount
            if w <= 0:
                row.pop(delta, None)
                continue
            row[delta] = min(w, MAX_WEIGHT)
            if len(row) > MAX_DELTAS:
                # evict the weakest delta; ties drop the widest jump
                victim = min(
                    row.items(), key=lambda kv: (kv[1], -abs(kv[0]), -kv[0])
                )[0]
                del row[victim]

    # -- prediction ------------------------------------------------------------

    def _predict(self, hist: list[int]) -> int | None:
        votes: dict[int, int] = {}
        for order, weight in CONTEXTS:
            if len(hist) < order:
                continue
            row = self._tables[order].get(tuple(hist[-order:]))
            if not row:
                continue
            for delta, w in row.items():
                votes[delta] = votes.get(delta, 0) + w * weight
        if not votes:
            return None
        # strongest vote; ties prefer the shortest forward jump
        delta, score = max(votes.items(), key=lambda kv: (kv[1], -abs(kv[0]), kv[0]))
        return delta if score > 0 and delta != 0 else None

    def _plan(self, page: int) -> list[int]:
        hist = list(self._hist)
        out: list[int] = []
        cur = page
        for _ in range(WINDOW):
            delta = self._predict(hist)
            if delta is None:
                break
            cur += delta
            out.append(cur)
            hist.append(delta)
            if len(hist) > 3:
                del hist[0]
        return out
