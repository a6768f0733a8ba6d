"""Markov (history-table) prefetch policy.

A first-order transition table over the page-access stream: for each
page we keep the most frequent successor pages (capped, deterministic
eviction).  On a miss we walk the argmax chain from the faulting page to
build the prefetch window -- this captures repeated non-affine but
*stable* orders (pointer chases that revisit the same route, grouped
column scans) that defeat a single global stride.

Determinism: counts are plain ints; tables are insertion-ordered dicts;
argmax and eviction tie-break on (count, page number).
"""

from __future__ import annotations

from repro.prefetch.policy import PrefetchPolicy

#: prefetch chain length proposed per miss
WINDOW = 8
#: successors remembered per page
MAX_SUCCESSORS = 4
#: total pages tracked before the table stops growing
MAX_PAGES = 1 << 15


class MarkovPolicy(PrefetchPolicy):
    name = "markov"
    repeat_is_noop = True

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        #: page -> {successor page -> transition count}
        self._table: dict[int, dict[int, int]] = {}
        self._last: int | None = None

    def record(self, page: int) -> None:
        last = self._last
        if page == last:
            return
        self._last = page
        if last is None:
            return
        succ = self._table.get(last)
        if succ is None:
            if len(self._table) >= MAX_PAGES:
                return
            succ = self._table[last] = {}
        succ[page] = succ.get(page, 0) + 1
        if len(succ) > MAX_SUCCESSORS:
            # evict the weakest edge; ties drop the largest page number
            victim = min(succ.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            del succ[victim]

    def _plan(self, page: int) -> list[int]:
        out: list[int] = []
        seen = {page}
        cur = page
        table = self._table
        for _ in range(WINDOW):
            succ = table.get(cur)
            if not succ:
                break
            # strongest edge; ties prefer the smaller page number
            nxt = max(succ.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            if nxt in seen:
                break
            out.append(nxt)
            seen.add(nxt)
            cur = nxt
        return out
