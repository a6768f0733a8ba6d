"""Seeded synthetic address-stream generators.

Every generator is a lazy iterator of ``(addr, is_write)`` tuples --
virtual byte addresses in a scenario-private address range -- produced
from a ``random.Random(seed)`` stream, so the same ``(kind, params,
seed)`` always yields the same ops on every platform (CPython's Mersenne
Twister is specified and stable).  Ops stream: a million-event scenario
never materializes a million-tuple list here.

The four kinds mirror the access regimes the paper's workloads span:

* ``zipf`` -- skewed page popularity (hot working set), the cache-friendly
  regime; ``alpha`` steers the skew, low alpha approaches uniform.
* ``sequential`` -- strided scan with wraparound, the prefetch-friendly
  regime.
* ``pointer_chase`` -- a seeded single-cycle permutation over pages, the
  prefetch-hostile regime (every hop is an unpredictable page).
* ``mixed`` -- phases of the above with per-phase base offsets (working-
  set shifts) and read/write ratios.

All offsets are 8-byte aligned and sized so no access straddles a page.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import TraceError
from repro.memsim.address import PAGE_SIZE

#: bytes touched by one generated access (one aligned machine word)
ACCESS_BYTES = 8


def _aligned_offset(rng: random.Random, span: int) -> int:
    """A random 8-aligned offset such that an 8-byte access fits in span."""
    return rng.randrange(span // ACCESS_BYTES) * ACCESS_BYTES


def zipf_ops(
    num_pages: int = 256,
    num_events: int = 20_000,
    *,
    seed: int = 0,
    alpha: float = 1.1,
    read_ratio: float = 0.8,
    base: int = 0,
) -> Iterator[tuple[int, bool]]:
    """Zipf-popular pages: rank r is drawn with weight 1/(r+1)^alpha.

    Page ranks are scattered over the region with a seeded shuffle so the
    hot set is not physically contiguous (contiguity would gift the
    stride prefetchers an unearned win).

    The in-page offset inlines ``randrange``'s ``getrandbits`` rejection
    loop (the same bits; ``tests/test_trace_golden.py`` pins the stream).
    """
    if num_pages <= 0 or num_events < 0:
        raise TraceError("zipf: num_pages must be > 0 and num_events >= 0")
    rng = random.Random(seed)
    cum: list[float] = []
    total = 0.0
    for rank in range(num_pages):
        total += 1.0 / (rank + 1) ** alpha
        cum.append(total)
    placement = list(range(num_pages))
    rng.shuffle(placement)
    # rank -> page base, padded for a draw that rounds past the last rank
    page_base = [base + page * PAGE_SIZE for page in placement]
    page_base.append(page_base[-1])
    draw, getrandbits = rng.random, rng.getrandbits
    words = PAGE_SIZE // ACCESS_BYTES
    bits = words.bit_length()
    for _ in range(num_events):
        addr = page_base[bisect_right(cum, draw() * total)]
        word = getrandbits(bits)
        while word >= words:
            word = getrandbits(bits)
        yield (addr + word * ACCESS_BYTES, draw() >= read_ratio)


def sequential_ops(
    num_bytes: int = 1 << 20,
    num_events: int = 20_000,
    *,
    seed: int = 0,
    stride: int = ACCESS_BYTES,
    read_ratio: float = 1.0,
    base: int = 0,
) -> Iterator[tuple[int, bool]]:
    """A strided scan over ``num_bytes``, wrapping back to the start."""
    if num_bytes < stride or stride <= 0 or stride % ACCESS_BYTES:
        raise TraceError(
            "sequential: stride must be a positive multiple of 8 <= num_bytes"
        )
    rng = random.Random(seed)
    pos = 0
    for _ in range(num_events):
        yield (base + pos, rng.random() >= read_ratio)
        pos += stride
        if pos + ACCESS_BYTES > num_bytes:
            pos = 0


def pointer_chase_ops(
    num_pages: int = 512,
    num_events: int = 20_000,
    *,
    seed: int = 0,
    base: int = 0,
) -> Iterator[tuple[int, bool]]:
    """Reads along a seeded single-cycle permutation of pages.

    Every page has one fixed in-page slot (the "next pointer"); the walk
    visits all pages before repeating, so at working sets beyond local
    memory every hop is a fault -- the regime where history-based
    prefetchers shine and stride prefetchers drown.
    """
    if num_pages <= 0:
        raise TraceError("pointer_chase: num_pages must be > 0")
    rng = random.Random(seed)
    order = list(range(num_pages))
    rng.shuffle(order)
    succ = {order[i]: order[(i + 1) % num_pages] for i in range(num_pages)}
    slot = [_aligned_offset(rng, PAGE_SIZE) for _ in range(num_pages)]
    cur = order[0]
    for _ in range(num_events):
        yield (base + cur * PAGE_SIZE + slot[cur], False)
        cur = succ[cur]


def mixed_ops(
    phases: list[dict],
    *,
    seed: int = 0,
    base: int = 0,
) -> Iterator[tuple[int, bool]]:
    """Concatenated phases, each a dict naming a kind plus its params.

    Each phase derives its own sub-seed from ``(seed, phase index)`` and
    may carry an ``offset`` (bytes, added to the scenario base) to model
    working-set shifts between phases.  Example::

        mixed_ops([
            {"kind": "zipf", "num_pages": 64, "num_events": 5000},
            {"kind": "sequential", "num_bytes": 1 << 19,
             "num_events": 5000, "offset": 1 << 20},
        ], seed=7)
    """
    for index, phase in enumerate(phases):
        params = dict(phase)
        kind = params.pop("kind")
        offset = params.pop("offset", 0)
        params.setdefault("seed", seed * 1000 + index)
        try:
            gen = _GENERATORS[kind]
        except KeyError:
            raise TraceError(f"mixed: unknown phase kind {kind!r}") from None
        yield from gen(base=base + offset, **params)


_GENERATORS = {
    "zipf": zipf_ops,
    "sequential": sequential_ops,
    "pointer_chase": pointer_chase_ops,
    "mixed": mixed_ops,
}


def _phase_span(phase: dict, kind_span) -> int:
    p = dict(phase)
    p.pop("seed", None)
    off = p.pop("offset", 0)
    return off + kind_span(p.pop("kind"), p)


def _span_of(kind: str, params: dict) -> int:
    """Total bytes a generator's addresses can reach past its base."""
    if kind == "zipf":
        return params.get("num_pages", 256) * PAGE_SIZE
    if kind == "sequential":
        return params.get("num_bytes", 1 << 20)
    if kind == "pointer_chase":
        return params.get("num_pages", 512) * PAGE_SIZE
    if kind == "mixed":
        return max(_phase_span(ph, _span_of) for ph in params["phases"])
    raise TraceError(f"unknown generator kind {kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A reproducible named scenario: generator kind + params + seed.

    ``ops()`` returns a fresh iterator every call, so a spec can be
    replayed any number of times (and on any number of systems) with an
    identical stream.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def ops(self) -> Iterator[tuple[int, bool]]:
        try:
            gen = _GENERATORS[self.kind]
        except KeyError:
            raise TraceError(f"unknown generator kind {self.kind!r}") from None
        return gen(seed=self.seed, **self.params)

    @property
    def footprint_bytes(self) -> int:
        """The scenario's address span (what replay must map)."""
        params = dict(self.params)
        if self.kind == "mixed":
            return _span_of("mixed", params)
        return _span_of(self.kind, params)

    def digest(self) -> str:
        """SHA-256 over the canonical ``addr,w`` lines of the stream.

        This fingerprints the generator output alone (no system in the
        loop): a digest drift means the generators themselves changed.
        """
        h = hashlib.sha256()
        for addr, is_write in self.ops():
            h.update(f"{addr},{int(is_write)}\n".encode("ascii"))
        return h.hexdigest()


#: the pinned scenario corpus (golden-digested in tests, benchmarked by
#: ``repro.bench.tracebench``); 8 scenarios spanning the four regimes
SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "zipf_hot", "zipf",
            {"num_pages": 256, "num_events": 20_000, "alpha": 1.2}, seed=1,
        ),
        ScenarioSpec(
            "zipf_cold", "zipf",
            {"num_pages": 256, "num_events": 20_000, "alpha": 0.4,
             "read_ratio": 0.7}, seed=2,
        ),
        ScenarioSpec(
            "seq_scan", "sequential",
            {"num_bytes": 1 << 20, "num_events": 20_000}, seed=3,
        ),
        ScenarioSpec(
            "seq_stride64", "sequential",
            {"num_bytes": 2 << 20, "num_events": 20_000, "stride": 64,
             "read_ratio": 0.9}, seed=4,
        ),
        ScenarioSpec(
            "chase_small", "pointer_chase",
            {"num_pages": 128, "num_events": 20_000}, seed=5,
        ),
        ScenarioSpec(
            "chase_large", "pointer_chase",
            {"num_pages": 1024, "num_events": 20_000}, seed=6,
        ),
        ScenarioSpec(
            "mixed_shift", "mixed",
            {"phases": [
                {"kind": "zipf", "num_pages": 64, "num_events": 7_000},
                {"kind": "sequential", "num_bytes": 1 << 19,
                 "num_events": 6_000, "offset": 1 << 20},
                {"kind": "zipf", "num_pages": 64, "num_events": 7_000,
                 "offset": 2 << 20},
            ]}, seed=7,
        ),
        ScenarioSpec(
            "mixed_rw", "mixed",
            {"phases": [
                {"kind": "sequential", "num_bytes": 1 << 19,
                 "num_events": 8_000, "read_ratio": 1.0},
                {"kind": "zipf", "num_pages": 96, "num_events": 12_000,
                 "read_ratio": 0.3},
            ]}, seed=8,
        ),
    )
}
