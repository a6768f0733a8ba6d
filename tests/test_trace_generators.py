"""Trace frontend: generator properties, raw-file round-trips, fuzz corpus.

Three layers of guarantees:

* each synthetic generator is deterministic by seed and emits aligned,
  in-span addresses with the access regime it advertises;
* ``write_raw``/``read_raw`` are inverse on both encodings, and every
  malformed input is a typed :class:`TraceFormatError` naming the line;
* a small fuzz corpus (8 seeds x every generator kind) holds the shared
  invariants without pinning any particular stream.
"""

import itertools
import random
from bisect import bisect_right

import pytest

from repro.errors import TraceError, TraceFormatError
from repro.memsim.address import PAGE_SIZE
from repro.workloads.trace import (
    ACCESS_BYTES,
    SCENARIOS,
    ScenarioSpec,
    mixed_ops,
    ops_digest,
    pointer_chase_ops,
    read_raw,
    sequential_ops,
    write_raw,
    zipf_ops,
)

FUZZ_SEEDS = tuple(range(8))


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_generators_deterministic_by_seed(seed):
    for make in (
        lambda s: zipf_ops(64, 500, seed=s),
        lambda s: sequential_ops(1 << 16, 500, seed=s, read_ratio=0.5),
        lambda s: pointer_chase_ops(64, 500, seed=s),
    ):
        assert list(make(seed)) == list(make(seed))


def test_different_seeds_differ():
    assert list(zipf_ops(64, 500, seed=1)) != list(zipf_ops(64, 500, seed=2))
    assert list(pointer_chase_ops(64, 64, seed=1)) != list(
        pointer_chase_ops(64, 64, seed=2)
    )


def test_scenario_ops_is_a_fresh_iterator_each_call():
    spec = SCENARIOS["zipf_hot"]
    first = list(itertools.islice(spec.ops(), 100))
    second = list(itertools.islice(spec.ops(), 100))
    assert first == second


# -- per-generator shape -----------------------------------------------------


def test_zipf_alignment_and_span():
    ops = list(zipf_ops(32, 2000, seed=3, base=1 << 20))
    assert len(ops) == 2000
    for addr, is_write in ops:
        assert addr % ACCESS_BYTES == 0
        assert (1 << 20) <= addr < (1 << 20) + 32 * PAGE_SIZE
        assert isinstance(is_write, bool)


def test_zipf_skew_follows_alpha():
    def top_page_share(alpha):
        counts = {}
        for addr, _ in zipf_ops(64, 5000, seed=9, alpha=alpha):
            counts[addr // PAGE_SIZE] = counts.get(addr // PAGE_SIZE, 0) + 1
        return max(counts.values()) / 5000

    # hotter alpha concentrates traffic on the hottest page
    assert top_page_share(1.5) > 2 * top_page_share(0.2)


def test_zipf_read_ratio():
    writes = sum(w for _, w in zipf_ops(64, 5000, seed=4, read_ratio=0.7))
    assert 0.2 < writes / 5000 < 0.4  # ~30% writes


def test_zipf_rejects_bad_params():
    with pytest.raises(TraceError):
        next(zipf_ops(0, 10))
    with pytest.raises(TraceError):
        next(zipf_ops(10, -1))


def _zipf_twin(num_pages, num_events, *, seed, alpha=1.1, read_ratio=0.8, base=0):
    """Reference zipf loop: ``randrange`` draws the in-page word and
    ``min`` clamps the rank."""
    rng = random.Random(seed)
    cum = []
    total = 0.0
    for rank in range(num_pages):
        total += 1.0 / (rank + 1) ** alpha
        cum.append(total)
    placement = list(range(num_pages))
    rng.shuffle(placement)
    for _ in range(num_events):
        rank = bisect_right(cum, rng.random() * total)
        page = placement[min(rank, num_pages - 1)]
        off = rng.randrange(PAGE_SIZE // ACCESS_BYTES) * ACCESS_BYTES
        yield (base + page * PAGE_SIZE + off, rng.random() >= read_ratio)


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.2, 3.0])
@pytest.mark.parametrize("num_pages", [1, 2, 3, 255, 2048])
def test_zipf_matches_randrange_twin(num_pages, alpha):
    # the inlined getrandbits rejection loop must draw exactly the bits
    # randrange draws, on every Python the suite runs on
    for seed, read_ratio in itertools.product((0, 1, 12345), (0.0, 0.3, 1.0)):
        kw = dict(seed=seed, alpha=alpha, read_ratio=read_ratio, base=3 << 20)
        assert list(zipf_ops(num_pages, 400, **kw)) == list(
            _zipf_twin(num_pages, 400, **kw)
        )


def test_mixed_zipf_phases_match_randrange_twin():
    phases = [
        {"kind": "zipf", "num_pages": 64, "num_events": 700, "alpha": 1.2},
        {"kind": "zipf", "num_pages": 96, "num_events": 700, "alpha": 0.8,
         "read_ratio": 0.3, "offset": 1 << 20},
    ]
    expect = list(_zipf_twin(64, 700, seed=9000, alpha=1.2, base=1 << 16)) + list(
        _zipf_twin(96, 700, seed=9001, alpha=0.8, read_ratio=0.3,
                   base=(1 << 16) + (1 << 20))
    )
    assert list(mixed_ops(phases, seed=9, base=1 << 16)) == expect


def test_sequential_exact_arithmetic():
    ops = list(sequential_ops(64, 20, seed=0, stride=16))
    addrs = [a for a, _ in ops]
    # 64-byte span, stride 16: positions 0,16,32,48 then wrap
    assert addrs == [0, 16, 32, 48] * 5
    assert all(not w for _, w in ops)  # default read_ratio=1.0


def test_sequential_wraparound_never_straddles():
    for addr, _ in sequential_ops(100, 50, stride=24):
        assert addr + ACCESS_BYTES <= 100


def test_sequential_rejects_bad_stride():
    with pytest.raises(TraceError):
        next(sequential_ops(1 << 16, 10, stride=12))  # not 8-aligned
    with pytest.raises(TraceError):
        next(sequential_ops(8, 10, stride=16))  # stride > span
    with pytest.raises(TraceError):
        next(sequential_ops(1 << 16, 10, stride=0))


def test_pointer_chase_is_a_single_cycle():
    num_pages = 64
    ops = list(pointer_chase_ops(num_pages, 2 * num_pages, seed=11))
    pages = [a // PAGE_SIZE for a, _ in ops]
    # one full lap visits every page exactly once, then the walk repeats
    assert sorted(pages[:num_pages]) == list(range(num_pages))
    assert pages[num_pages:] == pages[:num_pages]
    assert all(not w for _, w in ops)  # chase is all reads


def test_pointer_chase_fixed_slot_per_page():
    slots = {}
    for addr, _ in pointer_chase_ops(32, 200, seed=5):
        page, off = divmod(addr, PAGE_SIZE)
        assert slots.setdefault(page, off) == off


def test_mixed_concatenates_phases_with_derived_seeds():
    phases = [
        {"kind": "sequential", "num_bytes": 1 << 12, "num_events": 50},
        {"kind": "zipf", "num_pages": 8, "num_events": 50, "offset": 1 << 16},
    ]
    ops = list(mixed_ops(phases, seed=7, base=1 << 20))
    expect = list(
        sequential_ops(1 << 12, 50, seed=7000, base=1 << 20)
    ) + list(zipf_ops(8, 50, seed=7001, base=(1 << 20) + (1 << 16)))
    assert ops == expect


def test_mixed_unknown_kind():
    with pytest.raises(TraceError, match="unknown phase kind"):
        list(mixed_ops([{"kind": "wat", "num_events": 1}]))


# -- scenario corpus ---------------------------------------------------------


def test_scenario_footprint_covers_every_address():
    for spec in SCENARIOS.values():
        span = spec.footprint_bytes
        for addr, _ in spec.ops():
            assert 0 <= addr and addr + ACCESS_BYTES <= span, spec.name


def test_unknown_scenario_kind_is_typed():
    with pytest.raises(TraceError):
        ScenarioSpec("x", "nope").ops()


# -- raw file round-trips ----------------------------------------------------


@pytest.mark.parametrize("fmt,ext", [("csv", "csv"), ("jsonl", "jsonl")])
def test_round_trip_identity(tmp_path, fmt, ext):
    ops = list(zipf_ops(16, 300, seed=2, read_ratio=0.6))
    path = tmp_path / f"t.{ext}"
    n = write_raw(str(path), ops, meta={"note": "round-trip"})
    assert n == 300
    back = list(read_raw(str(path)))
    assert [(a, bool(w)) for a, w in back] == ops
    assert ops_digest(back) == ops_digest(ops)


def test_round_trip_preserves_tid_arity(tmp_path):
    ops = [(4096, True, 3), (8192, False, 0), (16384, True)]
    for ext in ("csv", "jsonl"):
        path = tmp_path / f"tid.{ext}"
        write_raw(str(path), ops)
        back = list(read_raw(str(path)))
        assert [tuple(op) for op in back] == [
            (4096, True, 3), (8192, False, 0), (16384, True)
        ]


def test_round_trip_mixed_arity_exact(tmp_path):
    """A stream interleaving 2- and 3-tuples round-trips exactly in both
    formats: every op keeps its own arity, order, and values."""
    ops = [
        (0, False),
        (4096, True, 0),
        (8192, False, 7),
        (0x3000, True),
        (16384, False, 2),
        (2 * 4096, True),
    ]
    for ext in ("csv", "jsonl"):
        path = tmp_path / f"mixed.{ext}"
        n = write_raw(str(path), ops)
        assert n == len(ops)
        back = [tuple(op) for op in read_raw(str(path))]
        assert back == ops, ext
        assert ops_digest(back) == ops_digest(ops)


@pytest.mark.parametrize("ext", ["csv", "jsonl"])
@pytest.mark.parametrize("bad", [(), (4096,), (4096, 1, 2, 3)])
def test_write_raw_rejects_bad_arity(tmp_path, ext, bad):
    """write_raw must refuse arities read_raw could never round-trip --
    a typed error naming the offending op, not a silently truncated
    file."""
    path = tmp_path / f"bad.{ext}"
    with pytest.raises(TraceFormatError, match="op 1"):
        write_raw(str(path), [(0, False), bad], force=True)


def test_digest_is_format_independent(tmp_path):
    ops = list(sequential_ops(1 << 14, 200, seed=1))
    write_raw(str(tmp_path / "a.csv"), ops)
    write_raw(str(tmp_path / "a.jsonl"), ops)
    assert ops_digest(read_raw(str(tmp_path / "a.csv"))) == ops_digest(
        read_raw(str(tmp_path / "a.jsonl"))
    )


def test_write_raw_refuses_overwrite(tmp_path):
    path = tmp_path / "t.csv"
    write_raw(str(path), [(0, False)])
    with pytest.raises(TraceError, match="refusing to overwrite"):
        write_raw(str(path), [(8, True)])
    write_raw(str(path), [(8, True)], force=True)
    assert list(read_raw(str(path))) == [(8, True)]


def test_csv_accepts_hex_headers_and_comments(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text(
        "# repro.trace/v1\n"
        "# produced-by: some-other-tool\n"
        "addr,is_write\n"
        "0x1000,r\n"
        "4104,w\n"
        "\n"
        "0x2000,false,7\n"
    )
    assert list(read_raw(str(path))) == [
        (0x1000, False), (4104, True), (0x2000, False, 7)
    ]


@pytest.mark.parametrize(
    "body,match",
    [
        ("zzz,1\n", "bad address"),
        ("4096,maybe\n", "bad is_write"),
        ("4096\n", "expected 2 or 3"),
        ("1,2,3,4\n", "expected 2 or 3"),
        ("4096,1,xyz\n", "bad thread id"),
        ("-8,1\n", "negative address"),
        ("# repro.trace/v999\n4096,1\n", "unsupported trace schema"),
    ],
)
def test_csv_errors_are_typed_with_line_numbers(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("# repro.trace/v1\n" + body if "schema" not in match else body)
    with pytest.raises(TraceFormatError, match=match) as exc:
        list(read_raw(str(path)))
    assert "bad.csv:" in str(exc.value)  # names path:line


@pytest.mark.parametrize(
    "body,match",
    [
        ('{"a": 4096, "w": 1}\nnot json\n', "invalid JSON"),
        ('[1, 2]\n', "expected a JSON object"),
        ('{"w": 1}\n', "need integer"),
        ('{"a": -4, "w": 1}\n', "negative address"),
        ('{"a": 4096, "w": 1, "tid": "x"}\n', "bad thread id"),
        ('{"a": 4096, "w": 1, "tid": null}\n', "bad thread id"),
        ('{"schema": "repro.trace/v999"}\n', "unsupported trace schema"),
    ],
)
def test_jsonl_errors_are_typed_with_line_numbers(tmp_path, body, match):
    path = tmp_path / "bad.jsonl"
    path.write_text(body)
    with pytest.raises(TraceFormatError, match=match) as exc:
        list(read_raw(str(path)))
    assert "bad.jsonl:" in str(exc.value)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(TraceError, match="unknown raw trace format"):
        list(read_raw(str(tmp_path / "t.csv"), fmt="xml"))
    with pytest.raises(TraceError, match="unknown raw trace format"):
        write_raw(str(tmp_path / "t.csv"), [], fmt="xml")


# -- fuzz corpus -------------------------------------------------------------


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_corpus_invariants(tmp_path, seed):
    """Every generator kind, 8 seeds: aligned in-span ops that survive an
    export/import round-trip bit-identically."""
    streams = {
        "zipf": (zipf_ops(48, 400, seed=seed, alpha=0.9), 48 * PAGE_SIZE),
        "sequential": (
            sequential_ops(1 << 15, 400, seed=seed, stride=32, read_ratio=0.8),
            1 << 15,
        ),
        "pointer_chase": (pointer_chase_ops(48, 400, seed=seed), 48 * PAGE_SIZE),
        "mixed": (
            mixed_ops(
                [
                    {"kind": "zipf", "num_pages": 16, "num_events": 200},
                    {"kind": "pointer_chase", "num_pages": 16,
                     "num_events": 200, "offset": 1 << 18},
                ],
                seed=seed,
            ),
            (1 << 18) + 16 * PAGE_SIZE,
        ),
    }
    for kind, (stream, span) in streams.items():
        ops = list(stream)
        assert len(ops) == 400, kind
        for addr, is_write in ops:
            assert addr % ACCESS_BYTES == 0, kind
            assert 0 <= addr and addr + ACCESS_BYTES <= span, kind
            assert isinstance(is_write, bool), kind
        path = tmp_path / f"{kind}_{seed}.jsonl"
        write_raw(str(path), ops)
        assert [(a, bool(w)) for a, w in read_raw(str(path))] == ops, kind
