"""Per-thread section groups (section 4.6).

A parallel loop's thread-partitioned data lives in ``T`` private clones
``name@t0..`` of one planned section, and the manager keeps them as one
group.  The object outlives the region: a flush, eviction hint or discard
issued outside it (``current_thread`` None) reaches every clone, and one
issued by thread ``k`` inside it reaches clone ``k`` only.  A model with
one dict per clone is the oracle for the manager; an ``scf.parallel``
program checks the same after the join under both engines.  A group opens
whole or not at all.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import SectionConfig
from repro.cache.manager import CacheManager
from repro.errors import ConfigError
from repro.ir.builder import IRBuilder
from repro.ir.types import F64
from repro.ir.verifier import verify
from repro.memsim.address import PAGE_SIZE
from repro.memsim.cost_model import CostModel
from repro.runtime.interpreter import Interpreter
from tests.test_manager_verbs import _snapshot

LINE = 64
#: lines per clone: the object fits each clone whole, so nothing evicts
LINES = 16


def _group(threads: int):
    """A manager with one fully-associative group of ``threads`` clones
    holding object ``a`` (``LINES`` lines); ``(manager, obj_id)``."""
    mgr = CacheManager(CostModel(), threads * LINES * LINE + 4 * PAGE_SIZE)
    obj = mgr.allocate(LINES * LINE, elem_size=8, name="a")
    mgr.open_section(
        SectionConfig("s", threads * LINES * LINE, LINE), [obj.obj_id],
        per_thread=threads,
    )
    return mgr, obj.obj_id


def _observed(mgr) -> list[dict]:
    """Per clone, in thread order: every resident line with its dirty and
    hinted flags, and the section's counters."""
    out = []
    for name, sec in sorted(mgr.sections().items()):
        stats = sec.stats
        out.append({
            "name": name,
            "lines": {
                ln.key[1]: (ln.dirty, ln.evictable) for ln in sec.resident_lines()
            },
            "hits": stats.hits,
            "misses": stats.misses,
            "writebacks": stats.writebacks,
        })
    return out


class _Model:
    """One dict per clone: line -> (dirty, hinted); a verb's scope is the
    thread's clone, or every clone for ``None``."""

    def __init__(self, threads: int) -> None:
        self.clones = [
            {"name": f"s@t{t}", "lines": {}, "hits": 0, "misses": 0, "writebacks": 0}
            for t in range(threads)
        ]

    def _scope(self, thread):
        return self.clones if thread is None else [self.clones[thread]]

    def access(self, thread: int, line: int, write: bool) -> None:
        clone = self.clones[thread]
        state = clone["lines"].get(line)
        if state is None:
            clone["misses"] += 1
            clone["lines"][line] = (write, False)
        else:
            clone["hits"] += 1
            clone["lines"][line] = (state[0] or write, False)

    def flush(self, thread, first: int, count: int) -> None:
        for clone in self._scope(thread):
            for i, (dirty, hinted) in clone["lines"].items():
                if dirty and first <= i < first + count:
                    clone["lines"][i] = (False, hinted)
                    clone["writebacks"] += 1

    def hint(self, thread, first: int, count: int) -> None:
        for clone in self._scope(thread):
            for i, (dirty, _) in clone["lines"].items():
                if first <= i < first + count:
                    clone["lines"][i] = (dirty, True)

    def discard(self, thread) -> None:
        for clone in self._scope(thread):
            clone["writebacks"] += sum(d for d, _ in clone["lines"].values())
            clone["lines"] = {}


def _apply(mgr, obj_id: int, model: _Model, op) -> None:
    kind, thread, *args = op
    mgr.current_thread = thread
    if kind == "access":
        line, write = args
        mgr.access(obj_id, line * LINE, 8, write)
        model.access(thread, line, write)
    elif kind == "flush":
        first, count = args
        mgr.flush(obj_id, first * LINE, count * LINE)
        model.flush(thread, first, count)
    elif kind == "hint":
        first, count = args
        mgr.evict_hint(obj_id, first * LINE, count * LINE)
        model.hint(thread, first, count)
    else:
        mgr.discard(obj_id)
        model.discard(thread)


@pytest.mark.parametrize("threads", [2, 4])
def test_verbs_after_the_join_reach_every_clone(threads):
    """Eight dirty lines in each clone; ``flush`` then ``discard`` from
    outside the region write every clone back and then empty it."""
    mgr, obj_id = _group(threads)
    model = _Model(threads)
    for t in range(threads):
        for line in range(8):
            _apply(mgr, obj_id, model, ("access", t, line, True))
    _apply(mgr, obj_id, model, ("flush", None, 0, LINES))
    assert _observed(mgr) == model.clones
    assert all(not dirty for c in model.clones for dirty, _ in c["lines"].values())
    _apply(mgr, obj_id, model, ("hint", None, 0, LINES))
    assert _observed(mgr) == model.clones
    _apply(mgr, obj_id, model, ("discard", None))
    assert _observed(mgr) == model.clones
    assert sum(c["writebacks"] for c in model.clones) == 8 * threads
    assert all(not c["lines"] for c in model.clones)


@pytest.mark.parametrize("threads", [2, 4])
def test_verbs_inside_the_region_reach_their_clone_only(threads):
    mgr, obj_id = _group(threads)
    model = _Model(threads)
    for t in range(threads):
        for line in range(8):
            _apply(mgr, obj_id, model, ("access", t, line, True))
    for t in range(threads):
        _apply(mgr, obj_id, model, ("flush", t, 0, 2 + t))
        _apply(mgr, obj_id, model, ("hint", t, 4, 2))
        assert _observed(mgr) == model.clones
    _apply(mgr, obj_id, model, ("discard", threads - 1))
    assert _observed(mgr) == model.clones
    assert [len(c["lines"]) for c in model.clones] == [8] * (threads - 1) + [0]


def _ops(threads: int):
    scope = st.one_of(st.none(), st.integers(0, threads - 1))
    line = st.integers(0, LINES - 1)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("access"), st.integers(0, threads - 1), line, st.booleans()
            ),
            st.tuples(st.just("flush"), scope, line, st.integers(1, LINES)),
            st.tuples(st.just("hint"), scope, line, st.integers(1, LINES)),
            st.tuples(st.just("discard"), scope),
        ),
        max_size=40,
    )


@pytest.mark.parametrize("threads", [2, 4])
def test_group_verbs_match_a_model_per_clone(threads):
    @settings(max_examples=40, deadline=None)
    @given(_ops(threads))
    def check(ops):
        mgr, obj_id = _group(threads)
        model = _Model(threads)
        for op in ops:
            _apply(mgr, obj_id, model, op)
            assert _observed(mgr) == model.clones, op

    check()


def test_a_group_that_does_not_fit_opens_no_clone():
    """4 KiB of 8 KiB committed: a two-clone group of 4 KiB clones fails
    whole, commits nothing, and opens once the room is there."""
    mgr = CacheManager(CostModel(), 8192)
    mgr.open_section(SectionConfig("other", 4096, 64), [])
    pages = mgr.swap.capacity_pages
    with pytest.raises(ConfigError, match="does not fit"):
        mgr.open_section(SectionConfig("s", 4096, 4096), [], per_thread=2)
    assert list(mgr.sections()) == ["other"]
    assert mgr.swap.capacity_pages == pages
    mgr.close_section("other")
    mgr.open_section(SectionConfig("s", 4096, 4096), [], per_thread=2)
    assert list(mgr.sections()) == ["s@t0", "s@t1"]


# -- the same after an scf.parallel join, under both engines -----------------

ELEMS = LINES * LINE // 8


def _program(threads: int):
    """Each thread stores its slice of ``a``; after the join, a flush of
    the whole object and then a discard."""
    b = IRBuilder()
    with b.func("main", result_types=[F64]):
        a = b.ralloc(F64, ELEMS, "a")
        with b.parallel(0, ELEMS, num_threads=threads) as loop:
            b.store(b.f64(1.0), a, loop.iv)
        b.flush(a, 0, ELEMS)
        flushed = b.load(a, 0)
        b.discard(a)
        b.ret([flushed])
    verify(b.module)
    return b.module


def _run(engine: str, threads: int):
    ambient = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = engine
    try:
        mgr = CacheManager(CostModel(), threads * LINES * LINE + 4 * PAGE_SIZE)
        mgr.open_section(
            SectionConfig("s", threads * LINES * LINE, LINE), [], per_thread=threads
        )
        mgr.pending_assignment["a"] = "s"
        results = Interpreter(_program(threads), mgr).run("main").results
    finally:
        if ambient is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = ambient
    return mgr, {"results": list(results), **_snapshot(mgr)}


@pytest.mark.parametrize("threads", [2, 4])
def test_flush_and_discard_after_a_parallel_join(threads):
    mgr, reference = _run("reference", threads)
    assert mgr.current_thread is None
    sections = mgr.sections()
    # every line was written once, by the thread that owns its slice, and
    # written back by the flush after the join; the discard emptied all
    assert sum(sec.stats.writebacks for sec in sections.values()) == LINES
    assert all(sec.stats.writebacks for sec in sections.values())
    assert not any(sec.resident_lines() for sec in sections.values())
    _, codegen = _run("codegen", threads)
    assert codegen == reference
