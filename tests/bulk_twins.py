"""Twin-system harness of the bulk-path differential tests.

``tests/test_bulk_access.py`` (object path), ``tests/test_swap_fold.py``
(swap path) and ``tests/test_bulk_stream.py`` (strided streams) all hold
``MemorySystem.stream_access`` -- on a cache manager, the one fold loop,
``CacheManager.fold_chunk`` -- to one contract (DESIGN.md section 4f): a
call that returns ``(taken, stop)`` leaves the system exactly where the
per-element loop over the ``taken`` ops before ``stop`` leaves an
identically built twin, and a call that returns None has done nothing.
The oracle loops, the call, the steps between calls, each path's counter
conservation, the decline check and the snapshot live here.
"""

from __future__ import annotations

import copy

from repro.cache.hybrid import HybridManager
from repro.memsim.address import PAGE_SIZE


def twins(build, *args):
    """Two identically built systems: ``(oracle, folded, obj_id)``."""
    oracle, obj_id = build(*args)
    folded, _ = build(*args)
    return oracle, folded, obj_id


def per_element(system, obj_id, ops, size, dram_ns, before_ns, after_ns) -> None:
    """The oracle: what ``stream_access`` must be indistinguishable from."""
    clock = system.clock
    for off, w in ops:
        clock.advance(dram_ns, "dram")
        clock.charge(before_ns)
        system.access(obj_id, off, size, bool(w))
        clock.charge(after_ns)


def per_op(system, obj_id: int, ops, size: int) -> None:
    """The oracle in trace order (``replay_ops``' per-op loop): the op's
    compute is charged ahead of its access."""
    clock, cost = system.clock, system.cost
    for off, w in ops:
        clock.advance(cost.dram_access_ns, "dram")
        clock.charge(cost.cpu_op_ns)
        system.access(obj_id, off, size, bool(w))


def bulk(system, obj_id: int, ops, size: int):
    """One ``stream_access`` call over ``ops``, charged as :func:`per_op`
    charges: ``(taken, stop)``, or None where the system declined."""
    cost = system.cost
    return system.stream_access(
        obj_id,
        zip([off for off, _ in ops], [w for _, w in ops]),
        size,
        cost.dram_access_ns,
        cost.cpu_op_ns,
        0.0,
    )


def bulk_done(system, obj_id: int, ops, size: int) -> None:
    """The stream is taken whole."""
    assert bulk(system, obj_id, ops, size) == (len(ops), None)


def declines(system, obj_id: int, ops) -> None:
    """``stream_access`` returns None and touches nothing."""
    before = state(system, obj_id)
    assert bulk(system, obj_id, ops, 8) is None
    assert state(system, obj_id) == before


def stops(oracle, system, obj_id: int, ops, at: int) -> None:
    """``ops[at]`` leaves the object: the stream applies the ops ahead of
    it as the per-element loop does, returns it untouched, and takes
    nothing past it from the iterator (the caller then raises the
    canonical error at the op that earns it)."""
    cost = system.cost
    per_op(oracle, obj_id, ops[:at], 8)
    rest = iter(ops)
    taken = system.stream_access(
        obj_id, rest, 8, cost.dram_access_ns, cost.cpu_op_ns, 0.0
    )
    assert taken == (at, ops[at])
    assert list(rest) == ops[at + 1 :]
    assert state(system, obj_id) == state(oracle, obj_id)


def apply(system, obj_id: int, steps, size: int, run_ops, unit: int, check) -> None:
    """Run ``steps`` -- ``("ops", [(offset, write)...])`` through
    ``run_ops``, or a public hint over ``unit``-sized lines or pages:
    ``prefetch`` two, ``hint`` two, ``flush`` one, or ``idle`` ns -- each
    followed by ``check(system)``."""
    for kind, arg in steps:
        if kind == "ops":
            run_ops(system, obj_id, arg, size)
        elif kind == "idle":
            system.clock.advance(arg, "other")
        elif kind == "prefetch":  # two in flight when the next ops arrive
            system.prefetch(obj_id, arg, 2 * unit)
        elif kind == "hint":
            system.evict_hint(obj_id, arg, 2 * unit)
        else:
            system.flush(obj_id, arg, unit)
        check(system)


def conserved_lines(system) -> None:
    """Counter conservation on the object path, per section: every line
    access is a hit or a miss, a section holds no more lines than it has,
    ``_hinted`` counts its hinted lines, every eviction made room for a
    miss or a prefetch, and every message is a demand fetch, a prefetch or
    a write-back (a late prefetch hit is a miss that fetches nothing of
    its own, and so is a write miss in a ``write_no_fetch`` section)."""
    messages = 0
    exact = True
    for section in system.sections().values():
        s = section.stats
        assert s.hits + s.misses == s.accesses
        assert section.resident_count() <= section.config.num_lines
        assert section._hinted == sum(ln.evictable for ln in section.resident_lines())
        assert s.evictions <= s.misses + s.prefetches_issued
        messages += s.misses - s.prefetch_hits + s.prefetches_issued + s.writebacks
        exact = exact and not section.config.write_no_fetch
    if exact:
        assert system.network.stats.messages == messages
    else:
        assert system.network.stats.messages <= messages


def conserved_pages(system) -> None:
    """Counter conservation on the swap path, checked while no cache
    section is open and none has been: every page access is a hit or a
    miss, the pool holds no more than its capacity, every resident page
    lies in its entry's object (a prefetch plan fetches no page past it),
    and every message and byte read is a demand fault, a prefetch or a
    write-back (a late prefetch hit counts as a miss and fetches nothing
    of its own)."""
    if system.sections() or getattr(system, "switch_log", None):
        return
    swap, net = system.swap, system.network.stats
    s = swap.stats
    fetched = s.misses - s.prefetch_hits + s.prefetches_issued
    assert s.hits + s.misses == s.accesses
    assert swap.resident_pages() <= swap.capacity_pages
    for page, entry in swap._pages.items():
        obj = system.address_space.get(entry.obj_id)
        assert obj.base_va <= page * PAGE_SIZE < obj.end_va, (page, obj)
    assert net.messages == fetched + s.writebacks
    assert net.bytes_read == PAGE_SIZE * fetched


def _policy_state(policy):
    """Counters, derived metrics and the learner's internal history."""
    if policy is None:
        return None
    state = {
        k: copy.deepcopy(v)
        for k, v in vars(policy).items()
        if k not in ("memsys", "prefetcher")
    }
    prefetcher = getattr(policy, "prefetcher", None)
    if prefetcher is not None:
        state["prefetcher"] = copy.deepcopy(vars(prefetcher))
    state["snapshot"] = policy.snapshot()
    return state


def state(system, obj_id: int) -> dict:
    """Everything observable about a swap-backed system, clock flushed."""
    clock = system.clock
    clock.flush()
    swap = system.swap
    assert all(page == entry.page for page, entry in swap._pages.items())
    out = {
        "now": clock.now,
        # a list, not a dict: JSON outputs keep the breakdown's order
        "breakdown": list(clock.breakdown().items()),
        "pending": (clock._pending, clock._pending_cat),
        "object": vars(system.stats.object(obj_id)).copy(),
        "network": vars(system.network.stats).copy(),
        # what the next sync read queues behind (a fold takes misses only
        # on an idle link, and leaves it idle)
        "link_free_at": system.network._link_free_at,
        "swap": vars(swap.stats).copy(),
        # oldest first: the victim order
        "pages": [
            (e.page, e.obj_id, e.dirty, e.evictable, e.ready_at)
            for e in swap._pages.values()
        ],
        "hinted": list(swap._evictable),
        "policy": _policy_state(system.policy),
        # every swap-backed system is a cache manager (FastSwap and Leap
        # open no section): the metadata sample and the counter it keys on
        "peak_metadata": system.peak_metadata_bytes,
        "access_counter": system._access_counter,
    }
    for name, section in system.sections().items():
        out[f"stats.{name}"] = vars(section.stats).copy()
        # geometry order: per set oldest-first (the victim order)
        out[f"lines.{name}"] = [
            (ln.key, ln.dirty, ln.evictable, ln.ready_at)
            for ln in section.resident_lines()
        ]
        out[f"hinted.{name}"] = (
            section._hinted,
            list(getattr(section, "_evictable", ())),
        )
    if isinstance(system, HybridManager):
        out["switch_log"] = copy.deepcopy(system.switch_log)
        out["groups"] = {
            name: (g.path, g.win_acc, g.win_miss, g.win_bytes, g.cooldown, g.locked)
            for name, g in system.groups().items()
        }
    return out
