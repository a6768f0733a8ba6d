"""Twin-system harness of the bulk-path differential tests.

``tests/test_bulk_access.py`` (object path), ``tests/test_swap_fold.py``
(swap path) and ``tests/test_bulk_stream.py`` (strided callers) all hold
``MemorySystem.bulk_access`` to one contract (DESIGN.md section 4f): a
call that returns True leaves the system exactly where the per-element
loop leaves an identically built twin, and a call that returns False has
done nothing.  The oracle loops, the call and the snapshot live here.
"""

from __future__ import annotations

import copy

from repro.cache.hybrid import HybridManager


def twins(build, *args):
    """Two identically built systems: ``(oracle, folded, obj_id)``."""
    oracle, obj_id = build(*args)
    folded, _ = build(*args)
    return oracle, folded, obj_id


def per_element(system, obj_id, ops, size, dram_ns, before_ns, after_ns) -> None:
    """The oracle: what ``bulk_access`` must be indistinguishable from."""
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


def bulk(system, obj_id: int, ops, size: int) -> bool:
    """One ``bulk_access`` call, charged as :func:`per_op` charges."""
    cost = system.cost
    return system.bulk_access(
        obj_id,
        [off for off, _ in ops],
        [w for _, w in ops],
        size,
        cost.dram_access_ns,
        cost.cpu_op_ns,
        0.0,
    )


def bulk_done(system, obj_id: int, ops, size: int) -> None:
    assert bulk(system, obj_id, ops, size) is True


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
