"""Virtual time.

Every performance-relevant event in the simulation advances a
:class:`VirtualClock` by some number of virtual nanoseconds taken from the
cost model.  Real (wall-clock) time plays no role in any reported result.  Every
duration charged is a multiple of 2**-10 ns
(:func:`repro.memsim.cost_model.grid`; DESIGN.md section 4, "Time is
exact"), which doubles add exactly: ``n`` charges of ``c`` and one charge
of ``n * c`` leave the same clock.  The clock itself never rounds.

The clock has two charging paths:

* :meth:`advance` -- immediate: the counter and breakdown update at once.
* :meth:`charge` -- buffered: same-category charges accumulate in a local
  float and are folded in lazily.  Every observable read (``now``,
  ``breakdown``, ``category``) and every synchronizing operation
  (``advance``, ``wait_until``, ``fork``, ``join``) flushes the buffer
  first, so the two paths are indistinguishable from the outside.  The
  codegen execution engine and the fold walker use ``charge``
  for their hot compute accounting; the reference interpreter only uses
  ``advance``.

A *tick hook* (:meth:`set_tick_hook`) lets the windowed telemetry
collector observe virtual-time window boundaries: whenever a fold moves
``_now`` at or past the armed boundary, the callback fires with the new
time and returns the next boundary to arm.  Disabled (the default) the
boundary is ``+inf``, so every fold pays exactly one float compare --
the clock's contribution to "telemetry off costs nothing".  Forked
(per-thread) clocks never carry a hook; boundaries crossed inside a
parallel region surface when the parent :meth:`join`\\ s.

The breakdown is a fixed ledger: :data:`CATEGORIES` names every category
any charge may use, and a new clock holds each at ``0.0`` from the start,
so a fold is two adds and no call, and a charge that arrives as an int or
as ``-0.0`` still stores the float a ``0.0``-seeded sum holds (the value
reaches canonical JSON).  A category outside the registry is a
:class:`~repro.errors.MiraError` from :meth:`advance` and :meth:`charge`
(and from codegen's lowering, which inlines the fold);
:meth:`breakdown` reports the non-zero entries in registry order.
Malformed time (negative, NaN) is refused with one compare,
``not ns >= 0``: a NaN let in would make every later ``ready_at > now``
false.
"""

from __future__ import annotations

from repro.errors import MiraError

#: every clock category, in the order :meth:`VirtualClock.breakdown`
#: reports them: program execution, cache sections, the swap path, the
#: network, AIFM, the hybrid manager's path switches, locks, and the
#: defaults of :meth:`VirtualClock.wait_until` and :meth:`VirtualClock.advance`
CATEGORIES = (
    "compute", "dram", "dram_stream", "profiling",
    "hit_overhead", "insert_overhead", "evict_overhead", "miss_wait",
    "page_fault", "eviction",
    "net_issue", "net_wait", "net_read", "net_timeout", "net_backoff", "rpc",
    "aifm_deref", "aifm_miss",
    "path_switch",
    "lock_wait", "lock_hold",
    "wait", "other",
)


def unknown_category(category) -> MiraError:
    """The error for a charge to a category outside :data:`CATEGORIES`."""
    return MiraError(f"unknown clock category {category!r}; see CATEGORIES")


class VirtualClock:
    """A monotonically non-decreasing virtual-nanosecond counter.

    The clock also keeps a breakdown of where time went, by one of
    :data:`CATEGORIES`, which the profiler and the figure harnesses read.
    """

    __slots__ = ("_now", "_breakdown", "_pending", "_pending_cat",
                 "_tick_cb", "_next_tick")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._breakdown: dict[str, float] = dict.fromkeys(CATEGORIES, 0.0)
        self._pending: float = 0.0
        self._pending_cat: str = "compute"
        self._tick_cb = None
        self._next_tick: float = float("inf")

    def set_tick_hook(self, cb, first_boundary: float = float("inf")) -> None:
        """Arm (or, with ``cb=None``, disarm) the boundary callback.

        ``cb(now)`` is invoked after any fold that reaches
        ``first_boundary`` and must return the next boundary to arm
        (``inf`` to stop).  The callback must not advance this clock.
        """
        if cb is None:
            self._tick_cb = None
            self._next_tick = float("inf")
        else:
            self._tick_cb = cb
            self._next_tick = first_boundary

    @property
    def now(self) -> float:
        """Current virtual time in nanoseconds."""
        if self._pending:
            self._flush()
        return self._now

    def charge(self, ns: float, category: str = "compute") -> None:
        """Buffer a charge on the fast path (see module docstring)."""
        if not ns >= 0:
            raise MiraError(f"cannot advance clock by negative or NaN time {ns}")
        if category == self._pending_cat:
            self._pending += ns
        else:
            if category not in self._breakdown:
                raise unknown_category(category)
            if self._pending:
                self._flush()
            self._pending_cat = category
            self._pending = ns

    def flush(self) -> None:
        """Fold any buffered charges into the counter and breakdown."""
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        ns = self._pending
        self._pending = 0.0
        self._now += ns
        self._breakdown[self._pending_cat] += ns
        if self._now >= self._next_tick:
            self._next_tick = self._tick_cb(self._now)

    def advance(self, ns: float, category: str = "other") -> float:
        """Advance the clock by ``ns`` nanoseconds; returns the new time.

        ``category`` labels the time for the breakdown: one of
        :data:`CATEGORIES` (e.g. ``"compute"``, ``"dram"``,
        ``"hit_overhead"``, ``"net_read"``, ``"eviction"``).
        """
        if self._pending:
            self._flush()
        if not ns >= 0:
            raise MiraError(f"cannot advance clock by negative or NaN time {ns}")
        try:
            self._breakdown[category] += ns
        except KeyError:  # the ledger is fixed: refuse, create nothing
            raise unknown_category(category) from None
        self._now += ns
        if self._now >= self._next_tick:
            self._next_tick = self._tick_cb(self._now)
        return self._now

    def wait_until(self, t: float, category: str = "wait") -> float:
        """Advance to time ``t`` if it is in the future; no-op otherwise
        (a NaN ``t`` is not in the past, and :meth:`advance` refuses it)."""
        if self._pending:
            self._flush()
        if not t <= self._now:
            self.advance(t - self._now, category)
        return self._now

    def breakdown(self) -> dict[str, float]:
        """The categories charged so far (non-zero), in registry order."""
        if self._pending:
            self._flush()
        return {cat: ns for cat, ns in self._breakdown.items() if ns}

    def peek_breakdown(self) -> dict[str, float]:
        """The live ledger, every category included (flushed, NOT copied)
        -- read-only use on hot paths like the profiler; callers must not
        mutate it."""
        if self._pending:
            self._flush()
        return self._breakdown

    def category(self, name: str) -> float:
        """Time accumulated under one category."""
        if self._pending:
            self._flush()
        return self._breakdown.get(name, 0.0)

    def reset(self) -> None:
        self._now = 0.0
        self._breakdown = dict.fromkeys(CATEGORIES, 0.0)
        self._pending = 0.0
        self._pending_cat = "compute"
        self._tick_cb = None
        self._next_tick = float("inf")

    def fork(self) -> "VirtualClock":
        """A new clock starting at this clock's current time.

        Used by the thread simulator: each virtual thread runs on a fork of
        the spawning clock and the parent later joins to the max.
        """
        if self._pending:
            self._flush()
        child = VirtualClock()
        child._now = self._now
        return child

    def join(self, other: "VirtualClock") -> None:
        """Merge a forked clock back: jump to its time if later, and fold
        its breakdown into ours."""
        if other._pending:
            other._flush()
        if self._pending:
            self._flush()
        bd = self._breakdown
        for cat, ns in other._breakdown.items():
            bd[cat] += ns
        if other._now > self._now:
            self._now = other._now
        if self._now >= self._next_tick:
            self._next_tick = self._tick_cb(self._now)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:.1f}ns)"
