"""The ``PrefetchPolicy`` strategy interface and the policy factory.

Contract between a policy and its host memory system:

* ``bind(memsys)`` -- called once at system construction; gives the
  policy access to the address space (for page -> object resolution).
* ``prepare(module, plan=None)`` -- called once per run before
  execution; the programmed policy lowers its page streams here (or
  adopts a program already injected into the Mira plan's notes).
* ``record(page)`` -- called for every page touched by an access, hits
  included, in access order -- or, for a policy that declares
  ``repeat_is_noop``, at least once per page *transition*: the host may
  skip a call whose page is the one it passed in the call before.  That
  is what lets the fold walker (``CacheManager.fold_chunk``) fold a run
  of hits on one page into a single ``record``.  ``leap``, ``markov`` and ``learned`` declare it
  (each ``record`` starts with ``if page == last: return``);
  ``programmed`` does not (a repeat can advance its stream cursor), so
  hosts keep calling it per page touched.
* ``plan(page)`` -- called on a demand miss (true fault or a stall on an
  in-flight prefetch); returns the pages to prefetch, nearest first; the
  host books the absent, non-negative ones (``SwapSection.prefetch_pages``).
* ``feedback(page, useful, timely)`` -- a prefetched page's fate: used
  before any stall (timely; told just ahead of that touch's ``record``),
  used after stalling on it (late), or discarded untouched (wasted).

Determinism rules: integer-only state, no wall-clock or RNG reads at
decision time.  ``seed`` is part of the constructor signature so future
stochastic policies stay reproducible; the built-in policies are pure
online learners and ignore it.
"""

from __future__ import annotations

import os

#: environment knob read by ``Leap`` (and ``policy_from_env``)
POLICY_ENV = "REPRO_PREFETCH"

#: policy names accepted by :func:`make_policy`
POLICY_NAMES = ("leap", "markov", "programmed", "learned", "none")


class PrefetchPolicy:
    """Base strategy: bookkeeping + no-op decisions.

    Subclasses implement ``_plan`` (and usually ``record``); the public
    ``plan`` wrapper keeps the accuracy/coverage counters consistent
    across all policies.
    """

    name = "abstract"
    #: whether planning/feedback decisions appear as trace events
    #: (``prefetch.plan`` / ``prefetch.feedback``).  The Leap-compat
    #: policy keeps this False so committed golden digests are stable.
    traced = True
    #: a fact about ``record``, not an option: True iff ``record(p)``
    #: directly after ``record(p)`` changes nothing, so a host may call
    #: it once per page transition instead of once per page touched
    repeat_is_noop = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.memsys = None
        #: plan() invocations == demand misses seen (faults + late hits)
        self.plans = 0
        #: pages proposed by plan()
        self.planned = 0
        #: pages actually injected by the host (post residency filter)
        self.issued = 0
        self.useful_timely = 0
        self.useful_late = 0
        self.wasted = 0

    # -- host wiring -----------------------------------------------------------

    def bind(self, memsys) -> None:
        """Attach to a memory system (address space, clock, swap)."""
        self.memsys = memsys

    def prepare(self, module, plan=None, entry: str = "main") -> None:
        """Per-run hook before execution (IR + optional Mira plan)."""

    # -- decision hooks --------------------------------------------------------

    def record(self, page: int) -> None:
        """Observe one touched page (hits included)."""

    def plan(self, page: int) -> list[int]:
        out = self._plan(page)
        self.plans += 1
        self.planned += len(out)
        return out

    def _plan(self, page: int) -> list[int]:
        return []

    def feedback(self, page: int, useful: bool, timely: bool = False) -> None:
        if not useful:
            self.wasted += 1
        elif timely:
            self.useful_timely += 1
        else:
            self.useful_late += 1

    # -- metrics ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw counters plus derived accuracy/coverage/timeliness.

        * accuracy  = used prefetches / issued prefetches
        * coverage  = first touches served by a prefetch / first touches
          that would otherwise fault (timely hits never reach ``plan``,
          late hits do -- hence ``timely + plans`` in the denominator)
        * timeliness = timely / used
        * waste_ratio = wasted / issued
        """
        used = self.useful_timely + self.useful_late
        demand = self.useful_timely + self.plans
        return {
            "policy": self.name,
            "plans": self.plans,
            "planned": self.planned,
            "issued": self.issued,
            "useful_timely": self.useful_timely,
            "useful_late": self.useful_late,
            "wasted": self.wasted,
            "accuracy": used / self.issued if self.issued else 0.0,
            "coverage": used / demand if demand else 0.0,
            "timeliness": self.useful_timely / used if used else 0.0,
            "waste_ratio": self.wasted / self.issued if self.issued else 0.0,
        }


def make_policy(name: str | None, seed: int = 0) -> PrefetchPolicy | None:
    """Instantiate a policy by name (``None``/"none"/"off" -> no policy)."""
    key = name.strip().lower() if name is not None else "leap"
    if key in ("none", "off", ""):
        return None
    if key in ("leap", "majority"):
        from repro.prefetch.majority import MajorityPolicy

        return MajorityPolicy(seed)
    if key == "markov":
        from repro.prefetch.markov import MarkovPolicy

        return MarkovPolicy(seed)
    if key == "programmed":
        from repro.prefetch.programmed import ProgrammedPolicy

        return ProgrammedPolicy(seed)
    if key == "learned":
        from repro.prefetch.learned import LearnedPolicy

        return LearnedPolicy(seed)
    raise ValueError(
        f"unknown prefetch policy {name!r}; expected one of {POLICY_NAMES}"
    )


def policy_from_env(default: str = "leap", seed: int = 0):
    """Resolve the policy selected by ``$REPRO_PREFETCH`` (Leap's knob)."""
    return make_policy(os.environ.get(POLICY_ENV, default), seed)
