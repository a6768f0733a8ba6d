"""Self-replay: re-executing a recorded ``mem.*`` op log exactly.

A tracer built with ``access_log=True`` records the *entry* of every
memory verb -- virtual time plus arguments -- as one row of
:data:`repro.cache.oplog.OP_LOG` encodes it; a call nested in another
logged call is not recorded.  Replay is then a pure loop: wait until the
recorded entry time, re-issue the row's verb with the arguments it
decodes on an identically constructed fresh system.  Everything the
call did internally (hit overheads, fault paths, network bookings,
evictions, prefetch settling, the nested calls) is deterministic given
the same state, clock, and call order, so the replayed run reproduces
the original *bit-exactly*: same virtual times, same event stream, same
per-section hit/miss/eviction counters.  The equivalence contract is
pinned by ``tests/test_trace_replay.py`` across all five IR workloads
(DESIGN.md section 4h).  Beyond the table, replay knows three things:
an allocation's plan-side section (the lookahead of
:func:`_replay_alloc`), a driver's own ``sec.assign``, and that a hybrid
group already planned is not planned again.

Interpreter-side time (compute, DRAM charges, RPC round trips) is not
recorded per se; it reappears as the gap to the next recorded entry and
is absorbed by ``wait_until``.  The strict-overshoot rule is the
divergence detector: if the replay clock is ever *past* a recorded entry
time, the replayed system did more work than the original -- state drift
-- and replay aborts rather than silently producing a near-miss.

Not replayable (rejected up front): multi-threaded runs (forked clocks
interleave per-thread time), fault-injection runs and the degradations
they trigger (the injector rolls its RNG on un-recorded internal calls).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from repro.cache.oplog import OP_LOG
from repro.errors import ReplayDivergence, TraceError
from repro.memsim.cost_model import CostModel
from repro.obs.trace import MEM_OP_KINDS, Tracer, read_jsonl
from repro.workloads.trace.replay import system_counters

#: schema tag for the replay contract (bump on any change to what the
#: op log records or how replay re-issues it)
REPLAY_SCHEMA = "repro.trace-replay/v1"

#: event kinds whose presence makes a trace non-replayable
FORBIDDEN_KINDS = frozenset(
    {
        "thread.fork",
        "fault.inject",
        "retry.attempt",
        "fault.breaker",
        "fault.giveup",
        "degrade.section",
    }
)

#: kinds excluded from trace comparison: emitted by machinery outside the
#: MemorySystem surface (interpreter, profiler, controller), which replay
#: deliberately does not re-run
EXCLUDED_COMPARE = frozenset(
    {
        "prof.region",
        "prof.snapshot",
        "ctrl.iter",
        "offload.dispatch",
        "thread.fork",
        "thread.join",
        "net.rpc",
    }
)


def split_runs(events: list[dict]) -> list[list[dict]]:
    """Split a multi-run trace into per-run segments.

    Every run starts on a fresh clock at 0, so a drop in event time marks
    a run boundary (e.g. a controller optimization traces its profiling
    runs and the final run into one file).  A single-run trace comes back
    as one segment.
    """
    runs: list[list[dict]] = []
    current: list[dict] = []
    prev_t = float("-inf")
    for ev in events:
        t = ev["t"]
        if t < prev_t and current:
            runs.append(current)
            current = []
        current.append(ev)
        prev_t = t
    if current:
        runs.append(current)
    return runs


@dataclass
class ReplayResult:
    """Outcome of one replayed segment."""

    elapsed_ns: float
    num_ops: int
    counters: dict
    system: object


def _overshoot(idx: int, kind: str, now: float, t: float) -> ReplayDivergence:
    return ReplayDivergence(
        f"replay clock overshot event {idx} ({kind}): clock at {now!r} ns "
        f"but the recorded entry is {t!r} ns -- the replayed system did "
        f"work the original did not"
    )


def replay_events(system, events: list[dict], elapsed_ns: float | None = None):
    """Replay one run segment's op log through a fresh ``system``.

    ``system`` must be constructed exactly as the recorded run's was
    (same class, cost model, local memory, policy); its clock must be at
    0.  ``elapsed_ns`` optionally extends the clock to the recorded run's
    total time (trailing interpreter work after the last memory op).
    Raises :class:`~repro.errors.ReplayDivergence` on any drift.
    """
    clock = system.clock
    assignment = getattr(system, "_assignment", None)
    pending = getattr(system, "pending_assignment", None)
    for idx, ev in enumerate(events):
        kind = ev["k"]
        if kind in FORBIDDEN_KINDS:
            raise ReplayDivergence(
                f"event {idx} is {kind!r}: traces from multi-threaded or "
                f"fault-injected runs are not replayable"
            )
        if kind == "sec.assign":
            # an assign performed as a consequence of a replayed
            # mem.alloc/mem.open has already run (current assignment
            # matches); anything else was an explicit assign() call by
            # the driver (the raw-trace frontend) -- re-issue it
            if assignment is not None and assignment.get(ev["obj"]) != ev["sec"]:
                system.assign(ev["obj"], ev["sec"])
            continue
        op = OP_LOG.get(kind)
        if op is None:
            continue  # internal consequence event; re-emitted by replay
        t = ev["t"]
        if clock.now > t:
            raise _overshoot(idx, kind, clock.now, t)
        clock.wait_until(t)
        verb, _, args = op
        if verb == "plan_group":
            if not hasattr(system, "plan_group"):
                raise TraceError(
                    f"event {idx} is a hybrid path group plan but the replay "
                    f"system {type(system).__name__} has no plan_group()"
                )
            if ev["sec"] in system.groups():
                # planned before the tracer attached (make_system): its
                # set_tracer has just logged this plan again
                continue
        if verb == "allocate":
            _replay_alloc(system.allocate, args(ev), events, idx, pending)
        else:
            getattr(system, verb)(*args(ev))
    if elapsed_ns is not None:
        if clock.now > elapsed_ns:
            raise _overshoot(len(events), "end-of-run", clock.now, elapsed_ns)
        clock.wait_until(elapsed_ns)
    return ReplayResult(
        elapsed_ns=clock.now,
        num_ops=sum(1 for ev in events if ev["k"] in MEM_OP_KINDS),
        counters=system_counters(system),
        system=system,
    )


def _replay_alloc(allocate, args, events, idx, pending) -> None:
    """Re-issue one recorded allocation.

    The recorded run may have had a plan-side ``pending_assignment`` for
    this name (applied inside ``allocate``, *before* the ``obj.alloc``
    event fires).  The plan itself is not in the trace, but its effect
    is: a ``sec.assign`` for the new object id appearing between this
    ``mem.alloc`` and its ``obj.alloc``.  Look ahead for that signature,
    re-install the pending assignment for just this call, and verify the
    fresh address space handed out the recorded id.
    """
    expected_id = None
    assigns: list[dict] = []
    for nxt in events[idx + 1 :]:
        nk = nxt["k"]
        if nk == "obj.alloc":
            expected_id = nxt["obj"]
            break
        if nk == "sec.assign":
            assigns.append(nxt)
    section = next(
        (a["sec"] for a in assigns if a["obj"] == expected_id), None
    )
    name = args[2]
    inject = section is not None and pending is not None
    sentinel = object()
    saved = pending.get(name, sentinel) if inject else sentinel
    if inject:
        pending[name] = section
    try:
        obj = allocate(*args)
    finally:
        if inject:
            if saved is sentinel:
                pending.pop(name, None)
            else:
                pending[name] = saved
    if expected_id is not None and obj.obj_id != expected_id:
        raise ReplayDivergence(
            f"event {idx}: replayed allocation of {name!r} got object id "
            f"{obj.obj_id}, recorded run got {expected_id}"
        )


# -- trace comparison --------------------------------------------------------


def canonical_lines(
    events: Iterable, exclude: frozenset = EXCLUDED_COMPARE
) -> list[str]:
    """Canonical JSON strings for comparison: decoded event dicts (the
    ``"i"`` index stripped) and live ``Tracer.events`` tuples normalize
    to the same line, so a file and an in-memory re-trace compare 1:1."""
    out: list[str] = []
    for ev in events:
        if isinstance(ev, dict):
            kind = ev["k"]
            if kind in exclude:
                continue
            rec = {key: v for key, v in ev.items() if key != "i"}
        else:
            kind, t, fields = ev
            if kind in exclude:
                continue
            rec = {"k": kind, "t": t, **fields}
        out.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return out


def compare_traces(recorded: Iterable, replayed: Iterable, context: str = "") -> int:
    """Assert two event streams are identical (modulo excluded kinds).

    Returns the number of compared events; raises
    :class:`~repro.errors.ReplayDivergence` naming the first difference.
    """
    a = canonical_lines(recorded)
    b = canonical_lines(replayed)
    where = f" ({context})" if context else ""
    for i, (la, lb) in enumerate(zip(a, b)):
        if la != lb:
            raise ReplayDivergence(
                f"trace divergence{where} at compared event {i}:\n"
                f"  recorded: {la}\n  replayed: {lb}"
            )
    if len(a) != len(b):
        raise ReplayDivergence(
            f"trace divergence{where}: {len(a)} recorded events vs "
            f"{len(b)} replayed"
        )
    return len(a)


# -- file-level entry (scripts/make_trace.py output) -------------------------


def fresh_system_for(header: dict, cost: CostModel | None = None):
    """Construct the system a recorded trace ran on, from its metadata.

    Needs ``system`` and ``local_mem_bytes`` in the header (traces from
    ``scripts/make_trace.py`` carry both).  ``mira`` traces come back as
    a bare CacheManager: the recorded ``mem.open`` events rebuild its
    sections during replay.
    """
    system = header.get("system")
    local = header.get("local_mem_bytes")
    if system is None or local is None:
        raise TraceError(
            "trace header lacks 'system'/'local_mem_bytes' metadata; "
            "re-record it with scripts/make_trace.py"
        )
    cost = cost or CostModel()
    if system == "mira":
        from repro.cache.manager import CacheManager

        return CacheManager(cost, local)
    if system == "hybrid":
        # bare manager: the recorded mem.plan events rebuild the path
        # groups during replay (default HybridConfig -- thresholds are
        # part of the replay contract, not the trace)
        from repro.cache.hybrid import HybridManager

        return HybridManager(cost, local)
    from repro.workloads.trace.replay import make_system

    return make_system(system, local, cost=cost)


def replay_trace_file(
    path, cost: CostModel | None = None, run_index: int = -1
) -> ReplayResult:
    """Replay a recorded trace file and verify it byte-for-byte.

    Loads the file, splits multi-run traces (a traced ``mira``
    optimization records every internal run), replays run ``run_index``
    (default: the last -- the final measured run) on a freshly built
    system with a fresh ``access_log`` tracer, and compares the re-emitted
    events against the recording.  Returns the :class:`ReplayResult`.
    """
    header, events = read_jsonl(path)
    if not header.get("access_log"):
        raise TraceError(
            f"{path}: trace was not recorded with access_log=True, "
            f"so it carries no mem.* op log to replay"
        )
    runs = split_runs(events)
    if not runs:
        raise TraceError(f"{path}: trace contains no events")
    segment = runs[run_index]
    system = fresh_system_for(header, cost)
    tracer = Tracer(access_log=True)
    system.set_tracer(tracer)
    elapsed = header.get("elapsed_ns") if run_index in (-1, len(runs) - 1) else None
    result = replay_events(system, segment, elapsed_ns=elapsed)
    compare_traces(segment, tracer.events, context=f"run {run_index} of {path}")
    return result
