"""Structured event tracing (the observability substrate).

A :class:`Tracer` collects typed event records from every layer of the
simulator: cache hits/misses/evictions/prefetches, network transfers,
swap faults, section lifecycle, offload dispatches, thread fork/join,
profiling regions, and controller decisions.  Events are emitted in
deterministic simulation order and carry the virtual time of the clock
that produced them, so a trace is a complete, replayable account of *when*
a run's behavior happened -- not just the end-of-run aggregates.

Design constraints:

* **Zero overhead when disabled.**  Subsystems hold a ``tracer``
  attribute that defaults to ``None``; every emission point is guarded by
  a single ``is not None`` test on a local, and the hottest paths
  (section/swap hit paths, generated program bodies) share the guard with
  work they already do.  Nothing is allocated, formatted, or hashed
  unless a tracer is attached.

* **Engine parity.**  The codegen engine and the reference interpreter
  must emit byte-identical traces (``tests/test_engine_parity.py`` and
  ``tests/test_obs_trace.py`` enforce it).  Emission points therefore
  live either in shared subsystems (cache, network, swap, the thread-region
  generator's fork/join) or at mirrored positions in both execution paths
  (offload dispatch).

* **Stable schema.**  The JSONL export is canonical: one header line
  (``schema`` plus any user metadata), then one line per event with
  sorted keys and minimal separators.  The digest is a SHA-256 over the
  event lines only (the header, which may carry free-form metadata, is
  excluded), so two runs are behaviorally identical iff their digests
  match.  Renaming or removing an event kind or field is a schema break
  and must bump :data:`SCHEMA`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Iterator

#: schema identifier written in the JSONL header; bump on breaking change
SCHEMA = "repro.obs/v1"

#: every event kind the schema defines; ``Tracer.emit`` rejects others so
#: a typo'd kind fails loudly instead of silently forking the schema
KINDS = frozenset(
    {
        # cache data path (sections and the swap section, sec="swap")
        "cache.hit",
        "cache.miss",
        "cache.prefetch_hit",
        "cache.evict",
        "cache.prefetch",
        "cache.writeback",
        # swap kernel fault path
        "swap.fault",
        # network transfers
        "net.send",
        "net.recv",
        "net.batch",
        "net.rpc",
        # section lifecycle / reconfiguration
        "sec.open",
        "sec.close",
        "sec.assign",
        # object lifetime (with far-allocator round-trip count)
        "obj.alloc",
        "obj.free",
        # runtime events
        "offload.dispatch",
        "thread.fork",
        "thread.join",
        # profiling
        "prof.region",
        "prof.snapshot",
        # controller decisions
        "ctrl.iter",
        # fault injection / reliability layer (repro.faults): an injected
        # fault detected via timeout, a retry after backoff, the circuit
        # breaker tripping open, an op exhausting its retry budget
        "fault.inject",
        "retry.attempt",
        "fault.breaker",
        "fault.giveup",
        # graceful degradation applied by the cache manager
        "degrade.section",
        # hybrid data plane (repro.cache.hybrid): one online switch of a
        # section group between the swap path and the object path, with
        # the windowed signals that triggered it.  Unlike degradation,
        # switches are a deterministic consequence of the access stream,
        # so traces containing them stay self-replayable.
        "path.switch",
        # pluggable prefetch policies (repro.prefetch): a policy's plan on
        # a demand miss, and the fate of one of its prefetches (used
        # timely/late, or discarded unread).  Only policies with
        # ``traced = True`` emit these; the default Leap-compat policy
        # stays silent so pre-PR-7 golden digests hold.
        "prefetch.plan",
        "prefetch.feedback",
        # memory-system op log (repro.workloads.trace): the *entry* of
        # every public MemorySystem call, with its arguments and entry
        # virtual time.  Emitted only by tracers constructed with
        # ``access_log=True`` -- default tracers never record these, so
        # pre-PR-8 golden digests hold.  A trace containing them is a
        # self-replayable scenario: wait_until(entry time) + re-issuing
        # the call reproduces the run exactly (see DESIGN.md section 4h).
        "mem.access",
        "mem.alloc",
        "mem.plan",
        "mem.free",
        "mem.open",
        "mem.close",
        "mem.prefetch",
        "mem.batch",
        "mem.flush",
        "mem.evict",
        "mem.evict_trail",
        "mem.discard",
        "mem.native",
    }
)

#: the op-log kinds, as a set (the self-replayer dispatches on these)
MEM_OP_KINDS = frozenset(k for k in KINDS if k.startswith("mem."))

#: field names the canonical JSONL encoding claims for index/kind/time;
#: a colliding event field would silently overwrite them on export
_RESERVED = frozenset({"i", "k", "t"})


class Tracer:
    """Collects (kind, virtual-time, fields) event records.

    One tracer per logical run (or per controller optimization, which
    traces all its internal runs).  Attach with
    ``memsys.set_tracer(tracer)`` *before* building the interpreter, or
    pass ``tracer=`` to ``run_plan`` / ``run_on_baseline``.
    """

    __slots__ = ("events", "meta", "access_log")

    def __init__(self, meta: dict | None = None, access_log: bool = False) -> None:
        #: raw event tuples, append-only, in emission order
        self.events: list[tuple[str, float, dict]] = []
        #: free-form run metadata for the JSONL header (never digested)
        self.meta: dict = dict(meta or {})
        #: when True, memory systems additionally record the ``mem.*``
        #: op log (every public call's entry time + arguments), making
        #: the trace self-replayable via ``repro.workloads.trace``
        self.access_log: bool = access_log

    # -- emission (the only hot-ish method) --------------------------------

    def emit(self, kind: str, t: float, **fields) -> None:
        """Record one event at virtual time ``t`` (nanoseconds)."""
        if kind not in KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        if not _RESERVED.isdisjoint(fields):
            raise ValueError(f"{kind}: field names 'i'/'k'/'t' are reserved")
        self.events.append((kind, t, fields))

    def emitter(self, kind: str):
        """A pre-validated emit for one kind, for the hottest sites.

        The kind is checked against the schema once, here; the returned
        closure binds the kind and the append method, so each event costs
        one reserved-name check and one list append.  Emits through it
        are indistinguishable from :meth:`emit` calls -- same tuples,
        same JSONL, same digest.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        append = self.events.append

        def emit_bound(t: float, **fields) -> None:
            if not _RESERVED.isdisjoint(fields):
                raise ValueError(
                    f"{kind}: field names 'i'/'k'/'t' are reserved"
                )
            append((kind, t, fields))

        return emit_bound

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    # -- canonical export --------------------------------------------------

    def lines(self) -> Iterator[str]:
        """Canonical JSONL event lines (no header), one per event."""
        for i, (kind, t, fields) in enumerate(self.events):
            yield json.dumps(
                {"i": i, "k": kind, "t": t, **fields},
                sort_keys=True,
                separators=(",", ":"),
            )

    def header(self) -> str:
        extra = {"access_log": True} if self.access_log else {}
        return json.dumps(
            {"schema": SCHEMA, "events": len(self.events), **extra, **self.meta},
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_jsonl(self) -> str:
        """Header line plus one canonical line per event."""
        body = "\n".join(self.lines())
        return self.header() + ("\n" + body if body else "") + "\n"

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_jsonl())

    def digest(self) -> str:
        """SHA-256 over the canonical event lines (header excluded).

        Stability rules: the digest covers event order, kinds, virtual
        times, and every field value; it does NOT cover ``meta``.  Floats
        serialize via ``repr`` (shortest round-trip form, stable across
        CPython versions), so bit-identical simulations produce identical
        digests on any platform.
        """
        h = hashlib.sha256()
        for line in self.lines():
            h.update(line.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def read_jsonl(path) -> tuple[dict, list[dict]]:
    """Load a trace file; returns ``(header, events)``.

    Accepts headerless streams too (every line an event) for robustness.
    """
    header: dict = {}
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as f:
        for raw in f:
            raw = raw.strip()
            if not raw:
                continue
            rec = json.loads(raw)
            if "schema" in rec and "k" not in rec:
                header = rec
            else:
                events.append(rec)
    return header, events


def load_trace(path) -> tuple[dict, list[dict], list[str]]:
    """Tolerant loader: ``(header, events, warnings)``.

    Unlike :func:`read_jsonl` (which raises on any malformed line), this
    skips lines that do not parse -- typically a truncated tail from a
    run that died mid-write -- and reports each skip as a warning string,
    so the report CLI can still analyze the healthy prefix.
    """
    header: dict = {}
    events: list[dict] = []
    warnings: list[str] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except ValueError:
                warnings.append(f"line {lineno}: malformed JSON skipped")
                continue
            if not isinstance(rec, dict):
                warnings.append(f"line {lineno}: not an event object, skipped")
                continue
            if "schema" in rec and "k" not in rec:
                header = rec
            else:
                events.append(rec)
    return header, events, warnings


def digest_of_events(events: Iterable[dict]) -> str:
    """Digest of already-decoded event dicts (mirrors ``Tracer.digest``)."""
    h = hashlib.sha256()
    for rec in events:
        h.update(
            json.dumps(rec, sort_keys=True, separators=(",", ":")).encode("utf-8")
        )
        h.update(b"\n")
    return h.hexdigest()
