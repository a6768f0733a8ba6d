"""Trace-driven scenario frontend (no IR in the loop).

Two ways to produce an op stream, one way to run it:

* **Synthetic generators** (:mod:`.generators`): seeded zipf /
  sequential / pointer-chase / mixed-phase address streams, packaged as
  a pinned corpus of named :class:`ScenarioSpec` scenarios.
* **Imported traces** (:mod:`.raw`): ``addr,is_write[,tid]`` CSV/JSONL
  files, schema-tagged, round-trip safe.
* **Replay** (:mod:`.replay`): drives any op stream through the real
  simulated memory systems (FastSwap, Leap, AIFM, the three Mira cache
  geometries) under the virtual clock, standing in for the interpreter's
  uniform per-access charges.

Plus **self-replay** (:mod:`.selfreplay`): any run traced with
``Tracer(access_log=True)`` -- IR workloads included -- records a
``mem.*`` op log that replays bit-exactly: same virtual time, same event
stream, same counters.  Its format is one table,
:data:`repro.cache.oplog.OP_LOG` (a row per memory verb; a call nested
in a logged call is not logged).  ``python -m repro.workloads.trace
--help`` is the command-line face of all of it.
"""

from repro.workloads.trace.generators import (
    ACCESS_BYTES,
    SCENARIOS,
    ScenarioSpec,
    mixed_ops,
    pointer_chase_ops,
    sequential_ops,
    zipf_ops,
)
from repro.workloads.trace.raw import RAW_SCHEMA, ops_digest, read_raw, write_raw
from repro.workloads.trace.replay import (
    TRACE_SYSTEMS,
    TraceRunResult,
    make_system,
    regions_from_ops,
    replay_ops,
    run_imported,
    run_scenario,
    system_counters,
)
from repro.workloads.trace.selfreplay import (
    EXCLUDED_COMPARE,
    FORBIDDEN_KINDS,
    REPLAY_SCHEMA,
    ReplayResult,
    compare_traces,
    fresh_system_for,
    replay_events,
    replay_trace_file,
    split_runs,
)

__all__ = [
    "ACCESS_BYTES",
    "EXCLUDED_COMPARE",
    "FORBIDDEN_KINDS",
    "RAW_SCHEMA",
    "REPLAY_SCHEMA",
    "SCENARIOS",
    "TRACE_SYSTEMS",
    "ReplayResult",
    "ScenarioSpec",
    "TraceRunResult",
    "compare_traces",
    "fresh_system_for",
    "make_system",
    "mixed_ops",
    "ops_digest",
    "pointer_chase_ops",
    "read_raw",
    "regions_from_ops",
    "replay_events",
    "replay_ops",
    "replay_trace_file",
    "run_imported",
    "run_scenario",
    "sequential_ops",
    "split_runs",
    "system_counters",
    "write_raw",
    "zipf_ops",
]
