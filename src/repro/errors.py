"""Exception hierarchy for the Mira reproduction.

All library-raised exceptions derive from :class:`MiraError` so callers can
catch everything from this package with a single ``except`` clause.
"""


class MiraError(Exception):
    """Base class for all errors raised by this package."""


class IRError(MiraError):
    """Malformed IR: verification failures, bad operand types, etc."""


class VerificationError(IRError):
    """An IR module failed structural verification."""


class InterpreterError(MiraError):
    """The interpreter hit an illegal state (bad value, missing func, ...)."""


class MemoryError_(MiraError):
    """Memory-system misuse: unknown object, out-of-bounds access, ..."""


class AllocationError(MemoryError_):
    """An allocation could not be satisfied (e.g. AIFM metadata overflow)."""


class ConfigError(MiraError):
    """Invalid cache/section/system configuration."""


class SolverError(MiraError):
    """The section-size ILP had no feasible solution."""


class TraceError(MiraError):
    """Trace frontend misuse (repro.workloads.trace)."""


class TraceFormatError(TraceError):
    """A raw trace file (CSV/JSONL) could not be parsed."""


class ReplayDivergence(TraceError):
    """A replayed trace drifted from the recorded run: the replay clock
    overtook a recorded entry time, an object id came back different, or
    the trace contains events replay cannot reproduce (thread forks,
    injected faults, degradation)."""


class ObsError(MiraError):
    """Observability-layer misuse: a metric name re-registered under a
    conflicting type, an invalid telemetry window or SLO spec, ..."""
