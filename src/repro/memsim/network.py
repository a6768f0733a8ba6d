"""Simulated RDMA-class network between the compute and far-memory nodes.

Supports the paper's two communication methods (section 4.7):

* **one-sided** -- the compute node reads/writes far memory directly with
  zero copy; cost = RTT + wire time.
* **two-sided** -- data travels as a message that the far node's CPU must
  receive and copy; cost adds per-message CPU time and per-byte copy time,
  but only the *requested* bytes travel, which is what makes two-sided the
  right choice for partial-structure (selective) transmission.

Two verbs move data: :meth:`Network.read` stalls the clock for the link
to drain and the transfer; :meth:`Network.post` (prefetch, write-back)
books the wire -- ``start = max(free_at, now); free_at = start + wire``
-- and returns when the data is ready, so a consumer that arrives early
waits only for the remainder.  :meth:`Network.rpc` is unqueued.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import MemoryError_
from repro.faults.reliability import CircuitBreaker
from repro.memsim.clock import VirtualClock
from repro.memsim.cost_model import CostModel, grid


class TransferKind(enum.Enum):
    """Which verb a transfer used."""

    ONE_SIDED_READ = "1s-read"
    ONE_SIDED_WRITE = "1s-write"
    TWO_SIDED = "2s-msg"
    RPC = "rpc"

    # members are singletons, so identity hashing is sound; Enum.__hash__
    # is a Python-level call and shows up in per-transfer accounting
    __hash__ = object.__hash__


# bound once: ``TransferKind.X`` is a metaclass attribute lookup, and the
# transfer methods below would pay one per transfer
_READ_1S = TransferKind.ONE_SIDED_READ
_WRITE_1S = TransferKind.ONE_SIDED_WRITE
_MSG_2S = TransferKind.TWO_SIDED
#: one_sided -> (read kind, write kind)
_KINDS = {True: (_READ_1S, _WRITE_1S), False: (_MSG_2S, _MSG_2S)}


@dataclass
class NetworkStats:
    """Aggregate traffic counters, per transfer kind (bumped in place by
    the transfer methods; every kind is keyed from the start, in
    :class:`TransferKind` order)."""

    bytes_read: int = 0
    bytes_written: int = 0
    messages: int = 0
    by_kind: dict[TransferKind, int] = field(
        default_factory=lambda: dict.fromkeys(TransferKind, 0)
    )

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def publish(self, registry) -> None:
        """Publish the counters into a :class:`repro.obs.MetricsRegistry`
        (the kinds that moved bytes, in registry order)."""
        registry.gauge("net.bytes_read").set(self.bytes_read)
        registry.gauge("net.bytes_written").set(self.bytes_written)
        registry.gauge("net.messages").set(self.messages)
        for kind, nbytes in self.by_kind.items():
            if nbytes:
                registry.gauge(f"net.kind.{kind.value}.bytes").set(nbytes)


class Network:
    """Point-to-point link between the local node and far memory."""

    def __init__(self, cost: CostModel, clock: VirtualClock) -> None:
        self.cost = cost
        self.clock = clock
        self.stats = NetworkStats()
        #: attached :class:`repro.obs.Tracer`, or None (tracing disabled)
        self.tracer = None
        #: virtual time at which the link is next free; models bandwidth
        #: contention between overlapping async transfers
        self._link_free_at: float = 0.0
        #: active threads sharing the link (set by the thread simulator);
        #: each sees 1/contention of the bandwidth
        self.contention: int = 1
        #: attached :class:`repro.faults.FaultInjector`, or None (healthy
        #: link); installed per run via :meth:`install_faults`
        self.faults = None
        #: circuit breaker built from the fault plan (None when healthy)
        self.breaker = None
        #: callback fired (with the op name) when the breaker trips open;
        #: the cache manager hooks this to trigger graceful degradation
        self.on_persistent_failure = None
        # per-transfer constants, resolved once (per-access path)
        self._rtt_ns = cost.net_rtt_ns
        self._issue_ns = cost.cpu_op_ns
        #: nbytes -> (wire ns at full bandwidth, what a two-sided message
        #: adds: far-CPU receive + copy).  Bytes become durations once per
        #: size (a section only ever moves its transfer size, swap only
        #: pages), so no verb divides by a rate
        self._sizes: dict[int, tuple[float, float]] = {}

    # -- transfers ---------------------------------------------------------
    # A transfer is ``(wire, base)``: link time (``contention`` x the full-
    # bandwidth time) and latency beside it (RTT, plus the far CPU when
    # two-sided), from ``_sizes`` when healthy, else from :meth:`_scaled`
    # -- the same values at unit scales: grid sums are exact in any order.

    def read(
        self,
        nbytes: int,
        one_sided: bool = True,
        n: int = 1,
        behind: int = 0,
        gap: float = 0.0,
    ) -> float:
        """Synchronously fetch ``nbytes``; advances the clock; returns the
        total stall (link queue wait + fault penalty + transfer).

        ``n > 1`` or ``behind`` books a folded run of ``n`` reads on an
        idle, healthy, untraced link, ``behind`` of which each queue right
        behind a same-size write-back that went out ``gap`` ns of clock
        before the read (the victims of a run of misses).  A sync read
        drains the link, so no pair overlaps the next and the run is closed
        form: the traffic of both directions, ``behind`` issues under
        ``net_issue``, ``behind`` times :meth:`behind_wait` under
        ``net_wait`` (no charge when it is 0) and ``n`` transfers under
        ``net_read``.  The link is left idle and the return value is the
        run's total stall.  Under a fault plan each read rolls its own
        fault, so a run is refused."""
        if self.faults is not None and (n > 1 or behind):
            raise MemoryError_("a run of reads cannot be booked on a faulted link")
        kind = _READ_1S if one_sided else _MSG_2S
        total = n * nbytes
        stats = self.stats
        stats.messages += n + behind
        stats.by_kind[kind] += total
        stats.bytes_read += total
        wait = self._drain_link() if self._link_free_at > 0.0 else 0.0
        if self.faults is None:
            try:
                wire, msg = self._sizes[nbytes]
            except KeyError:
                wire, msg = self._size(nbytes)
            wire *= self.contention
            base = self._rtt_ns if one_sided else self._rtt_ns + msg
        else:
            wait += self._fault_penalty("read")
            wire, base = self._scaled(nbytes, one_sided, self.clock.now)
        clock = self.clock
        if behind:
            written = behind * nbytes
            stats.by_kind[_WRITE_1S if one_sided else _MSG_2S] += written
            stats.bytes_written += written
            clock.advance(behind * self._issue_ns, "net_issue")
            queued = self.behind_wait(nbytes, gap)
            if queued:
                clock.advance(behind * queued, "net_wait")
                wait += behind * queued
        ns = base + wire
        clock.advance(n * ns, "net_read")
        tr = self.tracer
        if tr is not None:
            tr.emit("net.recv", clock.now, bytes=nbytes, one_sided=one_sided, ns=ns)
        return wait + n * ns

    def behind_wait(self, nbytes: int, gap: float = 0.0) -> float:
        """How long a sync read of ``nbytes`` waits on a healthy link that
        was idle when a same-size write-back went out ``gap`` ns of clock
        before it: what is left of the write-back's wire time after its
        issue and the gap, or 0."""
        try:
            wire = self._sizes[nbytes][0]
        except KeyError:
            wire = self._size(nbytes)[0]
        wait = wire * self.contention - self._issue_ns - gap
        return wait if wait > 0.0 else 0.0

    def post(self, nbytes: int, one_sided: bool = True, write: bool = False) -> float:
        """Issue an asynchronous transfer: a prefetch, or with ``write`` a
        write-back.  Books its wire time on the link no earlier than now,
        charges only the issue cost, and returns the completion time.  A
        fault lands on that time (:meth:`_async_fault`), not on the
        issuing thread."""
        kind = (_WRITE_1S if write else _READ_1S) if one_sided else _MSG_2S
        stats = self.stats
        stats.messages += 1
        stats.by_kind[kind] += nbytes
        if write:
            stats.bytes_written += nbytes
        else:
            stats.bytes_read += nbytes
        clock = self.clock
        now = clock.now
        if self.faults is None:
            try:
                wire, msg = self._sizes[nbytes]
            except KeyError:
                wire, msg = self._size(nbytes)
            wire *= self.contention
            base = self._rtt_ns if one_sided else self._rtt_ns + msg
        else:
            penalty = self._async_fault(write)
            wire, base = self._scaled(nbytes, one_sided, now)
            base += penalty
        free_at = self._link_free_at
        self._link_free_at = ready = (free_at if free_at > now else now) + wire
        ready += base
        clock.advance(self._issue_ns, "net_issue")
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "net.send" if write else "net.recv",
                clock.now,
                bytes=nbytes,
                one_sided=one_sided,
                ready=ready,
                issue=self._issue_ns,
            )
        return ready

    def link(self, nbytes: int, one_sided: bool):
        """Lend the link to a caller that books a run of posts of
        ``nbytes`` itself, by :meth:`post`'s rule on a local ``now`` and
        ``free_at``: ``(now, free_at, wire, base, issue)``, settled by
        :meth:`posted`.  None -- post by post -- under a fault plan or a
        tracer."""
        if self.faults is not None or self.tracer is not None:
            return None
        try:
            wire, msg = self._sizes[nbytes]
        except KeyError:
            wire, msg = self._size(nbytes)
        base = self._rtt_ns if one_sided else self._rtt_ns + msg
        free_at = self._link_free_at
        return self.clock.now, free_at, wire * self.contention, base, self._issue_ns

    def posted(self, nbytes, one_sided, reads: int, writes: int, free_at) -> None:
        """Settle a run booked on :meth:`link`: ``reads`` prefetches and
        ``writes`` write-backs, the link free at ``free_at``, the issues
        charged as one ``net_issue``."""
        read, write = _KINDS[one_sided]
        stats = self.stats
        stats.messages += reads + writes
        stats.by_kind[read] += reads * nbytes
        stats.by_kind[write] += writes * nbytes
        stats.bytes_read += reads * nbytes
        stats.bytes_written += writes * nbytes
        self._link_free_at = free_at
        self.clock.advance((reads + writes) * self._issue_ns, "net_issue")

    def rpc(self, request_bytes: int, response_bytes: int) -> float:
        """A two-sided RPC round trip (function offloading)."""
        total = request_bytes + response_bytes
        stats = self.stats
        stats.messages += 1
        stats.by_kind[TransferKind.RPC] += total
        # the request travels out, the response travels back
        stats.bytes_written += request_bytes
        stats.bytes_read += response_bytes
        flt = self.faults
        penalty = 0.0
        if flt is None:
            ns = (
                self.cost.rpc_ns
                + self.cost.transfer_ns(total)
                + self.cost.two_sided_msg_ns
            )
        else:
            penalty = self._fault_penalty("rpc")
            now = self.clock.now
            bw_scale, _ = flt.link_scales(now)
            far = flt.far_scale(now)
            ns = grid(
                (self.cost.rpc_ns + self.cost.two_sided_msg_ns) * far
            ) + grid(self.cost.transfer_ns(total) * bw_scale)
        self.clock.advance(ns, "rpc")
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "net.rpc", self.clock.now, req=request_bytes, resp=response_bytes, ns=ns
            )
        return penalty + ns

    # -- fault injection / reliability -------------------------------------

    def install_faults(self, injector) -> None:
        """Attach a per-run :class:`repro.faults.FaultInjector` (None to
        disable).  Builds the circuit breaker from the injector's plan."""
        self.faults = injector
        if injector is None:
            self.breaker = None
            return
        plan = injector.plan
        self.breaker = CircuitBreaker(plan.breaker_threshold, plan.breaker_cooldown_ns)

    def _drain_link(self) -> float:
        """An async transfer booked the wire: a sync op starts no earlier
        than the link is free.  Returns the queue wait charged."""
        clock = self.clock
        now = clock.now
        free_at = self._link_free_at
        self._link_free_at = 0.0
        if free_at > now:
            clock.wait_until(free_at, "net_wait")
            return free_at - now
        return 0.0

    def _fault_penalty(self, op: str) -> float:
        """The reliability loop for one sync op: roll for a fault, pay the
        detection timeout, back off exponentially, retry up to the plan's
        budget; consecutive failures trip the circuit breaker, which fails
        fast while open and reports upward via ``on_persistent_failure``.
        Completion is eventually forced -- the data is simulated, so a
        given-up op still transfers, at whatever the degraded link costs.
        Charges the clock; returns the total penalty in virtual ns."""
        flt = self.faults
        plan = flt.plan
        fstats = flt.stats
        br = self.breaker
        clock = self.clock
        tr = self.tracer
        timeout_ns = plan.timeout_ns
        penalty = 0.0
        attempt = 0
        while True:
            attempt += 1
            if not br.allows(clock.now):
                # breaker open: fail fast -- no injection, no retries; the
                # caller proceeds straight to the (degraded) transfer
                fstats.fast_fails += 1
                return penalty
            fault = flt.roll()
            if fault is None:
                br.record_success()
                return penalty
            if tr is not None:
                tr.emit(
                    "fault.inject",
                    clock.now,
                    op=op,
                    fault=fault,
                    attempt=attempt,
                    timeout=timeout_ns,
                )
            clock.advance(timeout_ns, "net_timeout")
            penalty += timeout_ns
            fstats.timeout_wait_ns += timeout_ns
            if br.record_failure(clock.now):
                fstats.breaker_trips += 1
                if tr is not None:
                    tr.emit("fault.breaker", clock.now, op=op, trips=br.trips)
                cb = self.on_persistent_failure
                if cb is not None:
                    cb(op)
                return penalty
            if attempt > plan.max_retries:
                fstats.giveups += 1
                if tr is not None:
                    tr.emit("fault.giveup", clock.now, op=op, attempts=attempt)
                return penalty
            backoff = plan.backoff_ns(attempt)
            fstats.retries += 1
            fstats.backoff_ns += backoff
            if tr is not None:
                tr.emit(
                    "retry.attempt", clock.now, op=op, attempt=attempt, backoff=backoff
                )
            clock.advance(backoff, "net_backoff")
            penalty += backoff

    def _async_fault(self, write: bool) -> float:
        """Roll for a fault on an async transfer.  A lost issue is detected
        and re-issued in the background, so the timeout + one backoff delay
        completion instead of stalling the issuer, and the circuit breaker
        is left alone (no synchronous failure signal).  Returns the delay."""
        flt = self.faults
        fault = flt.roll()
        if fault is None:
            return 0.0
        plan = flt.plan
        backoff = plan.backoff_ns(1)
        fstats = flt.stats
        fstats.retries += 1
        fstats.backoff_ns += backoff
        fstats.timeout_wait_ns += plan.timeout_ns
        tr = self.tracer
        if tr is not None:
            op = "write_async" if write else "read_async"
            now = self.clock.now
            tr.emit("fault.inject", now, op=op, fault=fault, attempt=1)
            tr.emit("retry.attempt", now, op=op, attempt=1, backoff=backoff)
        return plan.timeout_ns + backoff

    def _size(self, nbytes: int) -> tuple[float, float]:
        """First sight of a transfer size: fill its ``_sizes`` entry."""
        cost = self.cost
        # (an exact difference: both latencies are sums of grid values)
        entry = self._sizes[nbytes] = (
            cost.transfer_ns(nbytes),
            cost.two_sided_ns(nbytes) - cost.one_sided_ns(nbytes),
        )
        return entry

    def _scaled(self, nbytes: int, one_sided: bool, now: float) -> tuple[float, float]:
        """``(wire, base)`` of one transfer with the degradation windows
        active at ``now`` applied: a scale makes a new duration, so each
        product is snapped to the time grid."""
        flt = self.faults
        bw_scale, rtt_scale = flt.link_scales(now)
        wire, msg = self._sizes.get(nbytes) or self._size(nbytes)
        wire = grid(wire * bw_scale) * self.contention
        base = grid(self._rtt_ns * rtt_scale)
        if not one_sided:
            base += grid(msg * flt.far_scale(now))
        return wire, base
