"""Shared-resource contention for the multi-thread simulation.

Virtual threads run on private clocks; a :class:`SerialResource` models
something only one thread can use at a time (e.g. the kernel swap lock that
bottlenecks Linux-based swap systems -- paper section 6.2, Fig. 24/25).
"""

from __future__ import annotations

from repro.memsim.clock import VirtualClock


class SerialResource:
    """A mutually-exclusive resource on the virtual timeline.

    ``acquire(clock, hold_ns)`` makes the calling thread wait until the
    resource frees, then holds it for ``hold_ns``.  Because virtual threads
    are simulated one after another, the busy timeline is just a
    high-water mark.
    """

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self.free_at: float = 0.0
        self.contended_ns: float = 0.0
        self.acquisitions: int = 0
        #: threads currently competing (set by the thread simulator);
        #: inside a parallel region each acquisition expects to queue
        #: behind contention-1 other holders on average
        self.contention: int = 1

    def acquire(self, clock: VirtualClock, hold_ns: float) -> None:
        self.acquisitions += 1
        if self.contention > 1:
            # threads are simulated sequentially, so a shared timeline
            # over-serializes; model steady-state queueing instead
            queue_ns = hold_ns * (self.contention - 1)
            self.contended_ns += queue_ns
            clock.advance(queue_ns, "lock_wait")
            clock.advance(hold_ns, "lock_hold")
            return
        if self.free_at > clock.now:
            self.contended_ns += self.free_at - clock.now
            clock.wait_until(self.free_at, "lock_wait")
        self.free_at = clock.now + hold_ns
        clock.advance(hold_ns, "lock_hold")
