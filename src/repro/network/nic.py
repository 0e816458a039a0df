"""Bandwidth-limited network interfaces.

Every endpoint owns an egress NIC and an ingress NIC, each a serial FIFO
queue whose service time for a message is ``size_bytes / bandwidth``.  A
leader broadcasting a proposal to N-1 peers therefore serializes N-1 copies
through its egress NIC — which is exactly why leader bandwidth becomes the
bottleneck as block size or cluster size grows, reproducing the saturation
behaviour of the paper's figures.

The queue is *analytic* rather than event-driven: because every submission
to a NIC happens synchronously at a scheduler event (``send()`` for egress,
the arrival event for ingress), the FIFO completion time of a transfer is
simply ``max(now, free_at) + service_time`` — identical to what a
work-conserving single-server queue driven by per-job completion events
would produce, but without burning a heap entry per job on the server's own
bookkeeping.  Callers take the completion timestamp from
:meth:`NetworkInterface.reserve` and fold it into their own single delivery
event.
"""

from __future__ import annotations

from repro.sim.events import EventScheduler

DEFAULT_BANDWIDTH_BPS = 125_000_000  # 1 Gbit/s expressed in bytes per second


class NetworkInterface:
    """One direction (egress or ingress) of an endpoint's NIC."""

    __slots__ = (
        "scheduler",
        "name",
        "bandwidth_bps",
        "fixed_overhead",
        "free_at",
        "busy_reserved",
        "bytes_transferred",
        "messages_transferred",
        "_started_at",
    )

    def __init__(
        self,
        scheduler: EventScheduler,
        name: str,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        fixed_overhead: float = 2e-6,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.scheduler = scheduler
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.fixed_overhead = fixed_overhead
        #: Time at which the interface finishes everything reserved so far.
        self.free_at = scheduler.now
        #: Total service time ever reserved (includes the in-flight tail).
        self.busy_reserved = 0.0
        self.bytes_transferred = 0
        self.messages_transferred = 0
        self._started_at = scheduler.now

    def reserve(self, size_bytes: int) -> float:
        """Claim the next FIFO slot for ``size_bytes``; return its completion time."""
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        service_time = self.fixed_overhead + size_bytes / self.bandwidth_bps
        self.bytes_transferred += size_bytes
        self.messages_transferred += 1
        self.busy_reserved += service_time
        now = self.scheduler.now
        free_at = self.free_at
        completion = (free_at if free_at > now else now) + service_time
        self.free_at = completion
        return completion

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the interface has been busy."""
        now = self.scheduler.now
        elapsed = now - self._started_at
        if elapsed <= 0:
            return 0.0
        # Exclude the portion of the reservation tail that lies in the future.
        pending = self.free_at - now
        busy = self.busy_reserved - (pending if pending > 0 else 0.0)
        return min(1.0, busy / elapsed)
