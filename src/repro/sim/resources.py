"""Serial resources with explicit service times.

The paper's performance model (§V) treats each machine as a queue made of a
CPU and a NIC.  :class:`FifoServer` is the simulation-side realization of
the CPU: jobs are served one at a time in arrival order, each occupying the
server for a caller-supplied service time.  (The NICs are analytic
reservations held by :class:`~repro.network.network.Network`.)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Tuple

from repro.sim.events import EventScheduler


class FifoServer:
    """A single-server FIFO queue driven by the event scheduler.

    ``submit(service_time, callback, *args)`` enqueues a job; when the job
    finishes service, ``callback(*args)`` runs at the completion time.  The
    server is work-conserving: it is busy whenever at least one job is
    present.  Queued jobs are plain ``(service_time, callback, args)`` tuples
    and completions go through the scheduler's handle-free
    :meth:`~repro.sim.events.EventScheduler.post_after` tier — this server
    sits on the per-message CPU hot path, so a job costs no allocations
    beyond its tuple.
    """

    def __init__(self, scheduler: EventScheduler, name: str = "server") -> None:
        self.scheduler = scheduler
        self.name = name
        self._queue: Deque[Tuple[float, Callable[..., Any], tuple]] = deque()
        self._busy = False

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a job is in service."""
        return self._busy

    def submit(self, service_time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Enqueue a job requiring ``service_time`` seconds of service."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time}")
        if self._busy:
            self._queue.append((service_time, callback, args))
            return
        # Idle server: start service directly, skipping the queue round trip
        # (the common case — most messages find the CPU free).
        self._busy = True
        self.scheduler.post_after(service_time, self._finish, callback, args)

    def _finish(self, callback: Callable[..., Any], args: tuple) -> None:
        callback(*args)
        # Start the next queued job inline (one _finish per served job is
        # the hottest callback in the simulator).
        queue = self._queue
        if queue:
            service_time, callback, args = queue.popleft()
            self.scheduler.post_after(service_time, self._finish, callback, args)
        else:
            self._busy = False
