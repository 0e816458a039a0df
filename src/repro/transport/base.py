"""The transport seam: structural protocols the replica stack depends on.

The protocol classes, :class:`~repro.core.replica.Replica`, the pacemaker,
sync/checkpoint managers, and clients never import a concrete scheduler or
network.  They are written against two small structural interfaces:

* :class:`Clock` — ``now``, ``call_after`` returning a cancellable
  :class:`TimerHandle`, and the handle-free ``post_after``/``post_at``.  The
  discrete-event :class:`~repro.sim.events.EventScheduler` satisfies it with
  virtual time (its ``Event`` is the handle);
  :class:`~repro.transport.clock.AsyncioClock` satisfies it with the event
  loop's monotonic wall clock (the handle is asyncio's own ``TimerHandle``).
  The seam holds only what both provide: no keyword arguments (asyncio's
  ``call_at`` takes none) and no "still pending" query on a handle.
* :class:`Transport` — ``register``/``send``/``broadcast`` plus
  crash/recover controls.  The simulated :class:`~repro.network.network.Network`
  satisfies it with modeled NIC/link delays;
  :class:`~repro.transport.asyncio_net.AsyncioTransport` satisfies it with
  framed messages over real TCP connections.

These are :class:`typing.Protocol` classes (structural, not nominal): the
simulation backends conform without importing this module, which is exactly
the property the import-isolation test in ``tests/test_transport.py`` pins
down — swapping the deployment backend in requires zero protocol-class edits.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.types.messages import Message


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable timer returned by :meth:`Clock.call_after`."""

    def cancel(self) -> None:
        """Cancel the timer; a no-op once fired or already cancelled."""
        ...


@runtime_checkable
class Clock(Protocol):
    """Time source and timer scheduler (virtual or wall-clock)."""

    @property
    def now(self) -> float:
        """Current time in seconds (simulated or monotonic wall time)."""
        ...

    def call_after(self, delay: float, callback: Callable, *args) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` seconds, cancellably."""
        ...

    def post_after(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds, no handle (fast path)."""
        ...

    def post_at(self, when: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` at absolute time ``when``, no handle."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Message fabric connecting replicas and clients by node id."""

    def register(self, node_id: str, handler: Callable[[Message], None]) -> None:
        """Attach an endpoint; ``handler`` receives every delivered message."""
        ...

    def send(self, src: str, dst: str, message: Message) -> None:
        """Send one message; raises ``KeyError`` for unknown endpoints."""
        ...

    def broadcast(
        self, src: str, targets: Iterable[str], message: Message, include_self: bool = False
    ) -> None:
        """Send to every target (optionally looping back to the sender)."""
        ...

    def crash(self, node_id: str) -> None:
        """Stop delivering to and from ``node_id``."""
        ...

    def recover(self, node_id: str) -> None:
        """Resume delivery for a crashed endpoint."""
        ...

    def is_crashed(self, node_id: str) -> bool:
        """True while ``node_id`` is crashed."""
        ...
