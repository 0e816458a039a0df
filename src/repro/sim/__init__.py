"""Deterministic discrete-event simulation engine.

This package is the substrate that replaces the paper's cloud testbed.  All
protocol, network, and client code in :mod:`repro` runs on top of a single
:class:`~repro.sim.events.EventScheduler` which owns the virtual clock.

The engine is intentionally small and explicit:

* :class:`~repro.sim.events.EventScheduler` — a priority queue of timestamped
  callbacks with a deterministic tie-break order.
* :class:`~repro.sim.events.Event` — a handle that allows cancelling a
  scheduled callback (used for pacemaker timeouts).
* :class:`~repro.sim.resources.FifoServer` — a serial resource with explicit
  service times.  Replica CPUs are ``FifoServer`` instances; NICs are
  analytic ``free_at`` reservations held by
  :class:`~repro.network.network.Network`.  Together they produce queueing
  (and therefore the L-shaped latency/throughput curves of the paper).
* :class:`~repro.sim.random.RandomStreams` — named, independently seeded
  random streams so that simulations are reproducible and statistically
  well-behaved.
"""

from repro.sim.events import Event, EventScheduler
from repro.sim.random import RandomStreams
from repro.sim.resources import FifoServer

__all__ = [
    "Event",
    "EventScheduler",
    "FifoServer",
    "RandomStreams",
]
