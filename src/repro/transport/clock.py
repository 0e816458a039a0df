"""Wall-clock :class:`~repro.transport.base.Clock` on asyncio's own timers.

The deployment runtime swaps this in for the discrete-event
:class:`~repro.sim.events.EventScheduler`; pacemaker view timers, client
deadlines and CPU-queue completions use the same interface on both.

* A post that is already due (every CPU-queue completion of a deployment,
  whose measured cost profile charges no modelled time) is one
  ``loop.call_soon``; any other post is one ``loop.call_at``.
* ``call_after`` returns the loop's own :class:`asyncio.TimerHandle`; the
  loop sweeps cancelled handles out of its heap itself.
* Entries due at the same instant are not promised to fire in scheduling
  order, as the simulator's are: asyncio's heap does not keep it, and no
  deployment needs it (one view timer per replica, per client one deadline
  and one pending arrival).

A callback that raises is reported through the loop's exception handler.
``now`` is a real ``loop.time()`` read, relative to the clock's creation: a
run begins at t=0, as in the simulator.
"""

from __future__ import annotations

import asyncio
from typing import Callable


class AsyncioClock:
    """Monotonic wall clock + timers on the running loop (create it inside one).

    ``processed_events`` counts fired callbacks, as the scheduler's count
    does; ``benchmarks/perf`` reads it off both.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self.processed_events = 0

    @property
    def now(self) -> float:
        """Seconds of monotonic wall time since the clock was created."""
        return self._loop.time() - self._t0

    def call_after(self, delay: float, callback: Callable, *args) -> asyncio.TimerHandle:
        """Run ``callback(*args)`` after ``delay`` wall seconds, cancellably.

        A negative delay runs at once rather than raising: wall time moves
        while replica code runs, so a deadline computed "now" can be past.
        """
        return self._loop.call_at(self._loop.time() + delay, self._fire, callback, args)

    def post_after(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` wall seconds, no handle."""
        if delay <= 0:
            self._loop.call_soon(self._fire, callback, args)
        else:
            self._loop.call_at(self._loop.time() + delay, self._fire, callback, args)

    def post_at(self, when: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` at clock time ``when`` (at once if past)."""
        deadline = when + self._t0
        if deadline <= self._loop.time():
            self._loop.call_soon(self._fire, callback, args)
        else:
            self._loop.call_at(deadline, self._fire, callback, args)

    def _fire(self, callback: Callable, args: tuple) -> None:
        self.processed_events += 1
        callback(*args)
