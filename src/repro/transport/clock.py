"""Wall-clock :class:`~repro.transport.base.Clock` on asyncio's own timers.

The deployment runtime swaps this in for the discrete-event
:class:`~repro.sim.events.EventScheduler`; pacemaker view timers, client
deadlines and arrivals, and sync rounds use the same interface on both.  (A
deployed replica's CPU work never comes here: its CPU is the host's, so a
job runs when it is submitted — :class:`~repro.transport.runtime.HostCpu`.)

* A post that is already due (a zero propose delay, a deadline computed in
  the past) is one ``loop.call_soon``; any other post is one
  ``loop.call_at``.
* ``call_after`` returns the loop's own :class:`asyncio.TimerHandle`; the
  loop sweeps cancelled handles out of its heap itself.
* Entries due at the same instant are not promised to fire in scheduling
  order, as the simulator's are: asyncio's heap does not keep it, and no
  deployment needs it (one view timer per replica, per client one deadline
  and one pending arrival).

A callback that raises is handed to :attr:`AsyncioClock.on_error` — the
deployment runner points it at its transport's error list, so a timer's
error fails the run like a handler's — and the entries behind it still run.
Without one it reaches the loop's exception handler.  ``now`` is a real
``loop.time()`` read, relative to the clock's :attr:`~AsyncioClock.epoch`
(its creation, unless it is handed one): a run begins at t=0, as in the
simulator.  ``loop.time()`` is the host's monotonic clock, so two processes
on one host that share an epoch share a time line — the deployment's load
generator runs on its parent's.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional


class AsyncioClock:
    """Monotonic wall clock + timers on the running loop (create it inside one).

    ``processed_events`` counts fired callbacks, as the scheduler's count
    does; ``benchmarks/perf`` reads it off both.  ``timers_armed`` counts the
    loop timers (``call_at``) the clock created.
    """

    def __init__(self, epoch: Optional[float] = None) -> None:
        self._loop = asyncio.get_running_loop()
        #: The ``loop.time()`` reading that is t=0.
        self.epoch = self._loop.time() if epoch is None else epoch
        self.processed_events = 0
        self.timers_armed = 0
        #: Where an exception a fired callback raises goes, if anywhere.
        self.on_error: Optional[Callable[[Exception], None]] = None

    @property
    def now(self) -> float:
        """Seconds of monotonic wall time since the epoch."""
        return self._loop.time() - self.epoch

    def call_after(self, delay: float, callback: Callable, *args) -> asyncio.TimerHandle:
        """Run ``callback(*args)`` after ``delay`` wall seconds, cancellably.

        A negative delay runs at once rather than raising: wall time moves
        while replica code runs, so a deadline computed "now" can be past.
        """
        self.timers_armed += 1
        return self._loop.call_at(self._loop.time() + delay, self._fire, callback, args)

    def post_after(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` wall seconds, no handle."""
        if delay <= 0:
            self._loop.call_soon(self._fire, callback, args)
        else:
            self.timers_armed += 1
            self._loop.call_at(self._loop.time() + delay, self._fire, callback, args)

    def post_at(self, when: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` at clock time ``when`` (at once if past)."""
        deadline = when + self.epoch
        if deadline <= self._loop.time():
            self._loop.call_soon(self._fire, callback, args)
        else:
            self.timers_armed += 1
            self._loop.call_at(deadline, self._fire, callback, args)

    def _fire(self, callback: Callable, args: tuple) -> None:
        self.processed_events += 1
        try:
            callback(*args)
        except Exception as exc:  # noqa: BLE001 - surfaced through on_error
            if self.on_error is None:
                raise
            self.on_error(exc)
