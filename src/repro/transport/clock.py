"""Wall-clock :class:`~repro.transport.base.Clock` backed by asyncio.

The deployment runtime swaps this in for the discrete-event
:class:`~repro.sim.events.EventScheduler` and borrows its two-tier shape.
Pacemaker view timers, each client's one armed request deadline and
CPU-queue completions arrive through the same ``call_after``/``post_at``
interface, so none of those components change.

* A post that is already due (``delay <= 0``: every CPU-queue completion of a
  deployment, whose measured cost profile charges no modelled time) is one
  ``loop.call_soon``.
* Everything with a future deadline goes onto the clock's **own heap** of
  plain ``(when, sequence, callback_or_timer, args)`` tuples — the entry
  shape of ``sim/events.py``, compared at C speed on ``(when, sequence)`` —
  and the clock keeps exactly **one** ``loop.call_at`` armed, for the earliest
  deadline.  As loop timers each would be a ``TimerHandle`` plus a closure
  whose heap sifts compare through Python-level ``TimerHandle.__lt__``.  What
  the heap holds is a view timer per replica, the cancelled ones waiting out
  their deadline, and one request deadline per client.
* ``args is None`` marks a cancellable :class:`AsyncioTimer` entry, as in the
  simulator.  A cancelled timer stays in the heap until its deadline and is
  skipped when popped.

Entries with the same deadline fire in the order they were scheduled.  A
callback that raises is reported through the loop's exception handler like
any asyncio callback; the entries behind it still fire.

Time is reported relative to the clock's creation (``now`` starts near 0.0),
matching the simulation convention that a run begins at t=0 — metrics windows
like ``[warmup, warmup+runtime)`` work unmodified.  ``now`` is a real
``loop.time()`` read at every call: client latency is ``clock.now - sent_at``.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from typing import Callable, Optional


class AsyncioTimer:
    """Timer handle mirroring :class:`repro.sim.events.Event` semantics."""

    __slots__ = ("callback", "args", "kwargs", "fired", "cancelled")

    def __init__(self, callback: Callable, args: tuple, kwargs: dict) -> None:
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.fired = False
        self.cancelled = False

    @property
    def pending(self) -> bool:
        """True while the timer has neither fired nor been cancelled."""
        return not self.fired and not self.cancelled

    def cancel(self) -> None:
        """Cancel the timer; a no-op once fired or already cancelled."""
        if self.pending:
            self.cancelled = True


class AsyncioClock:
    """Monotonic wall clock + timers on the running event loop.

    Must be constructed inside a running loop (the deployment runner creates
    it from its entry coroutine).  ``processed_events`` counts fired
    callbacks: the deployment analogue of the scheduler's event count, which
    ``benchmarks/perf`` reads off both.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self.processed_events = 0
        #: Future deadlines, in loop time: (when, sequence, callback_or_timer, args).
        self._heap: list = []
        self._sequence = 0
        #: The one loop timer, armed for ``_armed_for`` (inf while none is).
        self._armed: Optional[asyncio.TimerHandle] = None
        self._armed_for = math.inf

    @property
    def now(self) -> float:
        """Seconds of monotonic wall time since the clock was created."""
        return self._loop.time() - self._t0

    @property
    def pending_events(self) -> int:
        """Future deadlines on the heap (cancelled timers included), as the
        scheduler's attribute of the same name counts them."""
        return len(self._heap)

    def call_after(self, delay: float, callback: Callable, *args, **kwargs) -> AsyncioTimer:
        """Run ``callback(*args, **kwargs)`` after ``delay`` wall seconds.

        Unlike the event scheduler, a negative delay is clamped to zero
        rather than rejected: wall time advances while replica code runs, so
        a deadline computed "now" can already be marginally in the past.
        """
        timer = AsyncioTimer(callback, args, kwargs)
        self._push(self._loop.time() + (delay if delay > 0 else 0.0), timer, None)
        return timer

    def call_at(self, when: float, callback: Callable, *args, **kwargs) -> AsyncioTimer:
        """Run ``callback`` at absolute clock time ``when`` (at once if past)."""
        timer = AsyncioTimer(callback, args, kwargs)
        self._push(when + self._t0, timer, None)
        return timer

    def post_after(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` wall seconds, no handle.

        The wall-clock analogue of the scheduler's fire-and-forget tier:
        nothing to cancel, so no :class:`AsyncioTimer` is allocated.
        """
        if delay <= 0:
            self._loop.call_soon(self._fire, callback, args)
        else:
            self._push(self._loop.time() + delay, callback, args)

    def post_at(self, when: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` at absolute clock time ``when``, no handle."""
        deadline = when + self._t0
        if deadline <= self._loop.time():
            self._loop.call_soon(self._fire, callback, args)
        else:
            self._push(deadline, callback, args)

    # -- internals ---------------------------------------------------------

    def _fire(self, callback: Callable, args: tuple) -> None:
        self.processed_events += 1
        callback(*args)

    def _push(self, when: float, target, args: Optional[tuple]) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (when, self._sequence, target, args))
        if when < self._armed_for:
            self._arm(when)

    def _arm(self, when: float) -> None:
        if self._armed is not None:
            self._armed.cancel()
        self._armed = self._loop.call_at(when, self._run_due)
        self._armed_for = when

    def _run_due(self) -> None:
        """Fire every entry that is due, then re-arm for the next deadline."""
        # The loop fires a timer up to its clock resolution early: run at
        # least the entry this wake-up was armed for, never spin on it.
        due = max(self._loop.time(), self._armed_for)
        self._armed = None
        # Pushes made by the callbacks below leave arming to the end.
        self._armed_for = -math.inf
        heap = self._heap
        try:
            while heap and heap[0][0] <= due:
                _, _, target, args = heapq.heappop(heap)
                if args is not None:
                    self.processed_events += 1
                    target(*args)
                elif not target.cancelled:
                    target.fired = True
                    self.processed_events += 1
                    target.callback(*target.args, **target.kwargs)
        finally:
            self._armed_for = math.inf
            if heap:
                self._arm(heap[0][0])
