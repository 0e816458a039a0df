"""Event scheduler and virtual clock for the discrete-event simulation.

The scheduler is a classic calendar queue built on :mod:`heapq`.  Time is a
``float`` measured in **seconds** of simulated time.  Events scheduled for the
same instant execute in the order they were scheduled (a monotonically
increasing sequence number breaks ties), which keeps runs deterministic —
a promise the deployment's wall clock does not make.

The API has two tiers, both taking positional arguments only:

* :meth:`EventScheduler.call_at` / :meth:`EventScheduler.call_after` return a
  cancellable :class:`Event` handle — use these only for timers (view
  timeouts) that may be cancelled.
* :meth:`EventScheduler.post_at` / :meth:`EventScheduler.post_after` are the
  fast path: no handle, no :class:`Event` allocation.  The vast
  majority of simulated events are message hops that nobody ever cancels;
  posting them costs one plain tuple in the heap and nothing else.  (A
  client's request timeout is one such post, armed for its oldest
  outstanding request — not an entry per request.)

Internally every heap entry is a ``(time, sequence, callback_or_event, args)``
tuple so heap sift comparisons run at C speed on the leading ``(time,
sequence)`` pair (``sequence`` is unique, so the third element is never
compared).  ``args is None`` marks a cancellable :class:`Event` entry —
posted entries always carry a (possibly empty) argument tuple.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the event scheduler."""


class Event:
    """A handle to a scheduled callback.

    Events are created via :meth:`EventScheduler.call_at` or
    :meth:`EventScheduler.call_after`.  They can be cancelled before they
    fire; cancelled events stay in the heap (skipped when popped) until the
    scheduler's lazy compaction rebuilds the heap without them.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "fired", "_scheduler")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        scheduler: Optional["EventScheduler"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._scheduler is not None:
            self._scheduler._note_cancelled()

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {state})"


class EventScheduler:
    """A deterministic discrete-event scheduler with a virtual clock.

    Typical usage::

        sched = EventScheduler()
        sched.call_after(0.5, handler, message)
        sched.run_until(10.0)

    The scheduler never advances past the time horizon given to
    :meth:`run_until`, and :attr:`now` always reflects the timestamp of the
    event currently being processed (or the last processed event).
    """

    #: Heaps smaller than this are never compacted (rebuilding is not worth it).
    compaction_min_size = 64
    #: Compact when cancelled entries exceed this fraction of the heap.
    compaction_threshold = 0.5

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time in seconds.  A plain attribute (not a
        #: property): it is the single most-read value in the simulator.
        #: Treat it as read-only outside this class.
        self.now = float(start_time)
        # Heap of (time, sequence, callback_or_event, args) tuples; see the
        # module docstring for the entry encoding.
        self._heap: list = []
        self._sequence = 0
        self._processed = 0
        self._cancelled = 0
        self._compactions = 0
        self._running = False

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots (awaiting compaction)."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Number of lazy heap compactions performed so far."""
        return self._compactions

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    # ------------------------------------------------------------------
    # tier 1: cancellable timers
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time:.6f} < now {self.now:.6f}"
            )
        event = Event(time, callback, args, scheduler=self)
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, event, None))
        return event

    def call_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, callback, *args)

    # ------------------------------------------------------------------
    # tier 2: fire-and-forget posts (the message-hop fast path)
    # ------------------------------------------------------------------
    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute ``time`` with no handle.

        Identical execution-order and clock semantics to :meth:`call_at`
        (same heap, same (time, sequence) ordering), but the entry cannot be
        cancelled and allocates nothing beyond its heap tuple.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time:.6f} < now {self.now:.6f}"
            )
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, callback, args))

    def post_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay`` seconds from now, no handle."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, callback, args))

    # ------------------------------------------------------------------
    # cancelled-entry bookkeeping and lazy compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts once cancelled entries dominate.

        Long runs cancel one timer per view change (see the pacemaker), so
        without compaction the heap grows with the number of views rather
        than the number of live timers.  Compaction preserves the (time,
        sequence) order of the surviving entries, so event execution order —
        and therefore simulation determinism — is unaffected.
        """
        self._cancelled += 1
        if (
            len(self._heap) >= self.compaction_min_size
            and self._cancelled > self.compaction_threshold * len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without the cancelled entries.

        In place: the run loops hold a local alias to the heap list, so the
        list object must stay stable across a compaction triggered from
        inside a callback.
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[3] is not None or not entry[2].cancelled
        ]
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1

    def _drop_cancelled_head(self) -> None:
        """Pop cancelled entries off the heap top (they will never run)."""
        heap = self._heap
        while heap and heap[0][3] is None and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_until(self, horizon: float, max_events: Optional[int] = None) -> int:
        """Run events in timestamp order until ``horizon`` (inclusive).

        Returns the number of events executed by this call.  Events scheduled
        beyond the horizon remain queued.  ``max_events`` is a safety valve
        for tests.

        The clock only fast-forwards to the horizon when no pending event at
        or before it remains queued; if ``max_events`` stops the loop early,
        ``now`` stays at the last executed event so a later run resumes
        without ever moving the clock backwards.
        """
        if self._running:
            raise SimulationError("scheduler is already running (re-entrant run_until)")
        self._running = True
        executed = 0
        limit = sys.maxsize if max_events is None else max_events
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > horizon:
                    break
                pop(heap)
                args = entry[3]
                if args is None:
                    event = entry[2]
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    self.now = time
                    event.fired = True
                    event.callback(*event.args)
                else:
                    self.now = time
                    entry[2](*args)
                executed += 1
                if executed >= limit:
                    break
        finally:
            self._running = False
            # Batched outside the loop: one counter update per run, not per
            # event (the count is only read between runs).
            self._processed += executed
        self._drop_cancelled_head()
        if self.now < horizon and (not heap or heap[0][0] > horizon):
            self.now = horizon
        return executed

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` is hit)."""
        if self._running:
            raise SimulationError("scheduler is already running (re-entrant run)")
        self._running = True
        executed = 0
        limit = sys.maxsize if max_events is None else max_events
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                entry = pop(heap)
                args = entry[3]
                if args is None:
                    event = entry[2]
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    self.now = entry[0]
                    event.fired = True
                    event.callback(*event.args)
                else:
                    self.now = entry[0]
                    entry[2](*args)
                executed += 1
                if executed >= limit:
                    break
        finally:
            self._running = False
            self._processed += executed
        return executed
