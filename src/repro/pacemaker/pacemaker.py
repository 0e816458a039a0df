"""The pacemaker module: local timers, TIMEOUT aggregation, view advancement.

The design follows the LibraBFT-style view synchronization the paper adopts
(§III-B): whenever a replica's view timer expires it broadcasts a
``TIMEOUT`` message for its current view; receiving a quorum (2f+1) of
timeouts for a view forms a TimeoutCertificate (TC) and lets the replica
advance to the next view; f+1 timeouts for a view *ahead* of the replica's
own pull it into that view (the join rule).  Views also advance on the
happy path whenever a QC for the current view is observed.  The pacemaker
itself does no networking — it exposes callbacks and lets the replica put
messages on the wire — which keeps it reusable by every protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs import trace as obs_trace
from repro.quorum.quorum import TimeoutTracker, max_faulty
from repro.sim.events import Event, EventScheduler
from repro.types.certificates import Timeout, TimeoutCertificate

class ViewChangeReason(enum.Enum):
    """Why a replica entered a new view."""

    START = "start"
    QC = "qc"
    TC = "tc"
    JOIN = "join"


@dataclass
class PacemakerStats:
    """Counters describing pacemaker activity in one run."""

    local_timeouts: int = 0
    view_changes_on_qc: int = 0
    view_changes_on_tc: int = 0
    view_changes_on_join: int = 0
    highest_view: int = 0


class Pacemaker:
    """Per-replica view synchronization logic."""

    def __init__(
        self,
        scheduler: EventScheduler,
        node_id: str,
        timeout_tracker: TimeoutTracker,
        view_timeout: float,
        on_view_start: Callable[[int, ViewChangeReason], None],
        on_local_timeout: Callable[[int], None],
        events: Optional[obs_trace.EventStream] = None,
    ) -> None:
        """Create a pacemaker.

        Parameters
        ----------
        view_timeout:
            Waiting time before a view is declared stuck (Table I's
            ``timeout``, default 100 ms).
        on_view_start:
            Called whenever a new view begins, with the view number and the
            reason (start / QC / TC).  The replica proposes here if it leads.
        on_local_timeout:
            Called when the local timer for the current view expires; the
            replica broadcasts its TIMEOUT message from this callback.
        events:
            The cluster's event stream (view entries, timeouts, TCs).
        """
        if view_timeout <= 0:
            raise ValueError(f"view timeout must be positive, got {view_timeout}")
        self.scheduler = scheduler
        self.node_id = node_id
        self.timeout_tracker = timeout_tracker
        self.view_timeout = view_timeout
        self.on_view_start = on_view_start
        self.on_local_timeout = on_local_timeout
        self.stats = PacemakerStats()
        self.events = events if events is not None else obs_trace.EventStream()

        self.current_view = 0
        self._timer: Optional[Event] = None
        self._consecutive_timeouts = 0
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, initial_view: int = 1) -> None:
        """Enter the first view and arm the timer."""
        if self._started:
            raise RuntimeError("pacemaker already started")
        self._started = True
        self._enter_view(initial_view, ViewChangeReason.START)

    def stop(self) -> None:
        """Cancel the running timer (end of simulation or crash)."""
        if self._timer is not None:
            self._timer.cancel()
        self._timer = None

    def resume(self) -> None:
        """Re-arm after a crash recovery, re-entering the current view."""
        self._started = True
        self._enter_view(max(1, self.current_view), ViewChangeReason.START)

    # ------------------------------------------------------------------
    # view advancement
    # ------------------------------------------------------------------
    def advance_on_qc(self, qc_view: int) -> bool:
        """Advance to ``qc_view + 1`` if that is ahead of the current view."""
        target = qc_view + 1
        if target <= self.current_view:
            return False
        self._consecutive_timeouts = 0
        self.stats.view_changes_on_qc += 1
        self._enter_view(target, ViewChangeReason.QC)
        return True

    def advance_on_tc(self, tc: TimeoutCertificate) -> bool:
        """Advance to ``tc.view + 1`` if that is ahead of the current view.

        A TC is quorum-level progress just like a QC: 2f+1 replicas agreed
        the view was stuck and view synchronization moved everyone forward.
        The consecutive-timeout counter (the ``consecutive`` payload of
        ``local-timeout`` events) therefore resets here too: it counts the
        timeouts since the last quorum progress, not since the last QC.
        """
        target = tc.view + 1
        if target <= self.current_view:
            return False
        self._consecutive_timeouts = 0
        self.stats.view_changes_on_tc += 1
        self._enter_view(target, ViewChangeReason.TC)
        return True

    def process_remote_timeout(self, timeout: Timeout) -> Optional[TimeoutCertificate]:
        """Record a peer's TIMEOUT message; return a TC when one forms.

        Join rule: once f+1 distinct replicas — so at least one honest one —
        have timed out of a view ahead of ours, enter it.  The timer is armed
        as for any view, so our own TIMEOUT follows on expiry and completes
        the TC.  Without this, a cluster whose halves sit one view apart
        (after a partition heals, say) re-broadcasts timeouts the other half
        can never use, forever.
        """
        tracker = self.timeout_tracker
        if not tracker.record(timeout):
            return None
        view = timeout.view
        if view > self.current_view and tracker.timeout_count(view) > max_faulty(tracker.num_nodes):
            self.stats.view_changes_on_join += 1
            self._enter_view(view, ViewChangeReason.JOIN)
        tc = tracker.certified(view)
        ev = self.events
        if tc is not None and ev.wants & obs_trace.QC:
            ev.emit(
                self.scheduler.now, self.node_id, obs_trace.QC, "tc", view,
                {"signers": len(tc.signers)},
            )
        return tc

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _enter_view(self, view: int, reason: ViewChangeReason) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self.current_view = view
        self.stats.highest_view = max(self.stats.highest_view, view)
        ev = self.events
        if ev.wants & obs_trace.VIEW:
            ev.emit(
                self.scheduler.now, self.node_id, obs_trace.VIEW, "enter", view,
                {"reason": reason.value, "timeout": self.view_timeout},
            )
        self._timer = self.scheduler.call_after(self.view_timeout, self._on_timer, view)
        self.on_view_start(view, reason)

    def _on_timer(self, view: int) -> None:
        if view != self.current_view:
            return
        self.stats.local_timeouts += 1
        self._consecutive_timeouts += 1
        ev = self.events
        if ev.wants & obs_trace.TIMEOUT:
            ev.emit(
                self.scheduler.now, self.node_id, obs_trace.TIMEOUT,
                "local-timeout", view,
                {"consecutive": self._consecutive_timeouts},
            )
        # Re-arm so a stuck replica keeps signalling its timeout (the quorum
        # may have missed the earlier broadcast).
        self._timer = self.scheduler.call_after(self.view_timeout, self._on_timer, view)
        self.on_local_timeout(view)
