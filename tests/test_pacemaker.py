"""Unit tests for the pacemaker (view synchronization)."""

import pytest

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign
from repro.pacemaker.pacemaker import Pacemaker, ViewChangeReason
from repro.quorum.quorum import TimeoutTracker
from repro.sim.events import EventScheduler
from repro.types.certificates import Timeout, TimeoutCertificate, timeout_digest


class PacemakerHarness:
    """Wires a pacemaker to recording callbacks for the tests."""

    def __init__(self, view_timeout=0.1, num_nodes=4):
        self.scheduler = EventScheduler()
        self.registry = KeyRegistry()
        self.view_starts = []
        self.local_timeouts = []
        self.pacemaker = Pacemaker(
            scheduler=self.scheduler,
            node_id="r0",
            timeout_tracker=TimeoutTracker(num_nodes, self.registry),
            view_timeout=view_timeout,
            on_view_start=lambda view, reason: self.view_starts.append((view, reason)),
            on_local_timeout=self.local_timeouts.append,
        )

    def remote_timeout(self, voter, view):
        keypair = self.registry.register(voter)
        return Timeout(
            voter=voter,
            view=view,
            high_qc_view=0,
            signature=sign(keypair, timeout_digest(view)),
        )


class TestViewAdvancement:
    def test_start_enters_initial_view(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        assert h.pacemaker.current_view == 1
        assert h.view_starts == [(1, ViewChangeReason.START)]

    def test_start_twice_rejected(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        with pytest.raises(RuntimeError):
            h.pacemaker.start()

    def test_qc_advances_to_next_view(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        assert h.pacemaker.advance_on_qc(1)
        assert h.pacemaker.current_view == 2
        assert h.view_starts[-1] == (2, ViewChangeReason.QC)

    def test_stale_qc_does_not_advance(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        h.pacemaker.advance_on_qc(5)
        assert not h.pacemaker.advance_on_qc(3)
        assert h.pacemaker.current_view == 6

    def test_qc_can_skip_ahead_many_views(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        h.pacemaker.advance_on_qc(10)
        assert h.pacemaker.current_view == 11

    def test_tc_advances_to_next_view(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        tc = TimeoutCertificate(view=1, signers=frozenset({"r0", "r1", "r2"}))
        assert h.pacemaker.advance_on_tc(tc)
        assert h.pacemaker.current_view == 2
        assert h.view_starts[-1] == (2, ViewChangeReason.TC)

    def test_stats_count_reasons(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        h.pacemaker.advance_on_qc(1)
        h.pacemaker.advance_on_tc(TimeoutCertificate(view=2, signers=frozenset({"r0"})))
        assert h.pacemaker.stats.view_changes_on_qc == 1
        assert h.pacemaker.stats.view_changes_on_tc == 1
        assert h.pacemaker.stats.highest_view == 3


class TestTimers:
    def test_local_timeout_fires_after_view_timeout(self):
        h = PacemakerHarness(view_timeout=0.05)
        h.pacemaker.start()
        h.scheduler.run_until(0.06)
        assert h.local_timeouts == [1]
        assert h.pacemaker.stats.local_timeouts == 1

    def test_timer_is_reset_on_view_change(self):
        h = PacemakerHarness(view_timeout=0.05)
        h.pacemaker.start()
        h.scheduler.run_until(0.03)
        h.pacemaker.advance_on_qc(1)
        h.scheduler.run_until(0.07)
        # The old view-1 timer was cancelled; only view 2's timer may fire later.
        assert h.local_timeouts == []
        h.scheduler.run_until(0.09)
        assert h.local_timeouts == [2]

    def test_timeout_rearms_while_stuck(self):
        h = PacemakerHarness(view_timeout=0.05)
        h.pacemaker.start()
        h.scheduler.run_until(0.26)
        assert h.local_timeouts == [1] * 5

    def test_stop_cancels_timer(self):
        h = PacemakerHarness(view_timeout=0.05)
        h.pacemaker.start()
        h.pacemaker.stop()
        h.scheduler.run_until(1.0)
        assert h.local_timeouts == []

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            PacemakerHarness(view_timeout=0.0)


class TestTimeoutCertificates:
    def test_remote_timeouts_form_tc(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        tc = None
        for voter in ["r1", "r2", "r3"]:
            tc = h.pacemaker.process_remote_timeout(h.remote_timeout(voter, view=1))
        assert tc is not None
        assert tc.view == 1

    def test_tc_then_advance(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        for voter in ["r1", "r2", "r3"]:
            tc = h.pacemaker.process_remote_timeout(h.remote_timeout(voter, view=1))
        h.pacemaker.advance_on_tc(tc)
        assert h.pacemaker.current_view == 2

    def test_consecutive_timeout_counter_resets_on_qc(self):
        h = PacemakerHarness(view_timeout=0.05)
        h.pacemaker.start()
        h.scheduler.run_until(0.06)
        assert h.pacemaker._consecutive_timeouts == 1
        h.pacemaker.advance_on_qc(1)
        assert h.pacemaker._consecutive_timeouts == 0

    def test_consecutive_timeout_counter_resets_on_tc(self):
        """A TC is quorum progress too: the counter restarts from zero."""
        h = PacemakerHarness(view_timeout=0.05)
        h.pacemaker.start()
        h.scheduler.run_until(0.06)
        assert h.pacemaker._consecutive_timeouts == 1
        h.pacemaker.advance_on_tc(
            TimeoutCertificate(view=1, signers=frozenset({"r0", "r1", "r2"}))
        )
        assert h.pacemaker._consecutive_timeouts == 0
        # The new view's first expiry counts from one again.
        h.scheduler.run_until(0.12)
        assert h.local_timeouts == [1, 2]
        assert h.pacemaker._consecutive_timeouts == 1

    def test_stale_tc_does_not_reset_backoff(self):
        h = PacemakerHarness(view_timeout=0.05)
        h.pacemaker.start()
        h.pacemaker.advance_on_qc(5)
        h.scheduler.run_until(h.scheduler.now + 0.06)
        assert h.pacemaker._consecutive_timeouts == 1
        stale = TimeoutCertificate(view=2, signers=frozenset({"r0", "r1", "r2"}))
        assert not h.pacemaker.advance_on_tc(stale)
        assert h.pacemaker._consecutive_timeouts == 1


class TestJoinRule:
    def test_one_replica_cannot_pull_others_ahead(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        assert h.pacemaker.process_remote_timeout(h.remote_timeout("r3", view=7)) is None
        # Re-sent copies of the same replica's timeout count once.
        assert h.pacemaker.process_remote_timeout(h.remote_timeout("r3", view=7)) is None
        assert h.pacemaker.current_view == 1
        assert h.pacemaker.stats.view_changes_on_join == 0

    def test_f_plus_one_timeouts_for_a_view_ahead_are_joined(self):
        h = PacemakerHarness(view_timeout=0.1)
        h.pacemaker.start()
        h.pacemaker.process_remote_timeout(h.remote_timeout("r2", view=7))
        assert h.pacemaker.process_remote_timeout(h.remote_timeout("r3", view=7)) is None
        assert h.pacemaker.current_view == 7
        assert h.view_starts[-1] == (7, ViewChangeReason.JOIN)
        assert h.pacemaker.stats.view_changes_on_join == 1
        # The joined view's timer is armed: our own TIMEOUT follows on expiry
        # and, recorded like anyone's, completes the TC.
        h.scheduler.run_until(0.11)
        assert h.local_timeouts == [7]
        tc = h.pacemaker.process_remote_timeout(h.remote_timeout("r0", view=7))
        assert tc is not None and tc.view == 7
        assert h.pacemaker.advance_on_tc(tc)
        assert h.pacemaker.current_view == 8

    def test_timeouts_for_the_current_or_a_past_view_do_not_join(self):
        h = PacemakerHarness()
        h.pacemaker.start()
        h.pacemaker.advance_on_qc(4)
        for view in (3, 5):
            for voter in ("r1", "r2"):
                h.pacemaker.process_remote_timeout(h.remote_timeout(voter, view=view))
        assert h.pacemaker.current_view == 5
        assert h.pacemaker.stats.view_changes_on_join == 0


class TestStopResume:
    def test_stop_resume_reenters_current_view(self):
        h = PacemakerHarness(view_timeout=0.05)
        h.pacemaker.start()
        h.pacemaker.advance_on_qc(3)
        h.pacemaker.stop()
        h.scheduler.run_until(0.5)
        assert h.local_timeouts == []  # crashed: no timer fires
        h.pacemaker.resume()
        assert h.pacemaker.current_view == 4
        assert h.view_starts[-1] == (4, ViewChangeReason.START)
        h.scheduler.run_until(0.56)
        assert h.local_timeouts == [4]  # the timer is re-armed

    def test_stop_resume_repeatedly_leaves_one_live_timer(self):
        """Crash/recover cycles must not accumulate live timers."""
        h = PacemakerHarness(view_timeout=0.05)
        h.pacemaker.start()
        for _ in range(3):
            h.pacemaker.stop()
            h.pacemaker.resume()
        h.scheduler.run_until(0.06)
        assert h.local_timeouts == [1]  # exactly one timer fired

    def test_resume_counts_toward_view_synchronization(self):
        """After resume, remote timeouts still certify and advance views."""
        h = PacemakerHarness()
        h.pacemaker.start()
        h.pacemaker.stop()
        h.pacemaker.resume()
        tc = None
        for voter in ["r1", "r2", "r3"]:
            tc = h.pacemaker.process_remote_timeout(h.remote_timeout(voter, view=1))
        assert tc is not None
        assert h.pacemaker.advance_on_tc(tc)
        assert h.pacemaker.current_view == 2
