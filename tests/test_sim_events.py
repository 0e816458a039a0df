"""Unit tests for the event scheduler."""

import pytest

from repro.sim.events import EventScheduler, SimulationError


class TestScheduling:
    def test_starts_at_time_zero(self):
        sched = EventScheduler()
        assert sched.now == 0.0

    def test_custom_start_time(self):
        sched = EventScheduler(start_time=5.0)
        assert sched.now == 5.0

    def test_call_after_runs_callback_at_right_time(self):
        sched = EventScheduler()
        seen = []
        sched.call_after(1.5, lambda: seen.append(sched.now))
        sched.run_until(10.0)
        assert seen == [1.5]

    def test_call_at_absolute_time(self):
        sched = EventScheduler()
        seen = []
        sched.call_at(3.0, lambda: seen.append(sched.now))
        sched.run_until(10.0)
        assert seen == [3.0]

    def test_events_run_in_timestamp_order(self):
        sched = EventScheduler()
        order = []
        sched.call_after(2.0, lambda: order.append("b"))
        sched.call_after(1.0, lambda: order.append("a"))
        sched.call_after(3.0, lambda: order.append("c"))
        sched.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_ties_break_in_scheduling_order(self):
        sched = EventScheduler()
        order = []
        for name in ["first", "second", "third"]:
            sched.call_after(1.0, lambda n=name: order.append(n))
        sched.run_until(10.0)
        assert order == ["first", "second", "third"]

    def test_callback_arguments_are_passed(self):
        sched = EventScheduler()
        seen = []
        sched.call_after(0.1, seen.append, 42)
        sched.run_until(1.0)
        assert seen == [42]

    def test_scheduling_in_the_past_raises(self):
        sched = EventScheduler(start_time=5.0)
        with pytest.raises(SimulationError):
            sched.call_at(4.0, lambda: None)

    def test_negative_delay_raises(self):
        sched = EventScheduler()
        with pytest.raises(SimulationError):
            sched.call_after(-0.1, lambda: None)

    def test_events_can_schedule_more_events(self):
        sched = EventScheduler()
        seen = []

        def chain(depth):
            seen.append(sched.now)
            if depth > 0:
                sched.call_after(1.0, chain, depth - 1)

        sched.call_after(1.0, chain, 2)
        sched.run_until(10.0)
        assert seen == [1.0, 2.0, 3.0]


class TestHorizon:
    def test_run_until_does_not_execute_beyond_horizon(self):
        sched = EventScheduler()
        seen = []
        sched.call_after(1.0, lambda: seen.append("in"))
        sched.call_after(5.0, lambda: seen.append("out"))
        sched.run_until(2.0)
        assert seen == ["in"]
        assert sched.pending_events == 1

    def test_clock_advances_to_horizon_when_idle(self):
        sched = EventScheduler()
        sched.run_until(7.0)
        assert sched.now == 7.0

    def test_later_run_resumes_remaining_events(self):
        sched = EventScheduler()
        seen = []
        sched.call_after(5.0, lambda: seen.append(sched.now))
        sched.run_until(2.0)
        sched.run_until(10.0)
        assert seen == [5.0]

    def test_run_until_returns_number_executed(self):
        sched = EventScheduler()
        for _ in range(4):
            sched.call_after(0.5, lambda: None)
        assert sched.run_until(1.0) == 4

    def test_max_events_limit(self):
        sched = EventScheduler()
        for _ in range(10):
            sched.call_after(0.5, lambda: None)
        executed = sched.run_until(1.0, max_events=3)
        assert executed == 3

    def test_max_events_does_not_fast_forward_clock(self):
        """Regression: stopping on max_events with events still due before
        the horizon used to jump the clock to the horizon, so resuming moved
        time backwards (and made those events un-reschedulable)."""
        sched = EventScheduler()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sched.call_at(t, lambda t=t: seen.append((t, sched.now)))
        sched.run_until(5.0, max_events=1)
        assert sched.now == 1.0  # not 5.0
        # Scheduling relative to `now` still lands before the queued events.
        sched.call_after(0.5, lambda: seen.append((1.5, sched.now)))
        sched.run_until(5.0)
        assert seen == [(1.0, 1.0), (1.5, 1.5), (2.0, 2.0), (3.0, 3.0)]
        assert sched.now == 5.0

    def test_max_events_exhausting_queue_reaches_horizon(self):
        sched = EventScheduler()
        sched.call_at(1.0, lambda: None)
        sched.run_until(5.0, max_events=1)
        assert sched.now == 5.0  # nothing left at or before the horizon

    def test_max_events_with_later_events_still_reaches_horizon(self):
        sched = EventScheduler()
        sched.call_at(1.0, lambda: None)
        sched.call_at(9.0, lambda: None)
        sched.run_until(5.0, max_events=1)
        assert sched.now == 5.0  # the remaining event lies beyond the horizon

    def test_cancelled_leftovers_do_not_hold_clock_back(self):
        sched = EventScheduler()
        sched.call_at(1.0, lambda: None)
        cancelled = sched.call_at(2.0, lambda: None)
        cancelled.cancel()
        sched.run_until(5.0, max_events=1)
        assert sched.now == 5.0  # the only leftover <= horizon is cancelled

    def test_run_until_idle_drains_queue(self):
        sched = EventScheduler()
        seen = []
        sched.call_after(1.0, lambda: sched.call_after(1.0, lambda: seen.append("x")))
        sched.run_until_idle()
        assert seen == ["x"]
        assert sched.pending_events == 0


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sched = EventScheduler()
        seen = []
        event = sched.call_after(1.0, lambda: seen.append("x"))
        event.cancel()
        sched.run_until(2.0)
        assert seen == []

    def test_pending_reflects_state(self):
        sched = EventScheduler()
        event = sched.call_after(1.0, lambda: None)
        assert event.pending
        event.cancel()
        assert not event.pending

    def test_fired_event_is_not_pending(self):
        sched = EventScheduler()
        event = sched.call_after(1.0, lambda: None)
        sched.run_until(2.0)
        assert event.fired
        assert not event.pending

    def test_processed_counter(self):
        sched = EventScheduler()
        sched.call_after(0.1, lambda: None)
        cancelled = sched.call_after(0.2, lambda: None)
        cancelled.cancel()
        sched.run_until(1.0)
        assert sched.processed_events == 1

    def test_cancel_is_idempotent_in_bookkeeping(self):
        sched = EventScheduler()
        event = sched.call_after(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sched.cancelled_pending == 1

    def test_cancel_then_reschedule_is_deterministic(self):
        """The same cancel/reschedule script yields the same execution order
        whether or not compaction runs in between."""

        def script(sched):
            order = []
            events = {}
            for name, t in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
                events[name] = sched.call_at(t, lambda n=name: order.append(n))
            events["b"].cancel()
            sched.call_at(2.0, lambda: order.append("b2"))  # reschedule b
            events["c"].cancel()
            sched.call_at(2.5, lambda: order.append("c2"))
            sched.run_until(10.0)
            return order

        plain = EventScheduler()
        plain.compaction_min_size = 10**9  # never compact
        eager = EventScheduler()
        eager.compaction_min_size = 1  # compact on every cancel
        assert script(plain) == script(eager) == ["a", "b2", "c2"]


class TestCompaction:
    def _churn(self, iterations, compact=True):
        """The pacemaker pattern: cancel the old timer, arm a new one."""
        sched = EventScheduler()
        if not compact:
            sched.compaction_min_size = 10**9
        timer = None
        peak = 0
        for _ in range(iterations):
            if timer is not None:
                timer.cancel()
            timer = sched.call_after(10.0, lambda: None)
            peak = max(peak, sched.pending_events)
        return sched, peak

    def test_heap_bounded_under_view_churn(self):
        iterations = 5000
        sched, compacted_peak = self._churn(iterations, compact=True)
        _, uncompacted_peak = self._churn(iterations, compact=False)
        # Without compaction the heap holds every cancelled timer ever made;
        # with it, the live fraction keeps the heap within a small multiple
        # of the threshold's working set.
        assert uncompacted_peak == iterations
        assert compacted_peak < 200
        assert sched.compactions > 0
        assert sched.pending_events < 200

    def test_compaction_preserves_pending_events(self):
        sched = EventScheduler()
        sched.compaction_min_size = 1
        keep = [sched.call_after(float(i + 1), lambda: None) for i in range(5)]
        drop = [sched.call_after(0.5, lambda: None) for _ in range(6)]
        for event in drop:
            event.cancel()
        # The sixth cancel pushed the cancelled fraction over the threshold.
        assert sched.pending_events == 5
        assert sched.cancelled_pending == 0
        executed = sched.run_until(10.0)
        assert executed == 5
        assert all(event.fired for event in keep)
