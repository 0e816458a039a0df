"""Unit tests for the FIFO server resource (the replica CPU model)."""

import pytest

from repro.sim.events import EventScheduler
from repro.sim.resources import FifoServer


class TestFifoServer:
    def test_single_job_completes_after_service_time(self):
        sched = EventScheduler()
        server = FifoServer(sched, "cpu")
        done = []
        server.submit(2.0, lambda: done.append(sched.now))
        sched.run_until(10.0)
        assert done == [2.0]

    def test_jobs_are_served_in_order(self):
        sched = EventScheduler()
        server = FifoServer(sched, "cpu")
        done = []
        server.submit(1.0, lambda: done.append(("a", sched.now)))
        server.submit(1.0, lambda: done.append(("b", sched.now)))
        server.submit(1.0, lambda: done.append(("c", sched.now)))
        sched.run_until(10.0)
        assert done == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_server_is_work_conserving(self):
        sched = EventScheduler()
        server = FifoServer(sched, "cpu")
        done = []
        server.submit(1.0, lambda: done.append(sched.now))
        sched.run_until(5.0)
        # Submit again after an idle period; service starts immediately.
        server.submit(1.0, lambda: done.append(sched.now))
        sched.run_until(10.0)
        assert done == [1.0, 6.0]

    def test_queue_length_excludes_job_in_service(self):
        sched = EventScheduler()
        server = FifoServer(sched, "cpu")
        for _ in range(3):
            server.submit(1.0, lambda: None)
        assert server.queue_length == 2
        assert server.busy

    def test_negative_service_time_rejected(self):
        sched = EventScheduler()
        server = FifoServer(sched, "cpu")
        with pytest.raises(ValueError):
            server.submit(-1.0, lambda: None)

    def test_zero_service_time_allowed(self):
        sched = EventScheduler()
        server = FifoServer(sched, "cpu")
        done = []
        server.submit(0.0, lambda: done.append(sched.now))
        sched.run_until(1.0)
        assert done == [0.0]

    def test_jobs_submitted_from_callbacks(self):
        sched = EventScheduler()
        server = FifoServer(sched, "cpu")
        done = []

        def first():
            done.append(("first", sched.now))
            server.submit(2.0, lambda: done.append(("second", sched.now)))

        server.submit(1.0, first)
        sched.run_until(10.0)
        assert done == [("first", 1.0), ("second", 3.0)]
