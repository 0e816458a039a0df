"""Unit tests for the client library (closed-loop and Poisson clients)."""

import pytest

from repro.bench.metrics import MetricsCollector
from repro.client.client import ClosedLoopClient, PoissonClient
from repro.client.workload import WorkloadSpec
from repro.network.delays import FixedDelay
from repro.network.network import Network
from repro.obs.trace import open_stream
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.types.messages import ClientReply, ClientRequest
from repro.types.sizes import SizeModel


class EchoReplica:
    """A fake replica that commits (or rejects) every request after a delay."""

    def __init__(self, node_id, scheduler, network, delay=0.01, status="committed"):
        self.node_id = node_id
        self.scheduler = scheduler
        self.network = network
        self.delay = delay
        self.status = status
        self.received = []
        network.register(node_id, self.deliver)

    def deliver(self, message):
        if not isinstance(message, ClientRequest):
            return
        self.received.append(message.transaction)
        reply = ClientReply(
            sender=self.node_id,
            size_bytes=96,
            txid=message.transaction.txid,
            committed_at=self.scheduler.now + self.delay,
            replica=self.node_id,
            status=self.status,
        )
        self.scheduler.call_after(self.delay, self.network.send, self.node_id, message.sender, reply)


def make_env(delay=0.01, status="committed", num_replicas=2):
    scheduler = EventScheduler()
    streams = RandomStreams(seed=11)
    network = Network(scheduler, streams, base_delay=FixedDelay(0.001))
    replicas = [EchoReplica(f"r{i}", scheduler, network, delay, status) for i in range(num_replicas)]
    # The real consumer: clients announce on a stream it is subscribed to.
    metrics = MetricsCollector()
    return scheduler, network, streams, replicas, metrics


class TestWorkloadSpec:
    def test_defaults(self):
        spec = WorkloadSpec()
        assert spec.payload_size == 0
        assert spec.write_fraction == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(payload_size=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(write_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(key_space=0)

    def test_operation_mix(self):
        spec = WorkloadSpec(write_fraction=0.5)
        assert spec.operation_for(0.25) == "put"
        assert spec.operation_for(0.75) == "get"


class TestClosedLoopClient:
    def test_keeps_concurrency_outstanding(self):
        scheduler, network, streams, replicas, metrics = make_env()
        client = ClosedLoopClient(
            "c0", scheduler, network, streams, ["r0", "r1"], events=open_stream(metrics), concurrency=4
        )
        client.start()
        assert client.requests_sent == 4
        scheduler.run_until(0.2)
        # Each commit triggers a replacement request.
        assert client.requests_sent > 4
        assert len(client._outstanding) == 4

    def test_latency_is_recorded(self):
        scheduler, network, streams, replicas, metrics = make_env(delay=0.02)
        client = ClosedLoopClient(
            "c0", scheduler, network, streams, ["r0"], events=open_stream(metrics), concurrency=1
        )
        client.start()
        scheduler.run_until(0.1)
        assert metrics.latencies
        assert all(lat >= 0.02 for _now, lat in metrics.latencies)

    def test_stops_issuing_after_stop_time(self):
        scheduler, network, streams, replicas, metrics = make_env(delay=0.01)
        client = ClosedLoopClient(
            "c0", scheduler, network, streams, ["r0"], events=open_stream(metrics), concurrency=2
        )
        client.start(stop_time=0.05)
        scheduler.run_until(0.5)
        sent_at_cutoff = client.requests_sent
        scheduler.run_until(1.0)
        assert client.requests_sent == sent_at_cutoff

    def test_rejection_triggers_retry(self):
        scheduler, network, streams, replicas, metrics = make_env(status="rejected")
        client = ClosedLoopClient(
            "c0", scheduler, network, streams, ["r0"], events=open_stream(metrics), concurrency=1
        )
        client.start()
        scheduler.run_until(0.2)
        assert client.replies_rejected > 1
        assert metrics.rejections
        assert not metrics.latencies

    def test_timeout_triggers_replacement(self):
        scheduler, network, streams, replicas, metrics = make_env()
        # A replica that never answers: register a sink endpoint.
        network.register("dead", lambda m: None)
        client = ClosedLoopClient(
            "c0",
            scheduler,
            network,
            streams,
            ["dead"],
            events=open_stream(metrics),
            concurrency=2,
            request_timeout=0.05,
        )
        client.start()
        scheduler.run_until(0.3)
        assert client.requests_timed_out >= 2
        assert metrics.timeouts
        # The loop keeps itself alive by re-issuing.
        assert client.requests_sent > 2

    def test_invalid_parameters(self):
        scheduler, network, streams, replicas, metrics = make_env()
        with pytest.raises(ValueError):
            ClosedLoopClient("c0", scheduler, network, streams, ["r0"], concurrency=0)
        with pytest.raises(ValueError):
            ClosedLoopClient("c1", scheduler, network, streams, ["r0"], request_timeout=0.0)
        with pytest.raises(ValueError):
            ClosedLoopClient("c2", scheduler, network, streams, [])

    def test_payload_size_is_applied(self):
        scheduler, network, streams, replicas, metrics = make_env()
        client = ClosedLoopClient(
            "c0",
            scheduler,
            network,
            streams,
            ["r0"],
            workload=WorkloadSpec(payload_size=256),
            events=open_stream(metrics),
            concurrency=1,
        )
        client.start()
        scheduler.run_until(0.05)
        assert replicas[0].received[0].payload_size == 256


class TestPoissonClient:
    def test_rate_controls_request_count(self):
        scheduler, network, streams, replicas, metrics = make_env(delay=0.001)
        client = PoissonClient(
            "c0", scheduler, network, streams, ["r0", "r1"], events=open_stream(metrics), rate=500.0
        )
        client.start(stop_time=1.0)
        scheduler.run_until(1.2)
        # Expect roughly 500 arrivals in one second (Poisson, generous band).
        assert 350 < client.requests_sent < 650

    def test_open_loop_does_not_wait_for_replies(self):
        scheduler, network, streams, replicas, metrics = make_env(delay=10.0)
        client = PoissonClient(
            "c0", scheduler, network, streams, ["r0"], events=open_stream(metrics), rate=200.0
        )
        client.start(stop_time=0.5)
        scheduler.run_until(0.5)
        assert client.requests_sent > 50
        assert client.replies_committed == 0

    def test_invalid_rate(self):
        scheduler, network, streams, replicas, metrics = make_env()
        with pytest.raises(ValueError):
            PoissonClient("c0", scheduler, network, streams, ["r0"], rate=0.0)

    def test_latencies_recorded_for_commits(self):
        scheduler, network, streams, replicas, metrics = make_env(delay=0.005)
        client = PoissonClient(
            "c0", scheduler, network, streams, ["r0"], events=open_stream(metrics), rate=100.0
        )
        client.start(stop_time=0.5)
        scheduler.run_until(1.0)
        assert len(metrics.latencies) > 10
