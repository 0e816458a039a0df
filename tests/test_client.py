"""Unit tests for the client library (closed-loop and Poisson clients)."""

import asyncio
import time

import pytest

from repro.bench.config import Configuration
from repro.bench.metrics import MetricsCollector
from repro.bench.runner import build_cluster, run_cluster
from repro.client.client import KEY_SPACE, ClientBase, ClosedLoopClient, PoissonClient
from repro.client.workload import WorkloadSpec
from repro.network.delays import FixedDelay
from repro.network.network import Network
from repro.obs.trace import CLIENT, EventStream, open_stream
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.types.messages import ClientReply, ClientRequest
from repro.transport.clock import AsyncioClock


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


class Wire:
    """A fabric that delivers nothing: it records what a client sent, and when."""

    def __init__(self, clock):
        self.clock = clock
        self.sent = []

    def register(self, node_id, handler):
        pass

    def send(self, src, dst, message):
        self.sent.append((self.clock.now, message.transaction))


class ManualClient(ClientBase):
    """Sends when the test says so."""

    def _begin(self):
        pass


def timeout_log():
    """A stream with one subscriber, and the ``(t, txid)`` of every timeout it heard."""
    log = []
    stream = EventStream()
    stream.subscribe(lambda t, who, category, kind, view, payload:
                     log.append((t, payload["txid"])) if kind == "request-timeout" else None,
                     CLIENT)
    return stream, log


def commit(client, txid):
    client.deliver(ClientReply(sender="r0", size_bytes=96, txid=txid, committed_at=0.0,
                               replica="r0", status="committed"))


class TestRequestDeadline:
    """One armed timeout post per client, for its oldest outstanding request."""

    TIMEOUT = 0.3  # not a binary fraction: deadlines are compared as floats

    def manual(self, **kwargs):
        scheduler = EventScheduler()
        stream, log = timeout_log()
        client = ManualClient("c0", scheduler, Wire(scheduler), RandomStreams(seed=5), ["r0"],
                              events=stream, request_timeout=self.TIMEOUT, **kwargs)
        client.start()
        return scheduler, client, log

    def test_heap_of_a_saturated_run_holds_live_timers_not_requests(self):
        config = Configuration(protocol="hotstuff", num_nodes=4, block_size=400, num_clients=2,
                               concurrency=200, payload_size=0, warmup=0.2, runtime=1.0,
                               cooldown=0.2, view_timeout=0.5, request_timeout=5.0,
                               cost_profile="standard", mempool_capacity=4000, seed=101)
        cluster = build_cluster(config)
        run_cluster(cluster)
        sent = sum(client.requests_sent for client in cluster.clients)
        assert sum(client.requests_timed_out for client in cluster.clients) == 0
        # A view timer per replica, a deadline per client, cancelled view
        # timers below the scheduler's compaction floor, and the hops in
        # flight (few: at saturation a request waits in a mempool) — not an
        # entry per request sent in the last five seconds.
        live = 2 * EventScheduler.compaction_min_size
        assert cluster.scheduler.pending_events <= live
        assert sent > 20 * live

    def test_each_request_expires_at_its_own_deadline_oldest_first(self):
        scheduler, client, log = self.manual()
        sends = (0.1, 0.25, 0.4)
        for at in sends:
            scheduler.call_at(at, client._submit_request)
        scheduler.run_until(0.45)
        first, second, third = (tx.txid for _, tx in client.network.sent)
        # Exactly sent_at + request_timeout, while two younger ones wait on
        # the one post that moved on to the older of them.
        assert log == [(0.1 + self.TIMEOUT, first)]
        assert list(client._outstanding) == [second, third]
        assert scheduler.pending_events == 1
        scheduler.run_until(1.0)
        assert log == [(at + self.TIMEOUT, txid) for at, txid in zip(sends, (first, second, third))]
        assert client.requests_timed_out == 3
        assert scheduler.pending_events == 0 and not client._deadline_armed
        # One firing per deadline, none per request answered or not.
        assert scheduler.processed_events == len(sends) + 3

    def test_a_burst_expires_in_send_order_in_one_firing(self):
        scheduler = EventScheduler()
        stream, log = timeout_log()
        client = ClosedLoopClient("c0", scheduler, Wire(scheduler), RandomStreams(seed=5), ["r0"],
                                  events=stream, concurrency=5, request_timeout=self.TIMEOUT)
        client.start()
        burst = [tx.txid for _, tx in client.network.sent]
        assert scheduler.pending_events == 1
        scheduler.run_until(self.TIMEOUT)
        assert log == [(self.TIMEOUT, txid) for txid in burst]
        assert scheduler.processed_events == 1
        # Each replacement was issued from inside that firing, joined the
        # back of the queue and is what the post is now armed for.
        replacements = [tx.txid for _, tx in client.network.sent[5:]]
        assert list(client._outstanding) == replacements and len(replacements) == 5
        assert scheduler.pending_events == 1
        scheduler.run_until(2 * self.TIMEOUT)
        assert log[5:] == [(self.TIMEOUT + self.TIMEOUT, txid) for txid in replacements]
        assert scheduler.processed_events == 2

    def test_a_deadline_whose_request_was_answered_moves_on_to_the_next_oldest(self):
        scheduler, client, log = self.manual()
        scheduler.call_at(0.1, client._submit_request)
        scheduler.call_at(0.2, client._submit_request)
        scheduler.run_until(0.25)
        first, second = (tx.txid for _, tx in client.network.sent)
        commit(client, first)
        scheduler.run_until(0.1 + self.TIMEOUT)  # the post armed for ``first`` fires
        assert log == [] and client.requests_timed_out == 0
        assert scheduler.pending_events == 1 and list(client._outstanding) == [second]
        commit(client, second)
        scheduler.run_until(0.2 + self.TIMEOUT)  # ... and finds nothing to wait for
        assert scheduler.pending_events == 0 and not client._deadline_armed
        assert scheduler.processed_events == 4
        # The next request arms a post of its own.
        scheduler.call_at(0.6, client._submit_request)
        scheduler.run_until(1.0)
        assert log == [(0.6 + self.TIMEOUT, client.network.sent[2][1].txid)]

    def test_unheard_and_heard_clients_do_the_same(self):
        def run(events):
            scheduler, network, streams, _replicas, _metrics = make_env()
            network.register("dead", lambda message: None)
            client = ClosedLoopClient("c0", scheduler, network, streams, ["r0", "dead"],
                                      events=events, concurrency=4, request_timeout=0.05)
            client.start()
            scheduler.run_until(0.5)
            return (client.requests_sent, client.replies_committed, client.requests_timed_out,
                    list(client._outstanding.items()), scheduler.processed_events)

        heard = run(timeout_log()[0])
        assert heard == run(None) and heard[1] > 0 and heard[2] > 0

    def test_on_a_wall_clock_never_early_in_order_and_one_loop_timer(self, spy_on_loop_timers):
        async def scenario():
            loop = asyncio.get_running_loop()
            timers = spy_on_loop_timers(loop)

            def live():
                return sum(1 for h in timers if not h.cancelled() and h.when() > loop.time())

            clock = AsyncioClock()
            stream, log = timeout_log()
            client = ClosedLoopClient("c0", clock, Wire(clock), RandomStreams(seed=5), ["r0"],
                                      events=stream, concurrency=3, request_timeout=0.03)
            client.start()
            # At most one live loop timer, however many requests are outstanding.
            assert live() == 1 and len(client._outstanding) == 3
            while len(log) < 6:
                await asyncio.sleep(0.01)
                assert live() <= 1
            return clock, client, log

        clock, client, log = asyncio.run(scenario())
        sent_at = {tx.txid: at for at, tx in client.network.sent}
        assert [txid for _, txid in log] == list(sent_at)[:len(log)]
        assert all(t >= sent_at[txid] + 0.03 for t, txid in log)
        # A wake-up a clock resolution early expires what it was armed for
        # instead of re-arming for the same instant.
        assert clock.processed_events <= len(log)


class TestOpenLoopSchedule:
    def test_a_late_callback_moves_no_arrival_and_hides_no_wait(self):
        rate, stop, stall = 1000.0, 0.15, 0.05

        async def scenario():
            clock = AsyncioClock()
            client = PoissonClient("c0", clock, Wire(clock), RandomStreams(seed=21), ["r0"],
                                   rate=rate, request_timeout=10.0)
            client.start(stop_time=stop)
            clock.post_at(0.03, time.sleep, stall)  # the loop serves nothing for 50 ms
            await asyncio.sleep(stop + 0.05)
            return client

        client = asyncio.run(scenario())
        sent = client.network.sent
        drawn = RandomStreams(seed=21).get("arrivals:c0")
        # The clock's reading at ``start`` is the one thing not drawn.
        intended = sent[0][1].created_at
        assert 0.0 <= intended - drawn.expovariate(rate) < 0.01
        schedule = []
        while intended < stop:
            schedule.append(intended)
            intended += drawn.expovariate(rate)
        # Every arrival the schedule holds before the stop was issued, stamped
        # with its scheduled instant and timed from it ...
        assert [tx.created_at for _, tx in sent] == pytest.approx(schedule, abs=1e-9)
        assert list(client._outstanding.values()) == [tx.created_at for _, tx in sent]
        # ... including those the stall made late, which went out together
        # once it was over.
        late = [at - tx.created_at for at, tx in sent]
        assert max(late) > 0.8 * stall
        assert sum(1 for lateness in late if lateness > 0.005) > 0.25 * stall * rate


class TestClientDraws:
    """A client draws with ``_randbelow`` what ``choice`` / ``randrange`` draw."""

    def test_one_randbelow_draw_equals_choice_and_randrange(self):
        import random

        ours, reference = random.Random(2024), random.Random(2024)
        replica_lists = [["r0"], [f"r{i}" for i in range(4)], [f"r{i}" for i in range(7)]]
        bounds = (1, 3, KEY_SPACE, 2**20)
        for i in range(10_000):
            replicas = replica_lists[i % 3]
            bound = bounds[i % 4]
            assert ours._randbelow(bound) == reference.randrange(bound)
            assert replicas[ours._randbelow(len(replicas))] == reference.choice(replicas)

    def test_keys_span_the_fixed_key_space(self):
        scheduler, network, streams, replicas, _ = make_env(num_replicas=4)
        client = ClosedLoopClient(
            "c0", scheduler, network, streams, [r.node_id for r in replicas], concurrency=1
        )
        keys = []
        network.send = lambda src, dst, message: keys.append(message.transaction.key)
        for _ in range(4000):
            client._submit_request()
        assert set(keys) <= {f"k{i}" for i in range(KEY_SPACE)}
        assert len(set(keys)) > KEY_SPACE // 2

    def test_requests_follow_the_reference_draws(self):
        scheduler, network, streams, replicas, _ = make_env(num_replicas=4)
        client = ClosedLoopClient(
            "c0", scheduler, network, streams, [r.node_id for r in replicas], concurrency=1
        )
        sent = []
        network.send = lambda src, dst, message: sent.append((dst, message.transaction.key))
        for _ in range(2000):
            client._submit_request()
        reference = RandomStreams(seed=11).get("client:c0")
        expected = []
        for _ in range(2000):
            reference.random()
            key = f"k{reference.randrange(KEY_SPACE)}"
            expected.append((reference.choice(client.replicas), key))
        assert sent == expected
