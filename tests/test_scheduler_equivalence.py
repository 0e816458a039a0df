"""Equivalence tests for the two-tier scheduler API and batched broadcast.

The fast tier (``post_at``/``post_after``) must be observationally identical
to the cancellable tier (``call_at``/``call_after``) in everything except the
handle: execution order, clock semantics, horizon behaviour, and
``max_events`` early-stop.  Likewise ``Network.broadcast`` must produce
byte-identical delivery timestamps to looping ``send`` over the same
destinations, with or without a network condition installed, and a condition
that touches no message must change nothing.  These tests pin those
contracts so future scheduler or network work cannot silently fork a path.
"""

import pytest

from repro.bench.config import Configuration
from repro.bench.runner import build_cluster
from repro.network.delays import FixedDelay, NormalDelay
from repro.network.network import Network
from repro.network.partition import Partition
from repro.network.fluctuation import FluctuationWindow
from repro.sim.events import EventScheduler, SimulationError
from repro.sim.random import RandomStreams
from repro.types.messages import Message, UNASSIGNED_MESSAGE_ID


class TestTwoTierEquivalence:
    def _interleaved(self, use_posts):
        """Schedule the same workload via call_* or post_* and trace it."""
        sched = EventScheduler()
        trace = []

        def record(tag):
            trace.append((tag, sched.now))

        schedule_after = sched.post_after if use_posts else sched.call_after
        schedule_at = sched.post_at if use_posts else sched.call_at
        # Interleave absolute and relative scheduling, ties included.
        schedule_after(0.3, record, "after-0.3")
        schedule_at(0.1, record, "at-0.1")
        schedule_after(0.1, record, "after-0.1")  # tie with at-0.1
        schedule_at(0.2, record, "at-0.2")

        def nested(tag):
            record(tag)
            # Scheduling from inside a callback sees the updated clock.
            schedule_after(0.05, record, f"{tag}+0.05")

        schedule_at(0.15, nested, "nested-0.15")
        sched.run_until(1.0)
        return trace, sched.now, sched.processed_events

    def test_posts_match_calls_under_interleaving(self):
        posts = self._interleaved(use_posts=True)
        calls = self._interleaved(use_posts=False)
        assert posts == calls
        # Sanity: ties broke in scheduling order and now was the fire time.
        trace = posts[0]
        # nested+0.05 lands exactly on 0.2: at-0.2 was scheduled earlier, so
        # the (time, sequence) tie breaks in its favour.
        assert [tag for tag, _ in trace] == [
            "at-0.1", "after-0.1", "nested-0.15", "at-0.2",
            "nested-0.15+0.05", "after-0.3",
        ]
        assert trace[0][1] == pytest.approx(0.1)
        assert trace[-1][1] == pytest.approx(0.3)

    def test_posts_survive_cancellation_pressure(self):
        """Compaction triggered by cancelled timers must not disturb posts."""
        sched = EventScheduler()
        sched.compaction_min_size = 8
        fired = []
        for i in range(50):
            sched.post_at(1.0 + i * 0.01, fired.append, i)
        # Cancel enough timers to force several compactions in between.
        for _ in range(200):
            timer = sched.call_after(5.0, lambda: None)
            timer.cancel()
        assert sched.compactions > 0
        sched.run_until(10.0)
        assert fired == list(range(50))

    def test_max_events_early_stop_parity(self):
        def run(use_posts):
            sched = EventScheduler()
            seen = []
            schedule = sched.post_after if use_posts else sched.call_after
            for i in range(10):
                schedule(0.1 * (i + 1), seen.append, i)
            executed = sched.run_until(5.0, max_events=4)
            return executed, seen, sched.now

        assert run(True) == run(False)
        executed, seen, now = run(True)
        assert executed == 4
        assert seen == [0, 1, 2, 3]
        # The clock must not fast-forward past the last executed event.
        assert now == pytest.approx(0.4)

    def test_post_in_the_past_raises(self):
        sched = EventScheduler()
        sched.post_after(1.0, lambda: None)
        sched.run_until(1.0)
        with pytest.raises(SimulationError):
            sched.post_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sched.post_after(-0.1, lambda: None)

    def test_posted_args_are_passed(self):
        sched = EventScheduler()
        got = []
        sched.post_after(0.1, lambda a, b: got.append((a, b)), 1, "x")
        sched.post_after(0.2, got.append, "bare")
        sched.run_until(1.0)
        assert got == [(1, "x"), "bare"]


def _cluster(seed=7, base_delay=None):
    sched = EventScheduler()
    streams = RandomStreams(seed=seed)
    net = Network(
        sched,
        streams,
        base_delay=base_delay if base_delay is not None else NormalDelay(1e-3, 2e-4),
        bandwidth_bps=1e9,
    )
    deliveries = {}
    for node in ("a", "b", "c", "d"):
        deliveries[node] = []
        net.register(node, lambda m, n=node: deliveries[n].append((sched.now, m)))
    return sched, net, deliveries


class TestBatchedBroadcast:
    def test_broadcast_matches_unbatched_sends(self):
        """Fault-free broadcast = looping send: identical delivery timestamps."""
        sched_a, net_a, recv_a = _cluster(seed=42)
        sched_b, net_b, recv_b = _cluster(seed=42)
        targets = ["a", "b", "c", "d"]

        for round_no in range(5):
            net_a.broadcast("a", targets, Message(sender="a", size_bytes=2000),
                            include_self=True)
            for dst in targets:
                net_b.send("a", dst, Message(sender="a", size_bytes=2000))
        sched_a.run_until_idle()
        sched_b.run_until_idle()

        for node in targets:
            times_batched = [t for t, _ in recv_a[node]]
            times_unbatched = [t for t, _ in recv_b[node]]
            assert times_batched == times_unbatched, node
        assert net_a.stats.messages_sent == net_b.stats.messages_sent
        assert net_a.stats.bytes_sent == net_b.stats.bytes_sent
        assert net_a.stats.per_type_counts == net_b.stats.per_type_counts


def _timestamps(recv):
    return {node: [t for t, _ in messages] for node, messages in recv.items()}


def _chatter(sched, net, rounds=4):
    """Sends and broadcasts among a, b, c from t=0.1 on; d never takes part."""
    sched.run_until(0.1)
    for round_no in range(rounds):
        net.broadcast("a", ["a", "b", "c"], Message(sender="a", size_bytes=2000),
                      include_self=True)
        net.send("b", "c", Message(sender="b", size_bytes=300))
        net.send("c", "a", Message(sender="c", size_bytes=300))
        sched.run_until(0.1 + 0.01 * (round_no + 1))
    sched.run_until_idle()


# Conditions that are installed but touch none of _chatter's messages.
IDLE_CONDITIONS = {
    "slow-bystander": lambda net: net.set_slow("d", 3.0),
    "unit-slow-factor": lambda net: net.set_slow("a", 1.0),
    "window-already-over": lambda net: net.add_fluctuation(
        FluctuationWindow(start=0.0, end=0.05, min_delay=0.01, max_delay=0.02)),
    "partition-of-strangers": lambda net: net.add_partition(
        Partition(groups=(frozenset({"x"}), frozenset({"y"})))),
}

# Conditions that do touch a broadcast from a to [a, b, c, d] at t=0.1.
LIVE_CONDITIONS = {
    "partition": lambda net: net.add_partition(
        Partition(groups=(frozenset({"a", "b"}), frozenset({"c", "d"})))),
    "fluctuation": lambda net: net.add_fluctuation(
        FluctuationWindow(start=0.0, end=1.0, min_delay=0.01, max_delay=0.02)),
    "slow": lambda net: net.set_slow("c", 4.0),
    "crashed-destination": lambda net: net.crash("d"),
}


class TestSinglePipeline:
    @pytest.mark.parametrize("condition", sorted(IDLE_CONDITIONS))
    def test_idle_condition_changes_no_timestamp(self, condition):
        sched_a, net_a, recv_a = _cluster(seed=21)
        sched_b, net_b, recv_b = _cluster(seed=21)
        IDLE_CONDITIONS[condition](net_b)
        _chatter(sched_a, net_a)
        _chatter(sched_b, net_b)
        assert _timestamps(recv_a) == _timestamps(recv_b)
        assert net_a.stats == net_b.stats
        assert net_b.stats.messages_dropped == 0

    def test_idle_condition_changes_no_run_metric(self):
        """A whole cluster run is blind to a condition that touches nothing."""
        config = Configuration(
            protocol="hotstuff", num_nodes=4, block_size=20, concurrency=8,
            num_clients=2, runtime=0.5, warmup=0.1, cooldown=0.1,
            cost_profile="fast", view_timeout=0.05, seed=13,
        )

        def run(install):
            cluster = build_cluster(config)
            install(cluster.network)
            cluster.start()
            cluster.run()
            return cluster.metrics.summarize().to_dict()

        plain = run(lambda net: None)
        assert plain["throughput_tps"] > 0
        for install in (
            lambda net: net.set_slow("r2", 1.0),
            IDLE_CONDITIONS["partition-of-strangers"],
        ):
            assert run(install) == plain

    @pytest.mark.parametrize("condition", sorted(LIVE_CONDITIONS))
    def test_broadcast_matches_looped_send_under_condition(self, condition):
        targets = ["a", "b", "c", "d"]
        sched_a, net_a, recv_a = _cluster(seed=33)
        sched_b, net_b, recv_b = _cluster(seed=33)
        for net, sched in ((net_a, sched_a), (net_b, sched_b)):
            LIVE_CONDITIONS[condition](net)
            sched.run_until(0.1)
        for _ in range(3):
            net_a.broadcast("a", targets, Message(sender="a", size_bytes=2000),
                            include_self=True)
            for dst in targets:
                net_b.send("a", dst, Message(sender="a", size_bytes=2000))
        sched_a.run_until_idle()
        sched_b.run_until_idle()
        assert _timestamps(recv_a) == _timestamps(recv_b)
        assert net_a.stats == net_b.stats
        # The condition was live: it dropped or visibly delayed something.
        if condition in ("partition", "crashed-destination"):
            assert net_a.stats.messages_dropped > 0
        else:
            assert max(_timestamps(recv_a)["c"]) > 0.1 + 4e-3

    def test_message_in_flight_is_dropped_when_its_sender_crashes(self):
        sched, net, recv = _cluster(seed=3, base_delay=FixedDelay(1e-3))
        net.send("a", "b", Message(sender="a", size_bytes=100))
        sched.run_until(0.5e-3)
        net.crash("a")
        sched.run_until_idle()
        assert not recv["b"]
        assert net.stats.messages_dropped == 1

    @pytest.mark.parametrize("conditioned", [False, True])
    def test_two_scheduler_events_per_delivered_message(self, conditioned):
        sched, net, recv = _cluster(seed=4)
        if conditioned:
            net.set_slow("b", 2.0)
            net.add_fluctuation(
                FluctuationWindow(start=0.0, end=1.0, min_delay=0.01, max_delay=0.02))
        before = sched.processed_events
        net.broadcast("a", ["a", "b", "c", "d"], Message(sender="a", size_bytes=500))
        net.send("b", "c", Message(sender="b", size_bytes=500))
        sched.run_until_idle()
        delivered = net.stats.messages_delivered
        assert delivered == 4
        assert sched.processed_events - before == 2 * delivered


class TestFaultPruning:
    def test_healed_partition_is_pruned(self):
        """heal_partitions() drops the healed entries from the scan list."""
        sched, net, recv = _cluster(seed=5, base_delay=FixedDelay(1e-3))
        net.add_partition(Partition(groups=(frozenset({"a"}), frozenset({"b", "c", "d"}))))
        net.send("a", "b", Message(sender="a", size_bytes=100))
        sched.run_until(0.1)
        assert not recv["b"]
        healed = net.heal_partitions()
        assert healed == 1
        # Regression: the healed partition must no longer be consulted at all.
        assert net._partitions == []
        net.send("a", "b", Message(sender="a", size_bytes=100))
        sched.run_until(0.2)
        assert len(recv["b"]) == 1

    def test_expired_fluctuation_window_is_pruned(self):
        sched, net, recv = _cluster(seed=6, base_delay=FixedDelay(1e-3))
        net.add_fluctuation(FluctuationWindow(start=0.0, end=0.05,
                                              min_delay=0.01, max_delay=0.02))
        net.send("a", "b", Message(sender="a", size_bytes=100))
        sched.run_until(0.1)
        assert len(net._fluctuations) == 1  # still live while ticking
        sched.run_until(0.2)
        net.send("a", "b", Message(sender="a", size_bytes=100))
        sched.run_until(0.3)
        # The expired window was dropped on the first post-expiry fault send.
        assert net._fluctuations == []
        assert len(recv["b"]) == 2


class TestPerNetworkMessageIds:
    def test_ids_are_stamped_per_network(self):
        """Two networks assign independent, deterministic id sequences."""
        sched_a, net_a, recv_a = _cluster(seed=9, base_delay=FixedDelay(1e-3))
        sched_b, net_b, recv_b = _cluster(seed=9, base_delay=FixedDelay(1e-3))
        for net, sched in ((net_a, sched_a), (net_b, sched_b)):
            for i in range(3):
                net.send("a", "b", Message(sender="a", size_bytes=10))
            sched.run_until_idle()
        ids_a = [m.message_id for _, m in recv_a["b"]]
        ids_b = [m.message_id for _, m in recv_b["b"]]
        assert ids_a == [1, 2, 3]
        assert ids_a == ids_b

    def test_stamping_happens_once(self):
        sched, net, recv = _cluster(seed=10)
        message = Message(sender="a", size_bytes=10)
        assert message.message_id == UNASSIGNED_MESSAGE_ID
        net.send("a", "b", message)
        first_id = message.message_id
        assert first_id > 0
        net.send("a", "c", message)
        assert message.message_id == first_id
        sched.run_until_idle()
