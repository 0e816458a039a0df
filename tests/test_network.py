"""Unit tests for the simulated network, delays, NICs, partitions, fluctuation."""

import pytest

from repro.network.delays import (
    CompositeDelay,
    FixedDelay,
    NoDelay,
    NormalDelay,
    UniformDelay,
    make_delay_model,
)
from repro.network.fluctuation import FluctuationWindow
from repro.network.network import NIC_OVERHEAD_S, Network
from repro.network.partition import Partition
from repro.plugins import RegistryError
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.types.messages import Message


def make_network(base_delay=None, extra_delay=None, bandwidth=1e9, seed=1):
    sched = EventScheduler()
    streams = RandomStreams(seed=seed)
    net = Network(
        sched,
        streams,
        base_delay=base_delay if base_delay is not None else FixedDelay(0.001),
        extra_delay=extra_delay,
        bandwidth_bps=bandwidth,
    )
    return sched, net


def msg(sender="a", size=1000):
    return Message(sender=sender, size_bytes=size)


class TestDelayModels:
    def test_no_delay(self):
        import random

        assert NoDelay().sample(random.Random(0)) == 0.0
        assert NoDelay().mean() == 0.0

    def test_fixed_delay(self):
        import random

        assert FixedDelay(0.5).sample(random.Random(0)) == 0.5
        assert FixedDelay(0.5).mean() == 0.5

    def test_fixed_delay_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedDelay(-1.0)

    def test_normal_delay_respects_floor(self):
        import random

        model = NormalDelay(mean_delay=0.001, stddev=0.01, floor=0.0)
        rng = random.Random(0)
        assert all(model.sample(rng) >= 0.0 for _ in range(200))

    def test_spec_kind_is_an_exact_name(self):
        spec = {"kind": "normal", "mean_delay": 0.1, "stddev": 0.01}
        assert make_delay_model(spec) == NormalDelay(0.1, 0.01)
        assert make_delay_model("none") == NoDelay()
        for spec in ("gauss", {"kind": "gauss", "mean_delay": 0.1}, "Normal"):
            with pytest.raises(RegistryError, match="available: none, fixed, normal"):
                make_delay_model(spec)

    def test_normal_delay_rejects_negative_params(self):
        with pytest.raises(ValueError):
            NormalDelay(-1.0, 0.1)

    def test_uniform_delay_bounds(self):
        import random

        model = UniformDelay(0.01, 0.02)
        rng = random.Random(0)
        samples = [model.sample(rng) for _ in range(100)]
        assert all(0.01 <= s <= 0.02 for s in samples)
        assert model.mean() == pytest.approx(0.015)

    def test_uniform_delay_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformDelay(0.02, 0.01)

    def test_composite_delay_sums_components(self):
        import random

        model = CompositeDelay([FixedDelay(0.1), FixedDelay(0.2)])
        assert model.sample(random.Random(0)) == pytest.approx(0.3)
        assert model.mean() == pytest.approx(0.3)

    def test_composite_delay_requires_components(self):
        with pytest.raises(ValueError):
            CompositeDelay([])

    @pytest.mark.parametrize("model", [
        NoDelay(),
        FixedDelay(0.5),
        NormalDelay(mean_delay=0.001, stddev=0.01, floor=0.0),
        UniformDelay(0.01, 0.02),
        CompositeDelay([NormalDelay(0.001, 0.002), UniformDelay(0.0, 0.01)]),
    ], ids=lambda model: type(model).__name__)
    def test_bound_draw_equals_sample(self, model):
        """The network's per-copy draw is ``sample`` bit for bit, draw for draw."""
        import random

        draw, a, b, floor = model.bind(random.Random(3))
        bound = []
        for _ in range(2000):
            value = draw(a, b)
            bound.append(value if value > floor else floor)
        rng = random.Random(3)
        assert bound == [model.sample(rng) for _ in range(2000)]

    def test_normal_draw_is_a_floored_gauss(self):
        """The LAN delay draws what ``max(floor, rng.gauss(mean, stddev))`` draws."""
        import random

        model = NormalDelay(mean_delay=0.001, stddev=0.01, floor=0.0)
        rng, reference = random.Random(3), random.Random(3)
        assert [model.sample(rng) for _ in range(2000)] == [
            max(0.0, reference.gauss(0.001, 0.01)) for _ in range(2000)
        ]

    def test_subclass_overriding_sample_alone_is_not_bypassed(self):
        class Doubled(NormalDelay):
            def sample(self, rng):
                return 2 * super().sample(rng)

        sched, net = make_network(base_delay=Doubled(mean_delay=0.05, stddev=0.0))
        times = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: times.append(sched.now))
        net.send("a", "b", msg(size=0))
        sched.run_until(1.0)
        assert times == [pytest.approx(0.1 + 2 * NIC_OVERHEAD_S)]

    def test_assigned_model_is_bound_on_assignment(self):
        """A mid-run ``set-delay`` takes effect on the next send."""
        sched, net = make_network(base_delay=FixedDelay(0.01))
        times = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: times.append(sched.now))
        net.send("a", "b", msg(size=0))
        sched.run_until(1.0)
        net.base_delay = FixedDelay(0.2)
        net.extra_delay = FixedDelay(0.1)
        net.send("a", "b", msg(size=0))
        sched.run_until(2.0)
        assert times[0] == pytest.approx(0.01 + 2 * NIC_OVERHEAD_S)
        assert times[1] == pytest.approx(1.0 + 0.3 + 2 * NIC_OVERHEAD_S)


class TestNic:
    """The egress and ingress NICs: one analytic FIFO reservation each."""

    @staticmethod
    def _receiving(net, sched, *names):
        got = []
        for name in names:
            net.register(name, lambda m, name=name: got.append((name, m.sender, sched.now)))
        return got

    def test_burst_on_one_link_serializes_at_service_time(self):
        sched, net = make_network(base_delay=FixedDelay(0.01), bandwidth=1000)
        got = self._receiving(net, sched, "a", "b")
        for _ in range(3):
            net.send("a", "b", msg(size=500))
        sched.run_until_idle()
        service = NIC_OVERHEAD_S + 500 / 1000
        times = [t for _, _, t in got]
        # Egress, propagation, ingress for the first copy; each later copy
        # leaves the sender's NIC one service time after the one before.
        assert times[0] == pytest.approx(service + 0.01 + service)
        assert [b - a for a, b in zip(times, times[1:])] == pytest.approx([service, service])

    def test_idle_nic_starts_at_now(self):
        sched, net = make_network(base_delay=FixedDelay(0.01), bandwidth=1000)
        got = self._receiving(net, sched, "a", "b")
        net.send("a", "b", msg(size=500))
        sched.run_until(5.0)
        net.send("a", "b", msg(size=500))
        sched.run_until_idle()
        service = NIC_OVERHEAD_S + 500 / 1000
        assert got[1][2] == pytest.approx(5.0 + service + 0.01 + service)

    def test_two_senders_queue_at_one_ingress_in_arrival_order(self):
        sched, net = make_network(base_delay=FixedDelay(0.01), bandwidth=1000)
        got = self._receiving(net, sched, "a", "b", "c")
        net.send("a", "c", msg(sender="a", size=500))
        net.send("b", "c", msg(sender="b", size=400))
        sched.run_until_idle()
        big, small = NIC_OVERHEAD_S + 500 / 1000, NIC_OVERHEAD_S + 400 / 1000
        # b's copy leaves its NIC first and arrives first; a's arrives while
        # c's ingress is still busy with it, and waits its turn.
        assert [sender for _, sender, _ in got] == ["b", "a"]
        assert got[0][2] == pytest.approx(small + 0.01 + small)
        assert got[1][2] == pytest.approx(small + 0.01 + small + big)

    @pytest.mark.parametrize("bandwidth", [0, -1.0])
    def test_non_positive_bandwidth_refused(self, bandwidth):
        with pytest.raises(ValueError):
            make_network(bandwidth=bandwidth)

    def test_negative_size_refused(self):
        sched, net = make_network()
        self._receiving(net, sched, "a", "b")
        with pytest.raises(ValueError):
            net.send("a", "b", msg(size=-1))
        assert net.stats.messages_sent == 0


class TestDelivery:
    def test_message_is_delivered_to_registered_handler(self):
        sched, net = make_network()
        received = []
        net.register("a", lambda m: None)
        net.register("b", received.append)
        message = msg()
        net.send("a", "b", message)
        sched.run_until(1.0)
        assert received == [message]

    def test_delivery_takes_at_least_base_delay(self):
        sched, net = make_network(base_delay=FixedDelay(0.01))
        times = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: times.append(sched.now))
        net.send("a", "b", msg())
        sched.run_until(1.0)
        assert times[0] >= 0.01

    def test_extra_delay_is_added(self):
        sched, net = make_network(base_delay=FixedDelay(0.01), extra_delay=FixedDelay(0.05))
        times = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: times.append(sched.now))
        net.send("a", "b", msg())
        sched.run_until(1.0)
        assert times[0] >= 0.06

    def test_loopback_skips_nics_and_wire(self):
        sched, net = make_network(base_delay=FixedDelay(0.5))
        times = []
        net.register("a", lambda m: times.append(sched.now))
        net.send("a", "a", msg())
        sched.run_until(1.0)
        assert times[0] < 0.01

    def test_unknown_endpoints_raise(self):
        _sched, net = make_network()
        net.register("a", lambda m: None)
        with pytest.raises(KeyError):
            net.send("a", "ghost", msg())
        with pytest.raises(KeyError):
            net.send("ghost", "a", msg())

    def test_duplicate_registration_rejected(self):
        _sched, net = make_network()
        net.register("a", lambda m: None)
        with pytest.raises(ValueError):
            net.register("a", lambda m: None)

    def test_broadcast_reaches_all_but_self_by_default(self):
        sched, net = make_network()
        received = {n: [] for n in "abc"}
        for name in "abc":
            net.register(name, received[name].append)
        net.broadcast("a", ["a", "b", "c"], msg())
        sched.run_until(1.0)
        assert len(received["a"]) == 0
        assert len(received["b"]) == 1
        assert len(received["c"]) == 1

    def test_broadcast_include_self(self):
        sched, net = make_network()
        received = {n: [] for n in "ab"}
        for name in "ab":
            net.register(name, received[name].append)
        net.broadcast("a", ["a", "b"], msg(), include_self=True)
        sched.run_until(1.0)
        assert len(received["a"]) == 1
        assert len(received["b"]) == 1

    def test_stats_track_sent_and_delivered(self):
        sched, net = make_network()
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.send("a", "b", msg(size=123))
        sched.run_until(1.0)
        assert net.stats.messages_sent == 1
        assert net.stats.messages_delivered == 1
        assert net.stats.bytes_sent == 123
        assert net.stats.per_type_counts["Message"] == 1


class TestFaultInjection:
    def test_crashed_destination_drops_messages(self):
        sched, net = make_network()
        received = []
        net.register("a", lambda m: None)
        net.register("b", received.append)
        net.crash("b")
        net.send("a", "b", msg())
        sched.run_until(1.0)
        assert received == []
        assert net.stats.messages_dropped == 1

    def test_crashed_sender_drops_messages(self):
        sched, net = make_network()
        received = []
        net.register("a", lambda m: None)
        net.register("b", received.append)
        net.crash("a")
        net.send("a", "b", msg())
        sched.run_until(1.0)
        assert received == []

    def test_recover_restores_delivery(self):
        sched, net = make_network()
        received = []
        net.register("a", lambda m: None)
        net.register("b", received.append)
        net.crash("b")
        net.recover("b")
        net.send("a", "b", msg())
        sched.run_until(1.0)
        assert len(received) == 1

    def test_slow_node_multiplies_delay(self):
        sched, net = make_network(base_delay=FixedDelay(0.01))
        times = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: times.append(sched.now))
        net.set_slow("b", 10.0)
        net.send("a", "b", msg())
        sched.run_until(2.0)
        assert times[0] >= 0.1

    def test_slow_factor_below_one_rejected(self):
        _sched, net = make_network()
        net.register("a", lambda m: None)
        with pytest.raises(ValueError):
            net.set_slow("a", 0.5)

    def test_partition_blocks_cross_group_messages(self):
        sched, net = make_network()
        received = []
        for name in "abcd":
            net.register(name, received.append if name == "d" else (lambda m: None))
        net.add_partition(Partition(groups=(frozenset({"a", "b"}), frozenset({"c", "d"}))))
        net.send("a", "d", msg())
        sched.run_until(1.0)
        assert received == []

    def test_partition_allows_intra_group_messages(self):
        sched, net = make_network()
        received = []
        net.register("a", lambda m: None)
        net.register("b", received.append)
        net.register("c", lambda m: None)
        net.add_partition(Partition(groups=(frozenset({"a", "b"}), frozenset({"c"}))))
        net.send("a", "b", msg())
        sched.run_until(1.0)
        assert len(received) == 1

    def test_partition_expires(self):
        sched, net = make_network()
        received = []
        net.register("a", lambda m: None)
        net.register("b", received.append)
        net.add_partition(
            Partition(groups=(frozenset({"a"}), frozenset({"b"})), start=0.0, end=0.5)
        )
        sched.run_until(1.0)  # move past the partition window
        net.send("a", "b", msg())
        sched.run_until(2.0)
        assert len(received) == 1

    def test_fluctuation_adds_delay_inside_window(self):
        sched, net = make_network(base_delay=FixedDelay(0.001))
        times = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: times.append(sched.now))
        net.add_fluctuation(FluctuationWindow(start=0.0, end=10.0, min_delay=0.1, max_delay=0.2))
        net.send("a", "b", msg())
        sched.run_until(5.0)
        assert times[0] >= 0.1

    def test_fluctuation_inactive_outside_window(self):
        sched, net = make_network(base_delay=FixedDelay(0.001))
        times = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: times.append(sched.now))
        net.add_fluctuation(FluctuationWindow(start=5.0, end=10.0, min_delay=0.1, max_delay=0.2))
        net.send("a", "b", msg())
        sched.run_until(4.0)
        assert times and times[0] < 0.05


class TestPartitionHelpers:
    def test_isolate_constructor(self):
        partition = Partition.isolate({"a", "b", "c"}, {"c"})
        assert partition.active(0.0)
        assert partition.unreachable_from("a") == {"c"}
        assert partition.unreachable_from("c") == {"a", "b"}

    def test_nodes_outside_groups_unaffected(self):
        partition = Partition(groups=(frozenset({"a"}), frozenset({"b"})))
        assert "client-1" not in partition.unreachable_from("a")
        assert partition.unreachable_from("client-1") == frozenset()

    def test_active_interval(self):
        partition = Partition(groups=(frozenset({"a"}), frozenset({"b"})), start=1.0, end=2.0)
        assert [partition.active(t) for t in (0.5, 1.0, 1.5, 2.0)] == [False, True, True, False]

    def test_node_in_two_groups_belongs_to_the_last(self):
        """Overlapping groups stay symmetric: y sits with z, apart from x."""
        partition = Partition(groups=(frozenset({"x", "y"}), frozenset({"y", "z"})))
        assert partition.unreachable_from("x") == {"y", "z"}
        assert partition.unreachable_from("y") == {"x"}
        assert partition.unreachable_from("z") == {"x"}

    def test_unreachable_from(self):
        partition = Partition(groups=(frozenset({"a", "b"}), frozenset({"c"}), frozenset({"d"})))
        assert partition.unreachable_from("a") == {"c", "d"}
        assert partition.unreachable_from("c") == {"a", "b", "d"}
        assert partition.unreachable_from("client-1") == frozenset()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            FluctuationWindow(start=5.0, end=1.0, min_delay=0.0, max_delay=0.1)
        with pytest.raises(ValueError):
            FluctuationWindow(start=0.0, end=1.0, min_delay=0.2, max_delay=0.1)
