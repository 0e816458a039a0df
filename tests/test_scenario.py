"""Tests for the declarative scenario layer: events, JSON round-trip, runner."""

import pytest

from repro import api
from repro.bench.config import Configuration
from repro.bench.runner import ExperimentResult, build_cluster, run_cluster, run_experiment
from repro.scenario import (
    CrashReplica,
    Heal,
    NetworkFluctuation,
    Partition,
    RecoverReplica,
    Scenario,
    ScenarioEvent,
    SetArrivalRate,
    SetByzantine,
    SetDelayModel,
)

FAST = dict(
    block_size=20,
    runtime=1.0,
    warmup=0.0,
    cooldown=0.0,
    concurrency=8,
    num_clients=1,
    cost_profile="fast",
    view_timeout=0.05,
    request_timeout=0.2,
    seed=3,
)


def fast_config(**overrides):
    params = dict(FAST)
    params.update(overrides)
    return Configuration(**params)


ALL_EVENTS = [
    CrashReplica(at=1.0, replica="r2"),
    RecoverReplica(at=2.0, replica="last"),
    NetworkFluctuation(at=0.5, duration=2.0, min_delay=0.01, max_delay=0.05),
    Partition(at=1.0, groups=[["r0", "r1"], ["r2", "r3"]], duration=0.5),
    Heal(at=2.5),
    SetDelayModel(at=3.0, model={"kind": "fixed", "delay": 0.002}, target="extra"),
    SetByzantine(at=1.5, replica="r3", strategy="silence"),
    SetArrivalRate(at=2.0, rate=500.0),
]


class TestSerialization:
    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: e.kind)
    def test_event_round_trip(self, event):
        data = event.to_dict()
        clone = ScenarioEvent.from_dict(data)
        assert type(clone) is type(event)
        assert clone == event
        assert clone.to_dict() == data

    def test_event_dicts_are_json_compatible(self):
        import json

        payload = json.dumps([e.to_dict() for e in ALL_EVENTS])
        restored = [ScenarioEvent.from_dict(d) for d in json.loads(payload)]
        assert restored == ALL_EVENTS

    def test_scenario_round_trip(self):
        scenario = Scenario(name="demo", events=list(ALL_EVENTS), duration=5.0)
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_scenario_accepts_event_dicts_directly(self):
        scenario = Scenario(events=[{"kind": "crash-replica", "at": 1.0}])
        assert isinstance(scenario.events[0], CrashReplica)

    def test_unknown_kind_rejected_with_available_list(self):
        with pytest.raises(ValueError, match="unknown scenario event 'meteor'"):
            ScenarioEvent.from_dict({"kind": "meteor", "at": 1.0})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="needs a 'kind' key"):
            ScenarioEvent.from_dict({"at": 1.0})

    def test_alias_kinds_resolve(self):
        event = ScenarioEvent.from_dict({"kind": "crash", "at": 1.0, "replica": "r1"})
        assert isinstance(event, CrashReplica)


class TestEventApplication:
    def test_crash_and_recover(self):
        scenario = Scenario(events=[
            CrashReplica(at=0.3, replica="last"),
            RecoverReplica(at=0.6, replica="last"),
        ])
        cluster = api.build(fast_config(), scenario)
        cluster.start()
        cluster.run(until=0.4)
        assert cluster.network.is_crashed("r3")
        cluster.run(until=1.0)
        assert not cluster.network.is_crashed("r3")
        assert cluster.consistency_check()
        # The recovered replica rejoins view synchronization (within one view
        # of the observer at any sampling instant) and — with the block-fetch
        # subsystem — recovers the blocks it missed as well.
        assert cluster.replicas["r3"].current_view >= cluster.replicas["r0"].current_view - 1
        assert (
            cluster.replicas["r3"].forest.committed_height
            >= cluster.replicas["r0"].forest.committed_height - 2
        )

    def test_partition_and_heal(self):
        scenario = Scenario(events=[
            Partition(at=0.2, groups=[["r0", "r1"], ["r2", "r3"]]),
            Heal(at=0.5),
        ])
        cluster = api.build(fast_config(), scenario)
        cluster.start()
        cluster.run(until=0.3)
        dropped_mid_partition = cluster.network.stats.messages_dropped
        assert dropped_mid_partition > 0  # cross-group traffic is blocked
        cluster.run(until=1.0)
        assert cluster.consistency_check()
        # After healing, commits resume cluster-wide.
        assert all(r.stats.blocks_committed > 0 for r in cluster.replicas.values())

    def test_set_byzantine_converts_live_replica(self):
        from repro.core.byzantine import SilentReplica

        scenario = Scenario(events=[SetByzantine(at=0.5, replica="r3", strategy="silence")])
        cluster = api.build(fast_config(), scenario)
        assert type(cluster.replicas["r3"]).strategy == "honest"
        cluster.start()
        cluster.run(until=1.0)
        victim = cluster.replicas["r3"]
        assert isinstance(victim, SilentReplica)
        assert victim.views_silenced >= 0  # counter was initialized on conversion
        assert cluster.consistency_check()

    def test_set_delay_model_swaps_network_delay(self):
        from repro.network.delays import FixedDelay

        scenario = Scenario(events=[
            SetDelayModel(at=0.5, model={"kind": "fixed", "delay": 0.01}, target="extra"),
        ])
        cluster = api.build(fast_config(), scenario)
        cluster.start()
        cluster.run(until=1.0)
        assert isinstance(cluster.network.extra_delay, FixedDelay)
        assert cluster.network.extra_delay.delay == pytest.approx(0.01)

    def test_set_arrival_rate_rescales_open_loop_clients(self):
        scenario = Scenario(events=[SetArrivalRate(at=0.5, rate=800.0)])
        cluster = api.build(fast_config(arrival_rate=200.0, num_clients=2), scenario)
        assert all(c.rate == pytest.approx(100.0) for c in cluster.clients)
        cluster.start()
        cluster.run(until=1.0)
        assert all(c.rate == pytest.approx(400.0) for c in cluster.clients)

    def test_symbolic_replica_names_resolve(self):
        config = fast_config()
        scenario = Scenario(events=[CrashReplica(at=0.5, replica="first")])
        cluster = api.build(config, scenario)
        cluster.start()
        cluster.run(until=1.0)
        assert cluster.network.is_crashed("r0")

    def test_unknown_replica_name_rejected_at_apply_time(self):
        scenario = Scenario(events=[CrashReplica(at=0.1, replica="r99")])
        cluster = api.build(fast_config(), scenario)
        cluster.start()
        with pytest.raises(ValueError, match="unknown replica 'r99'"):
            cluster.run(until=0.5)


class TestScenarioRunner:
    def test_run_scenario_returns_result_with_timeline(self):
        scenario = Scenario(
            events=[CrashReplica(at=0.5, replica="last")], duration=1.0
        )
        result = run_experiment(fast_config(), scenario, bucket=0.25)
        assert isinstance(result, ExperimentResult)
        assert result.scenario is scenario
        assert result.consistent
        assert len(result.timeline) >= 4
        assert all(t <= 1.0 for t, _ in result.timeline)
        assert result.mean_throughput(0.0, 0.5) > 0

    def test_empty_scenario_matches_plain_run_metrics(self):
        config = fast_config(warmup=0.1, runtime=0.6, cooldown=0.1)
        plain = api.run(config)
        scenario_result = api.run(config, scenario=Scenario(name="empty"))
        assert scenario_result.metrics == plain.metrics
        assert scenario_result.highest_view == plain.highest_view


class TestResponsivenessDeclarative:
    """The Fig. 15 experiment is a two-event scenario."""

    def test_to_scenario_shape(self):
        from repro.experiments import paper

        scenario = paper.FIG15.spec("full").scenario
        assert scenario.name == "responsiveness"
        assert [e.kind for e in scenario.events] == ["network-fluctuation", "crash-replica"]
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_fig15_schedule_runs_at_test_size(self):
        scenario = Scenario(name="responsiveness", duration=1.2, events=[
            NetworkFluctuation(at=0.3, duration=0.3, min_delay=0.02, max_delay=0.08),
            CrashReplica(at=0.8, replica="last"),
        ])
        cluster = build_cluster(fast_config(runtime=1.2), scenario)
        result = run_cluster(cluster, bucket=0.2)
        assert cluster.network.is_crashed("r3")
        assert result.consistent
        assert result.mean_throughput(0.0, 0.3) > 0
