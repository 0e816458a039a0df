"""Tests for the repro.api facade and Configuration.validate()."""

import json

import pytest

from repro import api
from repro.bench.config import Configuration, ConfigurationError
from repro.bench.runner import Cluster, ExperimentResult
from repro.client.client import ClosedLoopClient, PoissonClient

FAST = dict(
    block_size=20,
    runtime=0.5,
    warmup=0.1,
    cooldown=0.1,
    concurrency=8,
    num_clients=1,
    cost_profile="fast",
    view_timeout=0.05,
    request_timeout=0.2,
)


class TestFacade:
    def test_run_accepts_configuration(self):
        result = api.run(Configuration(**FAST))
        assert isinstance(result, ExperimentResult)
        assert result.consistent

    def test_run_accepts_dict(self):
        result = api.run(dict(FAST))
        assert isinstance(result, ExperimentResult)
        assert result.metrics.committed_blocks > 0

    def test_run_rejects_unknown_config_keys(self):
        # Every unknown key is named; none silently falls back to a default.
        with pytest.raises(ConfigurationError, match="blok_size, num_node"):
            api.run({**FAST, "num_node": 7, "blok_size": 5})

    def test_run_rejects_other_types(self):
        with pytest.raises(TypeError, match="expected Configuration or dict"):
            api.run(42)

    def test_run_with_scenario_returns_scenario_result(self):
        result = api.run(
            dict(FAST),
            scenario={"events": [{"kind": "crash-replica", "at": 0.4, "replica": "last"}]},
        )
        assert isinstance(result, ExperimentResult)
        assert [event.kind for event in result.scenario.events] == ["crash-replica"]
        assert result.consistent

    def test_build_returns_cluster(self):
        cluster = api.build(dict(FAST))
        assert isinstance(cluster, Cluster)
        assert set(cluster.replicas) == {"r0", "r1", "r2", "r3"}

    def test_sweep(self):
        result = api.campaign(api.grid(dict(FAST), concurrency=[4, 8]))
        assert [r["params"]["concurrency"] for r in result.records] == [4, 8]
        assert all(tput > 0 for tput in result.metric("throughput_tps"))

    def test_available_lists_every_extension_point(self):
        listings = api.available()
        assert set(listings) == {
            "protocols", "strategies", "elections", "delay_models",
            "scenario_events", "oracles",
        }
        assert listings["protocols"] == api.available("protocols")
        assert all(listings.values())

    def test_available_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown extension point"):
            api.available("widgets")

    def test_load_config_from_json_file(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"config": {"protocol": "streamlet", "num_nodes": 8}}))
        config = api.load_config(path)
        assert config.protocol == "streamlet"
        assert config.num_nodes == 8
        # A flat dict (no "config" wrapper) also works.
        path.write_text(json.dumps({"protocol": "lbft"}))
        assert api.load_config(path).protocol == "lbft"


class TestValidate:
    def test_valid_config_returns_self(self):
        config = Configuration(**FAST)
        assert config.validate() is config

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="protocol: unknown protocol 'pbft'"):
            Configuration(protocol="pbft").validate()

    def test_unknown_strategy_only_checked_with_byzantine_nodes(self):
        Configuration(strategy="ddos").validate()  # no Byzantine nodes: allowed
        with pytest.raises(ConfigurationError, match="strategy: unknown Byzantine"):
            Configuration(num_nodes=7, byzantine_nodes=2, strategy="ddos").validate()

    def test_byzantine_bound(self):
        Configuration(num_nodes=7, byzantine_nodes=2).validate()  # 7 >= 3*2+1
        with pytest.raises(ConfigurationError, match="3f\\+1"):
            Configuration(num_nodes=6, byzantine_nodes=2).validate()

    def test_unknown_election(self):
        with pytest.raises(ConfigurationError, match="election: unknown election kind"):
            Configuration(election="lottery").validate()

    def test_master_must_be_a_node(self):
        Configuration(master="r2").validate()
        with pytest.raises(ConfigurationError, match="master: 'r9'"):
            Configuration(master="r9").validate()

    def test_static_is_not_a_registered_election(self):
        # A fixed leader is chosen by ``master``, never by an election kind.
        with pytest.raises(
            ConfigurationError,
            match="^invalid configuration: election: unknown election kind 'static'; "
            "available: round-robin, hash$",
        ):
            Configuration(election="static").validate()
        assert api.available("elections") == ["round-robin", "hash"]

    @pytest.mark.parametrize(
        "fields,registered",
        [
            ({"protocol": "hs"}, "protocol: unknown protocol 'hs'; available: hotstuff"),
            ({"protocol": "HotStuff"}, "protocol: unknown protocol 'HotStuff'; available: hotstuff"),
            ({"num_nodes": 4, "byzantine_nodes": 1, "strategy": "silent"},
             "strategy: unknown Byzantine strategy 'silent'; available: .*silence"),
            ({"election": "rr"}, "election: unknown election kind 'rr'; available: round-robin"),
        ],
    )
    def test_only_exact_names_are_accepted(self, fields, registered):
        # One behaviour, one name: a second spelling would hash to a second
        # run id and store the same run twice.
        with pytest.raises(ConfigurationError, match=registered):
            Configuration(**fields).validate()

    def test_unknown_cost_profile(self):
        with pytest.raises(ConfigurationError, match="cost_profile"):
            Configuration(cost_profile="turbo").validate()

    def test_negative_rates_and_sizes(self):
        with pytest.raises(ConfigurationError, match="arrival_rate"):
            Configuration(arrival_rate=-1.0).validate()
        with pytest.raises(ConfigurationError, match="payload_size"):
            Configuration(payload_size=-8).validate()
        with pytest.raises(ConfigurationError, match="view_timeout"):
            Configuration(view_timeout=0).validate()

    def test_mempool_smaller_than_block(self):
        with pytest.raises(ConfigurationError, match="mempool_capacity"):
            Configuration(block_size=400, mempool_capacity=100).validate()

    def test_problems_are_aggregated(self):
        with pytest.raises(ConfigurationError) as excinfo:
            Configuration(protocol="pbft", election="lottery", arrival_rate=-1).validate()
        message = str(excinfo.value)
        assert "protocol:" in message
        assert "election:" in message
        assert "arrival_rate:" in message

    def test_build_cluster_validates(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            api.build({"protocol": "pbft"})


class TestDeterminism:
    """The same configuration and seed reproduce a run exactly."""

    @pytest.mark.parametrize(
        "protocol", ["hotstuff", "2chainhs", "streamlet", "fasthotstuff", "lbft"]
    )
    def test_same_seed_twice_is_identical(self, protocol):
        # fasthotstuff and lbft have no pinned quick record: this is where a
        # nondeterminism in them would show.
        config = Configuration(protocol=protocol, seed=23, **FAST)
        first, second = api.run(config), api.run(config.to_dict())
        assert first.metrics.committed_blocks > 0
        assert first.metrics == second.metrics
        assert first.highest_view == second.highest_view
        assert first.timeline == second.timeline

    def test_arrival_rate_selects_poisson_or_closed_loop_clients(self):
        closed = api.build(dict(FAST, num_clients=2)).clients
        assert [type(c) for c in closed] == [ClosedLoopClient, ClosedLoopClient]
        assert [c.concurrency for c in closed] == [8, 8]
        # The configured rate is the total across all clients.
        open_loop = api.build(dict(FAST, num_clients=2, arrival_rate=300.0)).clients
        assert [type(c) for c in open_loop] == [PoissonClient, PoissonClient]
        assert [c.rate for c in open_loop] == [150.0, 150.0]
        assert {c.request_timeout for c in closed + open_loop} == {0.2}
