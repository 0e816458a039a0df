"""Tests for the repro.api facade and Configuration.validate()."""

import json

import pytest

from repro import api
from repro.bench.config import Configuration, ConfigurationError
from repro.bench.runner import Cluster, ExperimentResult, run_experiment

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
            "clients", "scenario_events", "message_handlers", "oracles",
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

    def test_unknown_client(self):
        with pytest.raises(ConfigurationError, match="client: unknown client type"):
            Configuration(client="grpc").validate()

    def test_poisson_client_needs_positive_rate(self):
        Configuration(client="poisson", arrival_rate=100.0).validate()
        with pytest.raises(ConfigurationError, match="needs arrival_rate > 0"):
            Configuration(client="poisson").validate()

    def test_static_election_needs_master(self):
        with pytest.raises(ConfigurationError, match="election: 'static' needs"):
            Configuration(election="static").validate()

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
    """api.run must reproduce the legacy runner exactly, seed for seed."""

    @pytest.mark.parametrize(
        "protocol", ["hotstuff", "2chainhs", "streamlet", "fasthotstuff", "lbft"]
    )
    def test_api_run_matches_legacy_runner(self, protocol):
        config = Configuration(protocol=protocol, seed=23, **FAST)
        via_api = api.run(config)
        via_runner = run_experiment(config)
        assert via_api.metrics == via_runner.metrics
        assert via_api.highest_view == via_runner.highest_view
        assert via_api.timeline == via_runner.timeline

    def test_resolved_client_keeps_auto_semantics(self):
        assert Configuration(arrival_rate=0.0).resolved_client() == "closed-loop"
        assert Configuration(arrival_rate=100.0).resolved_client() == "poisson"
        assert Configuration(client="poisson").resolved_client() == "poisson"

    def test_config_round_trip_preserves_client_field(self):
        config = Configuration(client="closed-loop", **FAST)
        assert Configuration.from_dict(config.to_dict()) == config
