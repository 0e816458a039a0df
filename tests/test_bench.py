"""Unit tests for the benchmark facilities: config, profiles, metrics, runner, load sweeps."""

import tracemalloc
from collections import Counter

import pytest

from repro import api
from repro.bench.config import Configuration, ConfigurationError
from repro.bench.metrics import MetricsCollector
from repro.bench.profiles import available_profiles, cost_profile
from repro.bench.runner import build_cluster, collector_for, run_cluster, run_experiment
from repro.core.byzantine import ForkingReplica, SilentReplica
from repro.executor.kvstore import KeyValueStore
from repro.mempool.mempool import Mempool
from repro.experiments.paper import Rows
from repro.obs.trace import CHECKPOINT, CLIENT, COMMIT, FAULT, SYNC


FAST = dict(
    block_size=20,
    runtime=0.6,
    warmup=0.1,
    cooldown=0.1,
    concurrency=10,
    num_clients=1,
    cost_profile="fast",
    view_timeout=0.05,
)


class TestConfiguration:
    def test_defaults_match_table1(self):
        config = Configuration()
        assert config.block_size == 400
        assert config.mempool_capacity == 1000
        assert config.payload_size == 0
        assert config.view_timeout == pytest.approx(0.1)
        assert config.concurrency == 10
        assert config.master == ""
        assert config.strategy == "silence"
        assert config.byzantine_nodes == 0

    def test_validation(self):
        # Refused at construction, as a ConfigurationError naming the field.
        with pytest.raises(ConfigurationError, match="num_nodes: must be at least 1, got 0$"):
            Configuration(num_nodes=0)
        with pytest.raises(ConfigurationError, match="byzantine_nodes: must be in"):
            Configuration(byzantine_nodes=4, num_nodes=4)
        with pytest.raises(ConfigurationError, match="block_size: must be positive, got 0$"):
            Configuration(block_size=0)
        # An int given for a float field is checked as the float it is stored as.
        with pytest.raises(ConfigurationError, match="runtime: must be positive, got 0.0$"):
            Configuration(runtime=0)
        with pytest.raises(ConfigurationError, match="cooldown: must be non-negative, got -1.0$"):
            Configuration(cooldown=-1)

    def test_node_and_client_ids(self):
        config = Configuration(num_nodes=3, num_clients=2)
        assert config.node_ids() == ["r0", "r1", "r2"]
        assert config.client_ids() == ["c0", "c1"]

    def test_byzantine_ids_keep_observer_honest(self):
        config = Configuration(num_nodes=4, byzantine_nodes=2)
        assert config.byzantine_ids() == ["r2", "r3"]
        assert "r0" not in config.byzantine_ids()

    def test_replace_creates_modified_copy(self):
        config = Configuration()
        other = config.replace(block_size=100)
        assert other.block_size == 100
        assert config.block_size == 400

    def test_round_trip_through_dict(self):
        config = Configuration(protocol="streamlet", num_nodes=8, payload_size=128)
        clone = Configuration.from_dict(config.to_dict())
        assert clone == config

    @pytest.mark.parametrize("unknown", [
        {"zz": 2, "bogus": 1},
        # Switches that left Configuration: block fetching and snapshot
        # answers are unconditional, so a document setting one must fail.
        {"sync_enabled": False},
        {"sync_max_batch": 32},
        {"sync_fanout": 2},
        {"snapshot_sync_enabled": True},
    ], ids=lambda unknown: ",".join(unknown))
    def test_from_dict_rejects_unknown_keys(self, unknown):
        names = ", ".join(sorted(unknown))
        with pytest.raises(ConfigurationError, match=f"not Configuration fields: {names}$"):
            Configuration.from_dict({"protocol": "hotstuff", **unknown})
        assert Configuration.from_dict({"protocol": "lbft"}).protocol == "lbft"

    def test_from_dict_checks_each_value_against_its_field_type(self):
        # An int is a float; a bool is not an int, and nothing else converts.
        assert Configuration.from_dict({"runtime": 2, "arrival_rate": 100}).runtime == 2
        for data, problem in (
            ({"num_nodes": True}, "num_nodes: expected int, got bool True"),
            ({"block_size": 20.0}, "block_size: expected int, got float 20.0"),
            ({"protocol": 3}, "protocol: expected str, got int 3"),
            ({"runtime": None}, "runtime: expected float, got NoneType None"),
        ):
            with pytest.raises(ConfigurationError, match=f"^invalid configuration: {problem}$"):
                Configuration.from_dict(data)
        with pytest.raises(ConfigurationError) as both:
            Configuration.from_dict({"seed": "1", "mode": 0})
        assert str(both.value).splitlines()[1:] == [
            "  - seed: expected int, got str '1'", "  - mode: expected str, got int 0"]

    def test_measurement_window(self):
        config = Configuration(warmup=1.0, runtime=5.0, cooldown=0.5)
        collector = collector_for(config)
        assert (collector.window_start, collector.window_end) == (1.0, 6.0)
        assert config.total_duration == pytest.approx(6.5)


class TestProfiles:
    def test_available_profiles(self):
        assert {"fast", "standard", "ohs"} <= set(available_profiles())

    def test_standard_is_slower_than_fast(self):
        assert cost_profile("standard").sign_time > cost_profile("fast").sign_time

    def test_ohs_is_cheaper_than_standard(self):
        assert cost_profile("ohs").verify_time < cost_profile("standard").verify_time

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            cost_profile("turbo")

    def test_name_is_exact(self):
        # Configuration.validate compares cost_profile exactly; the lookup
        # must refuse what validation refuses.
        with pytest.raises(ValueError, match="'Standard'"):
            cost_profile("Standard")
        with pytest.raises(ConfigurationError, match="cost_profile"):
            Configuration(cost_profile="Standard").validate()

    def test_profiles_are_copies(self):
        a = cost_profile("standard")
        a.sign_time = 123.0
        assert cost_profile("standard").sign_time != 123.0


class TestMetricsCollector:
    """The collector as a stream consumer: each behaviour driven by events."""

    @staticmethod
    def _commit(collector, view, txs, now, commit_view, who="r0"):
        collector.on_event(
            now, who, COMMIT, "commit", view,
            {"block": f"b{view}", "txs": txs, "height": view, "commit_view": commit_view},
        )

    def test_throughput_counts_window_only(self):
        collector = MetricsCollector(window_start=1.0, window_end=2.0)
        self._commit(collector, 1, 5, now=0.5, commit_view=2)
        self._commit(collector, 2, 5, now=1.5, commit_view=3)
        assert collector.throughput() == pytest.approx(5.0)

    def test_latency_stats(self):
        collector = MetricsCollector(window_start=0.0, window_end=10.0)
        for latency in [0.01, 0.02, 0.03, 0.04]:
            collector.on_event(1.0, "c0", CLIENT, "commit-reply", 0,
                               {"replica": "r0", "latency": latency})
        mean, median, p99 = collector.latency_stats()
        assert mean == pytest.approx(0.025)
        assert median == pytest.approx(0.03)
        assert p99 == pytest.approx(0.04)

    def test_latency_stats_empty(self):
        assert MetricsCollector().latency_stats() == (0.0, 0.0, 0.0)

    def test_p99_index_and_latency_window(self):
        collector = MetricsCollector(window_start=1.0, window_end=2.0)
        for i in range(200):
            collector.on_event(1.5, "c0", CLIENT, "commit-reply", 0,
                               {"replica": "r0", "latency": float(i)})
        collector.on_event(0.5, "c0", CLIENT, "commit-reply", 0,
                           {"replica": "r0", "latency": 1e6})  # before the window
        assert collector.latency_stats()[2] == 198.0  # samples[int(0.99 * 200)]
        assert collector.summarize().latency_samples == 200

    def test_latency_samples_are_pairs_in_arrival_order(self):
        collector = MetricsCollector()
        assert not collector.latencies and len(collector.latencies) == 0
        for t, latency in [(0.5, 0.02), (0.25, 0.01)]:
            collector.on_event(t, "c0", CLIENT, "commit-reply", 0,
                               {"replica": "r0", "latency": latency})
        assert collector.latencies and len(collector.latencies) == 2
        assert list(collector.latencies) == [(0.5, 0.02), (0.25, 0.01)]

    def test_a_latency_sample_costs_sixteen_bytes(self):
        """One sample per committed reply: two packed doubles, not a tuple
        of two floats in a list (~112 bytes)."""
        collector = MetricsCollector()
        payloads = [{"replica": "r0", "latency": i * 1e-6} for i in range(100_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, payload in enumerate(payloads):
                collector.on_event(i * 1e-5, "c0", CLIENT, "commit-reply", 0, payload)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(collector.latencies) == 100_000
        assert held < 2_000_000

    def test_timeouts_and_rejections_are_counted_at_their_time(self):
        collector = MetricsCollector()
        collector.on_event(0.4, "c0", CLIENT, "request-timeout", 0, {"txid": "t1"})
        collector.on_event(0.6, "c1", CLIENT, "request-timeout", 0, {"txid": "t2"})
        collector.on_event(0.7, "c0", CLIENT, "rejected", 0, {"txid": "t3", "replica": "r1"})
        assert collector.timeouts == [0.4, 0.6]
        assert collector.rejections == [0.7]

    def test_chain_growth_rate(self):
        collector = MetricsCollector(window_start=0.0, window_end=10.0)
        for view in range(1, 5):
            collector.on_event(1.0, "r0", COMMIT, "block-added", view, {"block": f"b{view}"})
            if view <= 2:
                self._commit(collector, view, 0, now=1.5, commit_view=view + 2)
        assert collector.chain_growth_rate() == pytest.approx(0.5)

    def test_chain_growth_rate_is_clamped(self):
        # Blocks added before the window can commit inside it.
        collector = MetricsCollector(window_start=1.0, window_end=2.0)
        collector.on_event(0.5, "r0", COMMIT, "block-added", 1, {"block": "b1"})
        collector.on_event(1.2, "r0", COMMIT, "block-added", 2, {"block": "b2"})
        self._commit(collector, 1, 0, now=1.3, commit_view=3)
        self._commit(collector, 2, 0, now=1.4, commit_view=4)
        assert collector.chain_growth_rate() == 1.0

    def test_block_interval(self):
        collector = MetricsCollector(window_start=0.0, window_end=10.0)
        self._commit(collector, 5, 0, now=1.0, commit_view=8)
        self._commit(collector, 6, 0, now=1.0, commit_view=8)
        assert collector.block_interval() == pytest.approx(2.5)

    def test_chain_events_are_scoped_to_the_observer(self):
        collector = MetricsCollector(observer="r0")
        for who in ("r0", "r1"):
            collector.on_event(1.0, who, COMMIT, "block-added", 1, {"block": "b1"})
            collector.on_event(1.1, who, COMMIT, "block-forked", 1, {"block": "b1"})
            self._commit(collector, 2, 7, now=1.2, commit_view=4, who=who)
            collector.on_event(1.3, who, FAULT, "safety-violation", 4, {"block": "b9"})
            # Cluster-wide kinds count whoever announces them.
            collector.on_event(1.4, who, SYNC, "fetch-round", 4, {"target": None, "peers": 2})
            collector.on_event(1.5, who, SYNC, "fetched", 4, {"blocks": 3, "bytes": 100})
            collector.on_event(1.6, who, CHECKPOINT, "checkpoint", 4, {"height": 50, "truncated": 49})
            collector.on_event(1.6, who, CHECKPOINT, "forest-peak", 4, {"blocks": 50 + (who == "r1")})
            collector.on_event(1.7, who, CHECKPOINT, "snapshot-response", 4, {"bytes": 64, "from": "r2"})
            collector.on_event(1.8, who, CHECKPOINT, "snapshot-install", 4, {"height": 50})
        # A scenario event shares the fault category and is not a violation.
        collector.on_event(2.0, "r0", FAULT, "crash-replica", 0, {"replica": "r0"})
        summary = collector.summarize()
        assert (summary.blocks_added, summary.blocks_forked, summary.committed_blocks) == (1, 1, 1)
        assert summary.committed_transactions == 7 and summary.safety_violations == 1
        assert (summary.sync_rounds, summary.sync_blocks_fetched, summary.sync_bytes_fetched) == (2, 6, 200)
        assert (summary.checkpoints_taken, summary.blocks_truncated) == (2, 98)
        assert (summary.snapshots_installed, summary.snapshot_bytes_fetched) == (2, 128)
        assert summary.peak_forest_blocks == 51

    def test_throughput_timeline_buckets(self):
        collector = MetricsCollector()
        self._commit(collector, 1, 10, now=0.2, commit_view=2)
        self._commit(collector, 2, 20, now=1.2, commit_view=3)
        timeline = collector.throughput_timeline(bucket=1.0, end=2.0)
        assert timeline[0] == (0.0, 10.0)
        assert timeline[1] == (1.0, 20.0)

    def test_timeline_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            MetricsCollector().throughput_timeline(bucket=0.0)

    def test_summarize_shape(self):
        collector = MetricsCollector(window_start=0.0, window_end=10.0)
        summary = collector.summarize().to_dict()
        assert set(summary) >= {
            "throughput_tps",
            "mean_latency",
            "chain_growth_rate",
            "block_interval",
            "safety_violations",
        }


class TestRunnerAndSweeps:
    def test_build_cluster_wires_byzantine_replicas(self):
        config = Configuration(num_nodes=4, byzantine_nodes=1, strategy="forking", **FAST)
        cluster = build_cluster(config)
        assert isinstance(cluster.replicas["r3"], ForkingReplica)
        assert not isinstance(cluster.replicas["r0"], ForkingReplica)
        assert cluster.observer_id == "r0"

    def test_build_cluster_silence_strategy(self):
        config = Configuration(num_nodes=4, byzantine_nodes=1, strategy="silence", **FAST)
        cluster = build_cluster(config)
        assert isinstance(cluster.replicas["r3"], SilentReplica)

    def test_run_experiment_produces_metrics(self):
        config = Configuration(protocol="hotstuff", num_nodes=4, **FAST)
        result = run_experiment(config)
        assert result.metrics.throughput_tps > 0
        assert result.metrics.mean_latency > 0
        assert result.consistent
        assert result.metrics.safety_violations == 0

    def test_run_experiment_with_poisson_arrivals(self):
        config = Configuration(protocol="hotstuff", num_nodes=4, **FAST).replace(
            arrival_rate=2000.0
        )
        result = run_experiment(config)
        assert result.metrics.committed_transactions > 0

    def test_static_leader_configuration(self):
        config = Configuration(num_nodes=4, master="r1", **FAST)
        result = run_experiment(config)
        assert result.metrics.committed_blocks > 0

    def test_load_sweep_produces_monotone_load_points(self):
        config = Configuration(protocol="hotstuff", num_nodes=4, **FAST)
        records = api.campaign(api.grid(config, concurrency=[2, 8])).records
        assert len(records) == 2
        assert records[0]["config"]["concurrency"] == 2
        throughput = [r["metrics"]["throughput_tps"] for r in records]
        assert throughput[1] >= throughput[0] * 0.5

    def test_load_sweep_with_arrival_rates(self):
        config = Configuration(protocol="hotstuff", num_nodes=4, **FAST)
        records = api.campaign(api.grid(config, arrival_rate=[500.0, 1500.0])).records
        assert len(records) == 2
        assert records[1]["metrics"]["throughput_tps"] > records[0]["metrics"]["throughput_tps"]

    def test_saturation_throughput_helper(self):
        """A load curve's saturation is the highest throughput along it."""
        rows = Rows([
            {"series": "HS", "throughput_tps": 100.0},
            {"series": "HS", "throughput_tps": 300.0},
            {"series": "SL", "throughput_tps": 50.0},
        ])
        assert rows.max("throughput_tps", series="HS") == 300.0
        with pytest.raises(ValueError):
            rows.max("throughput_tps", series="OHS")


class TestWorkPerTransaction:
    """Scheduler events and wire messages per committed transaction.

    Both are exact per seed, so the gate cannot flake, and one extra event per
    message — a regression an events/s threshold sized for CI hosts cannot
    see — moves them by 10 % or more, and so does one no-op timeout event per
    request (0.6-0.8 per transaction here).  Bounds are the measured values + 2 %.
    A commit answers each client once per block, not once per transaction:
    the reply per transaction it used to send (about one message and two
    events each) breaks every bound here.
    """

    SHARED = dict(block_size=400, num_clients=2, concurrency=200, warmup=0.2, cooldown=0.2,
                  cost_profile="standard", mempool_capacity=4000, seed=101)

    @pytest.mark.parametrize("config, events_per_tx, messages_per_tx", [
        (Configuration(protocol="hotstuff", num_nodes=4, payload_size=0, runtime=2.0,
                       view_timeout=0.5, **SHARED), 3.960, 1.313),
        (Configuration(protocol="streamlet", num_nodes=4, payload_size=0, runtime=2.0,
                       view_timeout=0.5, **SHARED), 6.297, 2.110),
        (Configuration(protocol="hotstuff", num_nodes=16, payload_size=128, runtime=1.0,
                       view_timeout=1.0, checkpoint_interval=50, **SHARED), 9.019, 2.827),
    ], ids=["hotstuff_n4_b400", "streamlet_n4_b400", "hotstuff_n16_checkpointed"])
    def test_events_and_messages_per_committed_transaction(
            self, config, events_per_tx, messages_per_tx):
        cluster = build_cluster(config)
        result = run_cluster(cluster)
        committed = result.metrics.committed_transactions
        assert committed > 0
        assert cluster.scheduler.processed_events / committed <= events_per_tx * 1.02
        assert cluster.network.stats.messages_sent / committed <= messages_per_tx * 1.02

    @pytest.mark.parametrize(
        "config",
        [case[0] for case in
         test_events_and_messages_per_committed_transaction.pytestmark[0].args[1]],
        ids=test_events_and_messages_per_committed_transaction.pytestmark[0].kwargs["ids"])
    def test_one_executor_call_per_committed_block_per_replica(self, config, monkeypatch):
        """Exactly one executor call and one mempool call, on every replica:
        the commit path hands over a block, so a per-transaction loop of calls
        cannot come back unnoticed (it was ~400 ``apply`` calls a block here)."""
        calls = Counter()

        def count(cls, name):
            original = getattr(cls, name)

            def counted(instance, *args):
                calls[id(instance), name] += 1
                return original(instance, *args)

            monkeypatch.setattr(cls, name, counted)

        count(KeyValueStore, "apply_batch")
        count(KeyValueStore, "apply")
        count(Mempool, "mark_committed")
        cluster = build_cluster(config)
        result = run_cluster(cluster)
        assert result.metrics.committed_transactions > 0
        for replica in cluster.replicas.values():
            blocks = replica.stats.blocks_committed
            assert blocks > 30
            assert calls[id(replica.kvstore), "apply_batch"] == blocks
            assert calls[id(replica.kvstore), "apply"] == 0
            assert calls[id(replica.mempool), "mark_committed"] == blocks
