"""Integration tests: full clusters running each protocol end to end.

These tests run the whole stack (clients, network, replicas, metrics) for a
short simulated interval and assert the qualitative properties the paper's
evaluation relies on: liveness, cross-replica consistency, the expected
block-interval baselines, and the latency ordering between protocols.
"""

import pytest

from repro.bench.config import Configuration
from repro.bench.runner import build_cluster, run_experiment

FAST = dict(
    num_nodes=4,
    block_size=30,
    runtime=0.8,
    warmup=0.2,
    cooldown=0.2,
    concurrency=15,
    num_clients=2,
    cost_profile="fast",
    view_timeout=0.05,
    seed=3,
)


def run(protocol, **overrides):
    params = dict(FAST)
    params.update(overrides)
    return run_experiment(Configuration(protocol=protocol, **params))


class TestHappyPathAllProtocols:
    @pytest.mark.parametrize("protocol", ["hotstuff", "2chainhs", "streamlet", "fasthotstuff", "lbft"])
    def test_commits_and_stays_consistent(self, protocol):
        result = run(protocol)
        assert result.metrics.committed_transactions > 0
        assert result.metrics.throughput_tps > 0
        assert result.consistent
        assert result.metrics.safety_violations == 0

    @pytest.mark.parametrize("protocol", ["hotstuff", "2chainhs", "streamlet"])
    def test_no_forks_in_fault_free_runs(self, protocol):
        result = run(protocol)
        assert result.metrics.blocks_forked == 0
        # Blocks added right at the window edge may commit just after it, so
        # allow a small boundary effect on the ratio.
        assert result.metrics.chain_growth_rate == pytest.approx(1.0, abs=0.02)

    def test_block_interval_baselines(self):
        # Paper §VI-C: BI starts at 3 for HotStuff and 2 for 2CHS; Streamlet
        # commits a block one view after the next block is certified.
        assert run("hotstuff").metrics.block_interval == pytest.approx(3.0, abs=0.15)
        assert run("2chainhs").metrics.block_interval == pytest.approx(2.0, abs=0.15)
        assert run("streamlet").metrics.block_interval == pytest.approx(2.0, abs=0.3)

    def test_hotstuff_latency_exceeds_two_chain(self):
        # One extra round of voting before commit (paper §II-C).
        hs = run("hotstuff")
        two_chain = run("2chainhs")
        assert hs.metrics.mean_latency > two_chain.metrics.mean_latency

    def test_streamlet_throughput_is_lowest(self):
        # Vote broadcasting and message echoing cost Streamlet throughput
        # even in a 4-node cluster (paper §VI-B).
        streamlet = run("streamlet")
        hotstuff = run("hotstuff")
        assert streamlet.metrics.throughput_tps < hotstuff.metrics.throughput_tps

    def test_latency_samples_are_collected(self):
        result = run("hotstuff")
        assert result.metrics.latency_samples > 50


class TestWorkloadKnobs:
    def test_larger_blocks_do_not_reduce_throughput(self):
        small = run("hotstuff", block_size=5, concurrency=30)
        large = run("hotstuff", block_size=60, concurrency=30)
        assert large.metrics.throughput_tps >= small.metrics.throughput_tps * 0.9

    def test_payload_size_increases_latency(self):
        light = run("hotstuff", payload_size=0)
        heavy = run("hotstuff", payload_size=4096)
        assert heavy.metrics.mean_latency > light.metrics.mean_latency

    def test_added_network_delay_increases_latency(self):
        near = run("hotstuff")
        far = run("hotstuff", extra_delay_mean=0.005, extra_delay_stddev=0.001)
        assert far.metrics.mean_latency > near.metrics.mean_latency + 0.004

    def test_more_nodes_increase_latency(self):
        small = run("hotstuff", num_nodes=4)
        large = run("hotstuff", num_nodes=8)
        assert large.metrics.mean_latency > small.metrics.mean_latency

    def test_throughput_scales_with_offered_load_until_saturation(self):
        light = run("hotstuff", concurrency=2)
        heavy = run("hotstuff", concurrency=40)
        assert heavy.metrics.throughput_tps > light.metrics.throughput_tps


class TestClusterInternals:
    def test_happy_path_has_no_pacemaker_timeouts(self):
        config = Configuration(protocol="hotstuff", **FAST)
        cluster = build_cluster(config)
        cluster.start()
        cluster.run()
        for replica in cluster.replicas.values():
            assert replica.pacemaker.stats.local_timeouts == 0

    def test_observer_is_honest_and_collects_metrics(self):
        config = Configuration(protocol="hotstuff", **FAST)
        cluster = build_cluster(config)
        cluster.start()
        cluster.run()
        assert cluster.observer_id == "r0"
        assert cluster.metrics.committed_blocks
        # Every replica announces its commits; only the observer's are kept.
        assert cluster.metrics.observer == "r0"
        assert cluster.replicas["r1"].stats.blocks_committed > 0
        assert len(cluster.metrics.committed_blocks) == cluster.replicas["r0"].stats.blocks_committed

    def test_executor_state_matches_across_replicas(self):
        config = Configuration(protocol="hotstuff", **FAST)
        cluster = build_cluster(config)
        cluster.start()
        cluster.run()
        # Compare kv state over the common committed prefix by re-checking
        # the chain consistency hash (state is derived from the chain).
        assert cluster.consistency_check()

    def test_streamlet_sends_more_messages_than_hotstuff(self):
        hs_cluster = build_cluster(Configuration(protocol="hotstuff", **FAST))
        hs_cluster.start()
        hs_cluster.run()
        sl_cluster = build_cluster(Configuration(protocol="streamlet", **FAST))
        sl_cluster.start()
        sl_cluster.run()
        hs_msgs = hs_cluster.network.stats.messages_sent / max(1, hs_cluster.metrics.summarize().committed_blocks)
        sl_msgs = sl_cluster.network.stats.messages_sent / max(1, sl_cluster.metrics.summarize().committed_blocks)
        assert sl_msgs > 2 * hs_msgs
