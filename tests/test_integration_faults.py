"""Integration tests for fault injection: crashes, partitions, fluctuation, responsiveness."""

import pytest

from repro import api
from repro.bench.config import Configuration
from repro.bench.metrics import timeline_mean
from repro.bench.runner import build_cluster, run_cluster
from repro.network.fluctuation import FluctuationWindow
from repro.network.partition import Partition
from repro.scenario import Scenario

FAST = dict(
    num_nodes=4,
    block_size=20,
    concurrency=10,
    num_clients=1,
    cost_profile="fast",
    view_timeout=0.03,
    election="hash",
    request_timeout=0.3,
    seed=9,
)


def make_cluster(runtime=2.0, **overrides):
    params = dict(FAST)
    params.update(overrides)
    config = Configuration(warmup=0.0, runtime=runtime, cooldown=0.0, **params)
    return build_cluster(config)


class TestCrashRecovery:
    def test_progress_continues_after_single_crash(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run(until=0.5)
        height_before = cluster.replicas["r0"].forest.committed_height
        cluster.replicas["r3"].crash()
        cluster.run(until=2.0)
        assert cluster.replicas["r0"].forest.committed_height > height_before
        assert cluster.consistency_check()

    def test_no_progress_beyond_quorum_loss(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run(until=0.5)
        cluster.replicas["r2"].crash()
        cluster.replicas["r3"].crash()
        height_after_crash = cluster.replicas["r0"].forest.committed_height
        cluster.run(until=1.5)
        assert cluster.replicas["r0"].forest.committed_height <= height_after_crash + 1


class TestPartition:
    def test_minority_partition_blocks_then_recovers(self):
        cluster = make_cluster()
        node_ids = set(cluster.config.node_ids())
        cluster.network.add_partition(
            Partition.isolate(node_ids, {"r3"}, start=0.5, end=1.2)
        )
        cluster.start()
        cluster.run(until=2.0)
        # The majority keeps committing and the isolated node catches up after
        # the partition heals (it at least stays consistent).
        assert cluster.replicas["r0"].forest.committed_height > 10
        assert cluster.consistency_check()

    @pytest.mark.parametrize("seed", range(1, 10))
    def test_majority_loss_stalls_commits_until_heal(self, seed):
        # Every seed must recover: the halves come out of the partition one
        # view apart on most of them, which only the pacemaker's join rule
        # (f+1 timeouts for a view ahead) resolves.
        cluster = make_cluster(seed=seed)
        cluster.network.add_partition(
            Partition(
                groups=(frozenset({"r0", "r1"}), frozenset({"r2", "r3"})),
                start=0.5,
                end=1.0,
            )
        )
        cluster.start()
        cluster.run(until=0.5)
        height_before = cluster.replicas["r0"].forest.committed_height
        cluster.run(until=1.0)
        height_during = cluster.replicas["r0"].forest.committed_height
        cluster.run(until=2.0)
        height_after = cluster.replicas["r0"].forest.committed_height
        assert height_during <= height_before + 2
        assert height_after > height_during
        assert cluster.consistency_check()


class TestFluctuationAndResponsiveness:
    def test_fluctuation_stalls_small_timeout_cluster(self):
        cluster = make_cluster(view_timeout=0.01)
        cluster.network.add_fluctuation(
            FluctuationWindow(start=0.5, end=1.0, min_delay=0.02, max_delay=0.06)
        )
        cluster.start()
        cluster.run(until=0.5)
        before = cluster.replicas["r0"].forest.committed_height
        cluster.run(until=1.0)
        during = cluster.replicas["r0"].forest.committed_height
        cluster.run(until=1.6)
        after = cluster.replicas["r0"].forest.committed_height
        # Commits nearly stop while every message outlives the 10 ms timeout,
        # and resume once the fluctuation ends.
        assert during - before < (after - during)

    @staticmethod
    def responsiveness(total_duration):
        """Fig. 15's two-event schedule at test size: fluctuation 0.4-0.9 s,
        then the last replica crashes at 1.0 s."""
        return {
            "name": "responsiveness",
            "duration": total_duration,
            "events": [
                {"kind": "network-fluctuation", "at": 0.4, "duration": 0.5,
                 "min_delay": 0.02, "max_delay": 0.05},
                {"kind": "crash-replica", "at": 1.0, "replica": "last"},
            ],
        }

    def test_responsiveness_scenario_produces_timeline(self):
        config = Configuration(protocol="hotstuff", warmup=0.0, runtime=1.8, cooldown=0.0, **FAST)
        cluster = build_cluster(config, Scenario.from_dict(self.responsiveness(1.8)))
        result = run_cluster(cluster, bucket=0.2)
        assert cluster.network.is_crashed("r3")
        assert result.timeline
        assert timeline_mean(result.timeline, 0.0, 0.4) > 0
        assert result.consistent

    def test_hotstuff_recovers_after_fluctuation_and_crash(self):
        config = Configuration(protocol="hotstuff", warmup=0.0, runtime=2.0, cooldown=0.0, **FAST).replace(
            view_timeout=0.01
        )
        timeline = api.run(config, scenario=self.responsiveness(2.0), bucket=0.2).timeline
        before = timeline_mean(timeline, 0.0, 0.4)
        during = timeline_mean(timeline, 0.4, 0.9)
        after = timeline_mean(timeline, 1.0, 2.0)
        assert during < before * 0.5
        assert after > 0

    def test_scenario_validation_helpers(self):
        """The fluctuation window closes at start + duration: that is the
        edge of the "during" column of the full-scale fig. 15 table."""
        from repro.experiments import paper

        fluctuation = paper.FIG15.spec("full").scenario.events[0]
        assert (fluctuation.at, fluctuation.duration) == (5.0, 10.0)
        record = {"scenario": paper.FIG15.spec("full").scenario.to_dict(),
                  "timeline": [[14.5, 7.0], [15.0, 1000.0]]}
        during = next(c for c in paper.FIG15.columns if c.header == "during_tps")
        assert during.value(record) == pytest.approx(7.0)
