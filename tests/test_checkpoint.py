"""Tests for the checkpoint / log-truncation subsystem (repro.checkpoint).

Covers the two acceptance scenarios of the checkpoint work:

* a long run with checkpointing on holds the forest block count bounded by
  O(checkpoint interval) while every committed-throughput/latency metric is
  bit-identical to a checkpointing-off run of the same seed;
* a recovered replica far behind the head catches up via a snapshot install
  with strictly fewer fetched blocks than a full chain walk;

plus unit coverage of forest truncation, checkpoint install, KV snapshots,
snapshot validation, and the configuration knobs.
"""

import dataclasses
import json

import pytest

from repro import api
from repro.bench.config import Configuration, ConfigurationError
from repro.bench.runner import build_cluster
from repro.checkpoint.messages import SnapshotResponse
from repro.checkpoint.snapshot import Checkpoint
from repro.executor.kvstore import KeyValueStore, KVSnapshot
from repro.forest.forest import BlockForest, ForestError
from repro.types.certificates import QuorumCertificate
from repro.types.transaction import Transaction
from helpers import build_certified_chain, certify, extend_chain, make_transactions

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

#: RunMetrics fields describing committed work — the ones that must be
#: bit-identical between checkpointing-on and checkpointing-off runs.
COMMITTED_METRIC_FIELDS = [
    "throughput_tps",
    "mean_latency",
    "median_latency",
    "p99_latency",
    "chain_growth_rate",
    "block_interval",
    "committed_transactions",
    "committed_blocks",
    "blocks_added",
    "blocks_forked",
    "safety_violations",
    "latency_samples",
]


def make_cluster(runtime=4.0, **overrides):
    params = dict(FAST)
    params.update(overrides)
    config = Configuration(warmup=0.0, runtime=runtime, cooldown=0.0, **params)
    return build_cluster(config)


def run_cluster(runtime=3.0, **overrides):
    cluster = make_cluster(runtime=runtime, **overrides)
    cluster.start()
    cluster.run()
    return cluster


class TestBoundedMemory:
    """Acceptance: bounded forest, bit-identical committed metrics."""

    def test_forest_bounded_and_committed_metrics_bit_identical(self):
        interval = 10
        baseline = run_cluster(runtime=3.0)
        checkpointed = run_cluster(runtime=3.0, checkpoint_interval=interval)

        base_metrics = baseline.metrics.summarize()
        ck_metrics = checkpointed.metrics.summarize()
        for field in COMMITTED_METRIC_FIELDS:
            assert getattr(ck_metrics, field) == getattr(base_metrics, field), field
        # The throughput timelines match bucket for bucket too.
        horizon = baseline.config.total_duration
        assert checkpointed.metrics.throughput_timeline(
            end=horizon
        ) == baseline.metrics.throughput_timeline(end=horizon)

        # Plenty of commits happened; the baseline keeps them all in memory,
        # the checkpointed run holds O(interval) blocks per forest.
        committed = baseline.replicas["r0"].forest.committed_height
        assert committed > 10 * interval
        assert ck_metrics.checkpoints_taken >= committed // interval - 1
        assert ck_metrics.blocks_truncated > 0
        bound = 2 * interval + 16  # interval + commit depth + in-flight slack
        assert ck_metrics.peak_forest_blocks <= bound
        for replica in checkpointed.replicas.values():
            assert len(replica.forest) <= bound
            assert replica.forest.base_height > 0
        assert len(baseline.replicas["r0"].forest) > committed
        # Consistency hashes stay comparable across truncation points (r0
        # and r3 generally truncate at different heights), and the committed
        # chain is exactly as long as the baseline's.
        assert checkpointed.consistency_check()
        assert checkpointed.replicas["r0"].forest.committed_height == committed

    def test_checkpoint_metrics_reported(self):
        cluster = run_cluster(runtime=2.0, checkpoint_interval=10)
        summary = cluster.metrics.summarize()
        assert summary.checkpoints_taken > 0
        assert summary.blocks_truncated > 0
        assert summary.peak_forest_blocks > 0
        data = summary.to_dict()
        assert json.loads(json.dumps(data)) == data


class TestSnapshotCatchUp:
    """Acceptance: a far-behind recovery installs a snapshot, fetches less."""

    def _crash_recover(self, **overrides):
        cluster = make_cluster(**overrides)
        cluster.start()
        cluster.run(until=0.5)
        victim = cluster.replicas["r3"]
        victim.crash()
        height_at_crash = victim.forest.committed_height
        cluster.run(until=2.5)
        missed = cluster.replicas["r0"].forest.committed_height - height_at_crash
        victim.recover()
        cluster.run(until=4.0)
        return cluster, victim, missed

    @staticmethod
    def _recovery_traffic(down, **overrides):
        """The sync/snapshot messages sent cluster-wide from ``recover()`` on,
        and the victim's fetch rounds over the same span."""
        cluster = make_cluster(**overrides)
        cluster.start()
        cluster.run(until=0.5)
        victim = cluster.replicas["r3"]
        victim.crash()
        cluster.run(until=0.5 + down)
        counts = cluster.network.stats.per_type_counts
        before, rounds = dict(counts), victim.sync.stats.fetch_rounds
        victim.recover()
        cluster.run(until=4.0)
        sent = {
            kind: counts.get(kind, 0) - before.get(kind, 0)
            for kind in ("BlockRequest", "BlockResponse", "SnapshotResponse")
        }
        assert cluster.consistency_check()
        return victim, sent, victim.sync.stats.fetch_rounds - rounds

    def test_recovery_inside_the_window_is_one_block_round(self):
        """Blocks still connect the victim: no snapshot travels at all."""
        victim, sent, rounds = self._recovery_traffic(down=0.05, checkpoint_interval=50)
        assert sent == {"BlockRequest": 2, "BlockResponse": 2, "SnapshotResponse": 0}
        assert rounds == 1
        assert victim.checkpoint.stats.snapshots_installed == 0

    def test_recovery_beyond_the_watermark_installs_then_fetches_at_once(self):
        """The answer to the first round is a snapshot; the install sends the
        next round at once, so the catch-up takes two rounds, not a retry
        cadence's worth."""
        victim, sent, rounds = self._recovery_traffic(down=2.0, checkpoint_interval=5)
        assert victim.checkpoint.stats.snapshots_installed == 1
        assert rounds <= 2
        assert victim.sync.stats.targets_abandoned == 0
        assert sent == {"BlockRequest": 4, "BlockResponse": 2, "SnapshotResponse": 2}

    def test_forged_snapshot_mid_catch_up_is_rejected_and_catch_up_completes(self):
        """Both answers to the first round carry a forged certificate: neither
        installs, and the retry asks the next peers, whose snapshot does."""
        cluster = make_cluster(checkpoint_interval=5)
        cluster.start()
        cluster.run(until=0.5)
        victim = cluster.replicas["r3"]
        victim.crash()
        cluster.run(until=2.5)
        genuine = victim.checkpoint.handle_response
        forged_from = []

        def forge_first_two(message):
            if len(forged_from) < 2:
                forged_from.append(message.sender)
                checkpoint = message.checkpoint
                qc = dataclasses.replace(checkpoint.qc, signatures=())
                message = dataclasses.replace(
                    message, checkpoint=dataclasses.replace(checkpoint, qc=qc)
                )
            genuine(message)

        victim.checkpoint.handle_response = forge_first_two
        victim.recover()
        cluster.run(until=4.0)
        stats = victim.checkpoint.stats
        assert len(forged_from) == 2 and stats.invalid_snapshots == 2
        assert stats.snapshots_installed == 1
        observer = cluster.replicas["r0"]
        assert victim.forest.committed_height >= observer.forest.committed_height - 2
        assert cluster.consistency_check()

    def test_recovery_installs_snapshot_with_fewer_fetches(self):
        interval = 5
        cluster, victim, missed = self._crash_recover(checkpoint_interval=interval)
        observer = cluster.replicas["r0"]
        assert missed > 10 * interval
        # The victim crossed the gap through a snapshot, not a chain walk.
        assert victim.checkpoint.stats.snapshots_installed >= 1
        assert victim.checkpoint.stats.snapshot_bytes_fetched > 0
        assert victim.sync.stats.blocks_fetched < missed
        # ... and still reached the live head and participates.
        assert victim.forest.committed_height >= observer.forest.committed_height - 2
        assert cluster.consistency_check()

        # Strictly fewer fetched blocks than the same scenario walking the
        # full chain (checkpointing off).
        full_walk, full_victim, full_missed = self._crash_recover()
        assert full_victim.checkpoint.stats.snapshots_installed == 0
        assert full_victim.forest.committed_height > 0
        assert victim.sync.stats.blocks_fetched < full_victim.sync.stats.blocks_fetched
        assert full_walk.consistency_check()

    def test_scenario_event_recovery_uses_snapshots(self):
        result = api.run(
            dict(FAST, warmup=0.0, runtime=4.0, cooldown=0.0, checkpoint_interval=5),
            scenario={
                "events": [
                    {"kind": "crash-replica", "at": 0.5, "replica": "last"},
                    {"kind": "recover-replica", "at": 2.5, "replica": "last"},
                ]
            },
        )
        assert result.consistent
        assert result.metrics.snapshots_installed >= 1
        assert result.metrics.snapshot_bytes_fetched > 0


class TestSnapshotValidation:
    def _live_replica(self):
        cluster = make_cluster(checkpoint_interval=5)
        cluster.start()
        cluster.run(until=1.0)
        return cluster, cluster.replicas["r1"]

    def test_forged_checkpoint_rejected(self):
        # Crash r3 early so it sits genuinely behind the forged checkpoint.
        cluster = make_cluster(checkpoint_interval=5)
        cluster.start()
        cluster.run(until=0.3)
        victim = cluster.replicas["r3"]
        victim.crash()
        cluster.run(until=1.5)
        real = cluster.replicas["r0"].checkpoint.current_checkpoint()
        assert real is not None
        assert real.height > victim.forest.committed_height
        forged_qc = QuorumCertificate(
            block_id=real.block.block_id,
            view=real.block.view,
            signers=frozenset({"r0", "r1", "r2"}),
            signatures=(),  # no valid signatures at all
        )
        forged = dataclasses.replace(real, qc=forged_qc)
        before = victim.forest.committed_height
        victim.checkpoint.handle_response(
            SnapshotResponse(sender="r0", size_bytes=1000, checkpoint=forged)
        )
        assert victim.checkpoint.stats.invalid_snapshots == 1
        assert victim.checkpoint.stats.snapshots_installed == 0
        assert victim.forest.committed_height == before

    def test_stale_checkpoint_ignored(self):
        cluster, replica = self._live_replica()
        own = replica.checkpoint.current_checkpoint()
        assert own is not None  # every replica checkpoints
        replica.checkpoint.handle_response(
            SnapshotResponse(sender="r0", size_bytes=1000, checkpoint=own)
        )
        assert replica.checkpoint.stats.stale_snapshots == 1
        assert replica.checkpoint.stats.snapshots_installed == 0

    def test_inconsistent_checkpoint_detected(self):
        cluster, replica = self._live_replica()
        real = cluster.replicas["r0"].checkpoint.current_checkpoint()
        broken = dataclasses.replace(real, committed_ids=real.committed_ids[:-1])
        assert not broken.is_consistent()
        assert real.is_consistent()

    def test_truncated_responder_offers_snapshot_for_deep_block_request(self):
        from repro.sync.messages import BlockRequest

        cluster, _ = self._live_replica()
        responder = cluster.replicas["r0"]
        assert responder.forest.base_height > 1
        tip = responder.forest.highest_certified()
        sent = []
        responder.network.send = lambda src, dst, msg: sent.append((dst, msg))
        request = BlockRequest(
            sender="r2", size_bytes=72,
            target_block_id=tip.block_id,
            known_block_id="genesis", known_height=0,
        )
        responder.sync.handle_request(request)
        cluster.scheduler.run_until(cluster.scheduler.now + 0.1)
        responses = [m for _, m in sent if isinstance(m, SnapshotResponse)]
        assert len(responses) == 1
        assert responses[0].checkpoint.height > 0
        assert responder.checkpoint.stats.snapshots_served == 1


class TestForestTruncation:
    def test_truncate_below_drops_vertices_keeps_commit_log(self):
        forest, blocks = build_certified_chain([1, 2, 3, 4, 5], txs_per_block=2)
        forest.commit(blocks[3].block_id)
        full_hash = forest.consistency_hash()
        prefix_hash = forest.consistency_hash(height=2)
        removed = forest.truncate_below(3)
        assert removed == 3  # genesis + heights 1, 2
        assert forest.base_height == 3
        assert len(forest) == 3  # the root at height 3 plus heights 4 and 5
        assert forest.committed_height == 4
        assert forest.committed_chain[-1] == blocks[3].block_id
        assert forest.consistency_hash() == full_hash
        assert forest.consistency_hash(height=2) == prefix_hash
        assert blocks[0].block_id not in forest
        assert blocks[2].block_id in forest

    def test_truncate_below_removes_dead_forks(self):
        forest, blocks = build_certified_chain([1, 2, 3, 4])
        # A fork branching from genesis that conflicts with the main chain.
        from repro.types.block import make_block

        fork = make_block(
            view=9, parent=forest.genesis, qc=forest.get("genesis").qc,
            proposer="r9", transactions=make_transactions(1),
        )
        forest.add_block(fork)
        forest.commit(blocks[2].block_id)
        forest.truncate_below(2)
        assert fork.block_id not in forest
        assert forest.base_height == 2

    def test_truncate_requires_committed_height(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        with pytest.raises(ForestError):
            forest.truncate_below(2)  # nothing committed yet

    def test_truncate_below_watermark_is_noop(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        forest.commit(blocks[2].block_id)
        forest.truncate_below(2)
        assert forest.truncate_below(1) == 0
        assert forest.base_height == 2

    def test_committed_blocks_between_under_watermark_returns_empty(self):
        forest, blocks = build_certified_chain([1, 2, 3, 4, 5])
        forest.commit(blocks[4].block_id)
        forest.truncate_below(3)
        assert forest.committed_blocks_between(0, 5, 10) == []
        served = forest.committed_blocks_between(2, 5, 10)
        assert [b.height for b in served] == [3, 4, 5]

    def test_install_checkpoint_resets_to_committed_root(self):
        source, blocks = build_certified_chain([1, 2, 3, 4], txs_per_block=1)
        source.commit(blocks[3].block_id)
        target_block = blocks[2]
        qc = source.get(target_block.block_id).qc
        ids = source.committed_chain[: target_block.height + 1]

        receiver = BlockForest()
        receiver.install_checkpoint(target_block, qc, ids)
        assert receiver.committed_height == 3
        assert receiver.base_height == 3
        assert len(receiver) == 1
        assert receiver.last_committed().block_id == target_block.block_id
        assert receiver.highest_certified().block_id == target_block.block_id
        assert receiver.consistency_hash(3) == source.consistency_hash(3)
        # The chain keeps extending above the installed root.
        extend_chain(receiver, target_block, views=[7, 8])
        assert len(receiver) == 3

    def test_install_checkpoint_validations(self):
        source, blocks = build_certified_chain([1, 2, 3])
        source.commit(blocks[2].block_id)
        block = blocks[2]
        qc = source.get(block.block_id).qc
        ids = source.committed_chain
        receiver = BlockForest()
        with pytest.raises(ForestError):
            receiver.install_checkpoint(block, qc, ids[:-1])  # log ends early
        with pytest.raises(ForestError):
            receiver.install_checkpoint(block, qc, ids[1:])  # wrong length
        receiver.install_checkpoint(block, qc, ids)
        with pytest.raises(ForestError):
            receiver.install_checkpoint(block, qc, ids)  # not ahead anymore


class TestKVSnapshot:
    def _tx(self, sequence, op, key, value=""):
        return Transaction.create(
            client_id="c0", sequence=sequence, created_at=0.0, operation=op, key=key, value=value
        )

    def test_snapshot_restore_round_trip(self):
        store = KeyValueStore()
        store.apply(self._tx(0, "put", "a", "1"))
        store.apply(self._tx(1, "put", "b", "2"))
        snapshot = store.snapshot()
        assert isinstance(snapshot, KVSnapshot)
        other = KeyValueStore()
        other.restore(snapshot)
        assert other.get("a") == "1"
        assert other.get("b") == "2"
        assert other.state_digest() == store.state_digest()
        assert other.operations_applied == store.operations_applied

    def test_restored_store_keeps_idempotency(self):
        store = KeyValueStore()
        tx = self._tx(0, "put", "a", "1")
        store.apply(tx)
        other = KeyValueStore()
        other.restore(store.snapshot())
        assert other.transaction_applied(tx)
        other.apply(tx)  # replay is a no-op
        assert other.operations_applied == store.operations_applied

    def test_snapshot_is_immutable_copy(self):
        store = KeyValueStore()
        store.apply(self._tx(0, "put", "a", "1"))
        snapshot = store.snapshot()
        store.apply(self._tx(1, "put", "a", "changed"))
        assert dict(snapshot.items)["a"] == "1"
        assert snapshot.payload_bytes == len("a") + len("1")


class TestConfiguration:
    def test_interval_threaded_to_replicas(self):
        cluster = make_cluster(checkpoint_interval=7)
        assert cluster.replicas["r0"].checkpoint.interval == 7

    def test_disabled_by_default(self):
        cluster = make_cluster()
        assert cluster.replicas["r0"].checkpoint.interval == 0

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            Configuration(checkpoint_interval=-1, **FAST).validate()
