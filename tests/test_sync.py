"""Tests for the block-fetch / state-sync subsystem (repro.sync).

Covers the acceptance scenario of the sync work — a replica crashed for
several committed blocks recovers, fetches the missed chain, and votes again
— plus idempotency of duplicate/stale responses, validation of forged
certificates, orphan-buffer bounds, the replica's dispatch table, and sync
under an active Byzantine leader.
"""

from repro import api
from repro.bench.config import Configuration
from repro.bench.runner import build_cluster
from repro.checkpoint.messages import SnapshotResponse
from repro.core.byzantine import STRATEGIES, convert_replica, register_strategy
from repro.core.replica import Replica
from repro.forest.forest import BlockForest
from repro.sync.manager import MAX_BATCH, MAX_ROUNDS_PER_TARGET
from repro.sync.messages import BlockRequest, BlockResponse
from repro.types.certificates import QuorumCertificate
from repro.types.messages import TimeoutMessage
from helpers import extend_chain, make_transactions

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


def make_cluster(runtime=4.0, **overrides):
    params = dict(FAST)
    params.update(overrides)
    config = Configuration(warmup=0.0, runtime=runtime, cooldown=0.0, **params)
    return build_cluster(config)


class TestRecoveryCatchUp:
    """The acceptance scenario: crash >= 3 committed blocks, recover, vote."""

    def test_recovered_replica_reaches_live_head_and_votes(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run(until=0.5)
        victim = cluster.replicas["r3"]
        observer = cluster.replicas["r0"]
        victim.crash()
        height_at_crash = victim.forest.committed_height
        cluster.run(until=2.0)
        # The cluster committed well past the victim while it was down.
        missed = observer.forest.committed_height - height_at_crash
        assert missed >= 3
        votes_before_recovery = victim.stats.votes_sent
        victim.recover()
        cluster.run(until=4.0)
        # Full chain: the victim holds (almost all of) the observer's chain
        # and is committing at the live head, not parked at the crash point.
        assert victim.forest.committed_height >= observer.forest.committed_height - 2
        assert victim.forest.committed_height > height_at_crash + missed
        # It voted on proposals extending blocks it fetched.
        assert victim.stats.votes_sent > votes_before_recovery
        # Fetch-round metrics are reported.  A couple of gap blocks may
        # arrive as drained orphan proposals rather than fetches, so the
        # fetched count can trail the missed count slightly.
        assert victim.sync.stats.fetch_rounds > 0
        assert victim.sync.stats.blocks_fetched >= missed - 2
        assert victim.sync.stats.bytes_fetched > 0
        summary = cluster.metrics.summarize()
        assert summary.sync_rounds > 0
        assert summary.sync_blocks_fetched >= missed - 2
        assert summary.sync_bytes_fetched > 0
        # Summed over the cluster, the counters show both sides of the
        # exchange: the victim fetched, its peers served.
        stats = [replica.sync.stats for replica in cluster.replicas.values()]
        assert sum(s.blocks_fetched for s in stats) >= victim.sync.stats.blocks_fetched
        assert sum(s.responses_sent for s in stats) >= victim.sync.stats.responses_received
        assert sum(s.blocks_served for s in stats) >= victim.sync.stats.blocks_fetched
        assert cluster.consistency_check()

    def test_scenario_event_recovery_restores_participation(self):
        """The declarative recover-replica event now means full recovery."""
        result = api.run(
            dict(FAST, warmup=0.0, runtime=4.0, cooldown=0.0),
            scenario={
                "events": [
                    {"kind": "crash-replica", "at": 0.5, "replica": "last"},
                    {"kind": "recover-replica", "at": 2.0, "replica": "last"},
                ]
            },
        )
        assert result.consistent
        assert result.metrics.sync_rounds > 0
        assert result.metrics.sync_blocks_fetched > 0

    def test_unanswerable_target_retries_then_abandons(self):
        """Rounds retry on a view-timeout cadence, bounded by the cap."""
        cluster = make_cluster()
        cluster.start()
        cluster.run(until=0.1)
        replica = cluster.replicas["r3"]
        cap = MAX_ROUNDS_PER_TARGET
        replica.sync._maybe_request("no-such-block")
        cluster.run(until=1.5)  # plenty of view timeouts for all retries
        # No peer holds the target, so every round goes unanswered; the
        # manager re-requests up to the cap and then gives up.
        assert replica.sync.stats.fetch_rounds == cap
        assert replica.sync.stats.targets_abandoned == 1

    def test_partition_healed_replica_catches_up(self):
        from repro.network.partition import Partition

        cluster = make_cluster()
        node_ids = set(cluster.config.node_ids())
        cluster.network.add_partition(
            Partition.isolate(node_ids, {"r3"}, start=0.5, end=2.0)
        )
        cluster.start()
        cluster.run(until=4.0)
        victim = cluster.replicas["r3"]
        observer = cluster.replicas["r0"]
        assert victim.forest.committed_height >= observer.forest.committed_height - 2
        assert cluster.consistency_check()


class TestByzantineSync:
    def test_sync_under_active_byzantine_leader(self):
        """Catch-up succeeds while a forking leader is attacking the chain."""
        cluster = make_cluster(num_nodes=5, byzantine_nodes=1, strategy="forking")
        cluster.start()
        cluster.run(until=0.5)
        victim = cluster.replicas["r3"]  # honest (r4 is the Byzantine one)
        observer = cluster.replicas["r0"]
        victim.crash()
        height_at_crash = victim.forest.committed_height
        cluster.run(until=2.0)
        victim.recover()
        cluster.run(until=4.0)
        assert observer.forest.committed_height > height_at_crash + 3
        assert victim.forest.committed_height >= observer.forest.committed_height - 3
        assert victim.stats.safety_violations == 0
        assert cluster.consistency_check()

    def test_forged_tip_qc_is_rejected(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run(until=0.5)
        replica = cluster.replicas["r0"]
        tip = replica.forest.highest_certified()
        forged = QuorumCertificate(
            block_id="no-such-block",
            view=tip.view + 100,
            signers=frozenset({"r0", "r1", "r2"}),
            signatures=(),  # no valid signatures at all
        )
        assert not replica.sync._qc_valid(forged)


class TestResponseIngestion:
    def _synced_pair(self):
        """Two clusters from the same seed: a source chain and a receiver."""
        cluster = make_cluster()
        cluster.start()
        cluster.run(until=1.0)
        return cluster

    def test_duplicate_response_is_idempotent(self):
        cluster = self._synced_pair()
        source = cluster.replicas["r0"]
        receiver = cluster.replicas["r1"]
        # Build a response from r0's committed chain, replaying blocks r1
        # already holds.
        chain_ids = source.forest.committed_chain[1:6]
        blocks = tuple(source.forest.get_block(b) for b in chain_ids)
        tip_qc = source.forest.get(chain_ids[-1]).qc
        response = BlockResponse(
            sender="r0", size_bytes=1000, blocks=blocks,
            target_id=chain_ids[-1], tip_qc=tip_qc,
        )
        before_len = len(receiver.forest)
        before_committed = receiver.forest.committed_chain
        receiver.sync.handle_response(response)
        receiver.sync.handle_response(response)  # stale duplicate
        assert len(receiver.forest) == before_len
        assert receiver.forest.committed_chain == before_committed
        assert receiver.sync.stats.duplicate_blocks == 2 * len(blocks)
        assert receiver.sync.stats.blocks_fetched == 0

    def test_unjustified_block_stops_the_batch(self):
        from repro.types.block import make_block

        cluster = self._synced_pair()
        receiver = cluster.replicas["r1"]
        # Forge a block extending a real block of r1's chain, "justified" by
        # a QC that names a quorum of signers but carries no signatures.
        parent = receiver.forest.get_block(receiver.forest.committed_chain[2])
        forged_qc = QuorumCertificate(
            block_id=parent.block_id,
            view=parent.view,
            signers=frozenset({"r0", "r1", "r2"}),
            signatures=(),
        )
        fake = make_block(
            view=parent.view + 1, parent=parent, qc=forged_qc,
            proposer="r0", transactions=make_transactions(1),
        )
        response = BlockResponse(
            sender="r0", size_bytes=100, blocks=(fake,), target_id=fake.block_id
        )
        receiver.sync.handle_response(response)
        assert fake.block_id not in receiver.forest
        assert receiver.sync.stats.invalid_responses == 1

    def test_block_request_served_oldest_first_and_bounded(self):
        cluster = make_cluster()
        cluster.start()
        cluster.run(until=1.0)
        responder = cluster.replicas["r0"]
        tip = responder.forest.highest_certified()
        assert tip.height > MAX_BATCH
        request = BlockRequest(
            sender="r2", size_bytes=72,
            target_block_id=tip.block_id,
            known_block_id="genesis", known_height=0,
        )
        sent = []
        responder.network.send = lambda src, dst, msg: sent.append((dst, msg))
        responder.sync.handle_request(request)
        cluster.scheduler.run_until(cluster.scheduler.now + 0.1)
        responses = [(d, m) for d, m in sent if isinstance(m, BlockResponse)]
        assert len(responses) == 1
        dst, response = responses[0]
        assert dst == "r2"
        assert len(response.blocks) == MAX_BATCH
        heights = [b.height for b in response.blocks]
        assert heights == sorted(heights)  # oldest first
        assert heights[0] == 1  # connects directly above the anchor


class TestOrphanTracking:
    def test_orphan_buffer_bounded_fifo(self):
        forest = BlockForest(orphan_capacity=2)
        chain_forest = BlockForest()
        blocks = extend_chain(chain_forest, chain_forest.genesis, views=[1, 2, 3, 4])
        orphans = blocks[1:]  # parents unknown to `forest`
        added0, evicted0 = forest.add_orphan(orphans[0])
        added1, evicted1 = forest.add_orphan(orphans[1])
        assert (added0, evicted0) == (True, None)
        assert (added1, evicted1) == (True, None)
        added2, evicted2 = forest.add_orphan(orphans[2])
        assert added2 and evicted2.block_id == orphans[0].block_id
        assert forest.orphan_count == 2
        # Duplicates are no-ops.
        assert forest.add_orphan(orphans[2]) == (False, None)
        # Popping drains the buffer for that parent.
        popped = forest.pop_orphans(orphans[1].parent_id)
        assert [b.block_id for b in popped] == [orphans[1].block_id]
        assert forest.orphan_count == 1
        assert forest.orphan_parents() == [orphans[2].parent_id]

    def test_highest_certified_is_tracked_incrementally(self):
        forest = BlockForest()
        blocks = extend_chain(forest, forest.genesis, views=[1, 2, 3])
        assert forest.highest_certified().block_id == blocks[-1].block_id
        more = extend_chain(forest, blocks[-1], views=[7], certify_blocks=False)
        assert forest.highest_certified().block_id == blocks[-1].block_id
        del more


class TestDispatchTable:
    def test_sync_and_snapshot_kinds_reach_their_managers(self):
        replica = make_cluster().replicas["r0"]
        for kind, served_by in (
            (BlockRequest, replica.sync.handle_request),
            (BlockResponse, replica.sync.handle_response),
            (SnapshotResponse, replica.checkpoint.handle_response),
        ):
            _, handler = Replica.DISPATCH[kind]
            assert handler(replica) == served_by

    def test_a_strategy_converted_mid_run_serves_with_its_override(self):
        heard = []

        @register_strategy("test-timeout-counter")
        class TimeoutCounter(Replica):
            def _process_timeout(self, message):
                heard.append(message.sender)

        try:
            cluster = make_cluster()
            cluster.start()
            cluster.scheduler.run_until(0.05)
            replica = convert_replica(cluster.replicas["r0"], "test-timeout-counter")
            replica.deliver(TimeoutMessage(sender="tester", size_bytes=1))
            cluster.scheduler.run_until(0.06)
            assert heard == ["tester"]
        finally:
            STRATEGIES.unregister("test-timeout-counter")

    def test_a_new_kind_is_its_declared_fields(self):
        # docs/EXTENDING.md section 6's declaration: a kind with no row in
        # the replica's dispatch table is ignored by replicas.
        from dataclasses import dataclass

        from repro.types.messages import Message

        @dataclass(slots=True, unsafe_hash=True)
        class GossipDigest(Message):
            digest: str = ""

        digest = GossipDigest(sender="r0", size_bytes=40, digest="abc")
        by_position = GossipDigest("r0", 40, "abc")
        assert by_position.digest == "abc"
        assert digest == by_position and hash(digest) == hash(by_position)
        assert digest != GossipDigest(sender="r0", size_bytes=40, digest="abd")
        assert digest != GossipDigest(sender="r0", size_bytes=40)
        assert len({digest, by_position}) == 1
        assert GossipDigest not in Replica.DISPATCH
