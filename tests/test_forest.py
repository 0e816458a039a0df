"""Unit tests for the block forest."""

import pytest

from repro.forest.forest import BlockForest, ForestError
from repro.types.block import Block, GENESIS_ID, make_block
from repro.types.certificates import QuorumCertificate

from helpers import build_certified_chain, certify, extend_chain, make_transactions


def _block(forest, parent, view, proposer="r0", txs=0):
    qc = forest.get(parent.block_id).qc
    if qc is None:
        qc = QuorumCertificate(block_id=parent.block_id, view=parent.view, signers=frozenset({"r0"}))
    return make_block(view, parent, qc, proposer, make_transactions(txs))


class TestInsertion:
    def test_forest_starts_with_committed_genesis(self):
        forest = BlockForest()
        assert GENESIS_ID in forest
        assert forest.get(GENESIS_ID).committed
        assert forest.committed_height == 0

    def test_add_block_links_parent_and_child(self):
        forest = BlockForest()
        block = _block(forest, forest.genesis, 1)
        forest.add_block(block)
        assert block.block_id in forest
        assert forest.parent(block.block_id).block_id == GENESIS_ID
        assert [c.block_id for c in forest.children(GENESIS_ID)] == [block.block_id]

    def test_add_block_is_idempotent(self):
        forest = BlockForest()
        block = _block(forest, forest.genesis, 1)
        first = forest.add_block(block)
        second = forest.add_block(block)
        assert first is second
        assert len(forest) == 2

    def test_unknown_parent_rejected(self):
        forest = BlockForest()
        orphan = Block(
            block_id="orphan", view=5, parent_id="missing", height=5, qc=None, proposer="r0"
        )
        with pytest.raises(ForestError):
            forest.add_block(orphan)

    def test_wrong_height_rejected(self):
        forest = BlockForest()
        bad = Block(
            block_id="bad", view=1, parent_id=GENESIS_ID, height=7, qc=None, proposer="r0"
        )
        with pytest.raises(ForestError):
            forest.add_block(bad)

    def test_non_increasing_view_rejected(self):
        forest = BlockForest()
        bad = Block(
            block_id="bad", view=0, parent_id=GENESIS_ID, height=1, qc=None, proposer="r0"
        )
        with pytest.raises(ForestError):
            forest.add_block(bad)

    def test_forks_are_tracked(self):
        forest = BlockForest()
        a = _block(forest, forest.genesis, 1, proposer="r0")
        b = _block(forest, forest.genesis, 2, proposer="r1")
        forest.add_block(a)
        forest.add_block(b)
        assert len(forest.blocks_at_height(1)) == 2


class TestCertification:
    def test_record_qc_attaches_to_vertex(self):
        forest, blocks = build_certified_chain([1, 2])
        assert forest.get(blocks[0].block_id).certified
        assert forest.get(blocks[1].block_id).certified

    def test_record_qc_for_unknown_block_returns_none(self):
        forest = BlockForest()
        qc = QuorumCertificate(block_id="missing", view=9, signers=frozenset({"r0"}))
        assert forest.record_qc(qc) is None

    def test_highest_certified_tracks_view(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        assert forest.highest_certified().block_id == blocks[-1].block_id

    def test_longest_certified_tip_prefers_longer_chain(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        # A certified fork off genesis is shorter and must not win.
        fork = _block(forest, forest.genesis, 4, proposer="r9")
        forest.add_block(fork)
        certify(forest, fork)
        assert forest.longest_certified_tip().block_id == blocks[-1].block_id


class TestAncestry:
    def test_is_ancestor_on_a_chain(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        assert forest.is_ancestor(blocks[0].block_id, blocks[2].block_id)
        assert not forest.is_ancestor(blocks[2].block_id, blocks[0].block_id)

    def test_block_is_its_own_ancestor(self):
        forest, blocks = build_certified_chain([1])
        assert forest.is_ancestor(blocks[0].block_id, blocks[0].block_id)

    def test_forked_blocks_are_not_ancestors(self):
        forest, blocks = build_certified_chain([1, 2])
        fork = _block(forest, forest.genesis, 3, proposer="r9")
        forest.add_block(fork)
        assert not forest.is_ancestor(blocks[0].block_id, fork.block_id)
        assert not forest.is_ancestor(fork.block_id, blocks[1].block_id)

    def test_extends_accepts_direct_parent_before_insertion(self):
        forest, blocks = build_certified_chain([1, 2])
        child = _block(forest, blocks[-1], 3)
        assert forest.extends(child, blocks[-1].block_id)
        assert forest.extends(child, blocks[0].block_id)
        assert forest.extends(child, GENESIS_ID)

    def test_ancestors_walks_to_genesis(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        ids = [v.block_id for v in forest.ancestors(blocks[-1].block_id)]
        assert ids == [blocks[1].block_id, blocks[0].block_id, GENESIS_ID]


class TestCommit:
    def test_commit_commits_all_uncommitted_ancestors(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        newly = forest.commit(blocks[2].block_id)
        assert [v.block_id for v in newly] == [b.block_id for b in blocks]
        assert forest.committed_height == 3

    def test_commit_is_idempotent(self):
        forest, blocks = build_certified_chain([1, 2])
        forest.commit(blocks[1].block_id)
        assert forest.commit(blocks[1].block_id) == []

    def test_commit_unknown_block_raises(self):
        forest = BlockForest()
        with pytest.raises(ForestError):
            forest.commit("missing")

    def test_conflicting_commit_raises_safety_violation(self):
        forest, blocks = build_certified_chain([1, 2])
        fork = _block(forest, forest.genesis, 3, proposer="r9")
        forest.add_block(fork)
        forest.commit(blocks[1].block_id)
        with pytest.raises(ForestError):
            forest.commit(fork.block_id)

    def test_commit_records_order(self):
        forest, blocks = build_certified_chain([1, 2])
        forest.commit(blocks[1].block_id)
        chain = forest.committed_chain
        assert chain[0] == GENESIS_ID
        assert chain[-1] == blocks[1].block_id

    def test_committed_transactions_in_order(self):
        forest = BlockForest()
        blocks = extend_chain(forest, forest.genesis, [1, 2], txs_per_block=2)
        forest.commit(blocks[-1].block_id)
        txids = forest.committed_transactions()
        expected = [tx.txid for b in blocks for tx in b.transactions]
        assert txids == expected


class TestPruneAndConsistency:
    def test_prune_removes_abandoned_branches(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        fork = _block(forest, forest.genesis, 4, proposer="r9", txs=2)
        forest.add_block(fork)
        forest.commit(blocks[2].block_id)
        removed = forest.prune(forest.committed_height)
        assert [v.block_id for v in removed] == [fork.block_id]
        assert fork.block_id not in forest
        assert sum(v.block.num_transactions for v in removed) == 2

    def test_prune_keeps_committed_chain(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        forest.commit(blocks[2].block_id)
        forest.prune(forest.committed_height)
        for block in blocks:
            assert block.block_id in forest

    def test_forked_blocks_below_ignores_committed(self):
        forest, blocks = build_certified_chain([1, 2])
        forest.commit(blocks[1].block_id)
        assert forest.forked_blocks_below(forest.committed_height) == []

    def test_consistency_hash_matches_for_identical_chains(self):
        forest_a, blocks_a = build_certified_chain([1, 2, 3])
        forest_a.commit(blocks_a[2].block_id)

        forest_b = BlockForest()
        for block in blocks_a:
            forest_b.add_block(block)
            certify(forest_b, block)
        forest_b.commit(blocks_a[2].block_id)

        assert forest_a.consistency_hash() == forest_b.consistency_hash()

    def test_consistency_hash_respects_height_prefix(self):
        forest, blocks = build_certified_chain([1, 2, 3])
        forest.commit(blocks[2].block_id)
        prefix = forest.consistency_hash(height=1)
        full = forest.consistency_hash()
        assert prefix != full
