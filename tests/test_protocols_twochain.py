"""Unit tests for the two-chain HotStuff safety rules (paper §II-C)."""

from repro.forest.forest import BlockForest
from repro.protocols.twochain import TwoChainHotStuffSafety
from repro.types.block import GENESIS_ID, make_block

from helpers import build_certified_chain, make_transactions


def chain_with_safety(views):
    forest, blocks = build_certified_chain(views)
    safety = TwoChainHotStuffSafety(forest)
    for block in blocks:
        safety.note_embedded_qc(forest.get(block.block_id).qc)
    return forest, blocks, safety


class TestMetadata:
    def test_protocol_properties(self):
        safety = TwoChainHotStuffSafety(BlockForest())
        assert safety.protocol_name == "2chainhs"
        assert not safety.votes_broadcast
        assert not safety.responsive
        assert safety.commit_rule_depth == 2


class TestStateUpdating:
    def test_lock_is_head_of_highest_one_chain(self):
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        # 2CHS locks on the block certified by the highest QC itself.
        assert safety.locked_block_id == blocks[-1].block_id

    def test_lock_trails_by_one_block_less_than_hotstuff(self):
        from repro.protocols.hotstuff import HotStuffSafety

        forest, blocks, two_chain = chain_with_safety([1, 2, 3])
        hs_forest, hs_blocks = build_certified_chain([1, 2, 3])
        hotstuff = HotStuffSafety(hs_forest)
        for block in hs_blocks:
            hotstuff.note_embedded_qc(hs_forest.get(block.block_id).qc)
        assert two_chain.locked_view() == hotstuff.locked_view() + 1


class TestVotingRule:
    def test_votes_for_extension_of_lock(self):
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        proposal = make_block(4, blocks[-1], safety.high_qc, "r0", make_transactions(1))
        assert safety.should_vote(proposal)

    def test_rejects_fork_below_lock(self):
        # The HotStuff-depth forking attack (two blocks back) is rejected by
        # 2CHS because its lock is one block tighter.
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        target = blocks[0]
        target_qc = forest.get(target.block_id).qc
        fork = make_block(4, target, target_qc, "byz", ())
        assert not safety.should_vote(fork)

    def test_accepts_fork_at_lock(self):
        # Forking one block back (to the lock itself) remains possible.
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        lock = forest.get_block(safety.locked_block_id)
        fork = make_block(4, lock, forest.get(lock.block_id).qc, "byz", ())
        # The fork extends the lock, hence is votable; it overwrites nothing
        # in this case because the lock is the tip, so use the view-2 state:
        assert safety.should_vote(fork)

    def test_rejects_stale_view(self):
        forest, blocks, safety = chain_with_safety([1, 2])
        safety.record_vote_sent(make_block(5, blocks[-1], safety.high_qc, "r0", ()))
        proposal = make_block(3, blocks[-1], safety.high_qc, "r0", ())
        assert not safety.should_vote(proposal)


class TestCommitRule:
    def test_two_consecutive_certified_blocks_commit_head(self):
        forest, blocks, safety = chain_with_safety([1, 2])
        assert safety.commit_candidate(blocks[1].block_id) == blocks[0].block_id

    def test_gap_in_views_prevents_commit(self):
        forest, blocks, safety = chain_with_safety([1, 3])
        assert safety.commit_candidate(blocks[1].block_id) is None

    def test_single_certified_block_not_committed(self):
        forest, blocks, safety = chain_with_safety([1])
        assert safety.commit_candidate(blocks[0].block_id) is None

    def test_commits_one_view_earlier_than_hotstuff(self):
        from repro.protocols.hotstuff import HotStuffSafety

        forest, blocks, two_chain = chain_with_safety([1, 2])
        hs_forest, hs_blocks = build_certified_chain([1, 2])
        hotstuff = HotStuffSafety(hs_forest)
        assert two_chain.commit_candidate(blocks[1].block_id) is not None
        assert hotstuff.commit_candidate(hs_blocks[1].block_id) is None

    def test_already_committed_head_returns_none(self):
        forest, blocks, safety = chain_with_safety([1, 2])
        forest.commit(blocks[0].block_id)
        assert safety.commit_candidate(blocks[1].block_id) is None
