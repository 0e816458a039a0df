"""Unit tests for leader election and quorum tracking."""

import dataclasses

import pytest

from repro.bench.config import Configuration
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign, verify
from repro.election.election import (
    HashBasedElection,
    RoundRobinElection,
    StaticLeaderElection,
    make_election,
)
from repro.quorum import quorum
from repro.quorum.quorum import QuorumTracker, TimeoutTracker, max_faulty, quorum_size
from repro.transport.codec import decode_message, encode_message
from repro.types.certificates import Timeout, timeout_digest
from repro.types.messages import VoteMessage

from helpers import build_certified_chain, make_vote


NODES = ["r0", "r1", "r2", "r3"]


def forged(signed):
    """A vote or timeout as ``signed``, carrying a tag its voter never produced."""
    return dataclasses.replace(
        signed, signature=dataclasses.replace(signed.signature, tag=b"forged"))


@pytest.fixture
def verified(monkeypatch):
    """Every signature the trackers hand to ``verify``, in order."""
    seen = []

    def spy(registry, signature):
        seen.append(signature)
        return verify(registry, signature)

    monkeypatch.setattr(quorum, "verify", spy)
    return seen


class TestElection:
    def test_round_robin_rotates(self):
        election = RoundRobinElection(NODES)
        assert [election.leader(v) for v in range(1, 6)] == ["r1", "r2", "r3", "r0", "r1"]

    def test_round_robin_is_leader(self):
        election = RoundRobinElection(NODES)
        assert election.leader(1) == "r1"
        assert election.leader(1) != "r0"

    def test_static_leader_never_changes(self):
        election = StaticLeaderElection(NODES, master="r2")
        assert all(election.leader(v) == "r2" for v in range(20))

    def test_static_leader_must_be_a_node(self):
        with pytest.raises(ValueError):
            StaticLeaderElection(NODES, master="r9")

    def test_hash_election_is_deterministic(self):
        a = HashBasedElection(NODES, seed=3)
        b = HashBasedElection(NODES, seed=3)
        assert [a.leader(v) for v in range(50)] == [b.leader(v) for v in range(50)]

    def test_hash_election_spreads_leadership(self):
        election = HashBasedElection(NODES, seed=3)
        leaders = {election.leader(v) for v in range(100)}
        assert leaders == set(NODES)

    def test_hash_election_seed_changes_schedule(self):
        a = [HashBasedElection(NODES, seed=1).leader(v) for v in range(50)]
        b = [HashBasedElection(NODES, seed=2).leader(v) for v in range(50)]
        assert a != b

    def test_memoized_hash_leader_equals_a_fresh_digest(self):
        """Views 0-20 000, asked in rising and in scattered order (hits and evictions)."""
        import random

        from repro.crypto.digest import digest_fields

        nodes = [f"r{i}" for i in range(7)]
        election = HashBasedElection(nodes, seed=11)
        views = list(range(20_001))
        scattered = views[:]
        random.Random(5).shuffle(scattered)
        for view in views + scattered + [v // 3 for v in views]:
            fresh = nodes[int(digest_fields("leader", 11, view)[:16], 16) % len(nodes)]
            assert election.leader(view) == fresh
            assert len(election._memo) <= HashBasedElection.MEMO_SIZE

    def test_make_election_master_takes_precedence(self):
        election = make_election(Configuration(master="r3", election="hash"))
        assert isinstance(election, StaticLeaderElection)
        assert election.nodes == NODES and election.leader(7) == "r3"

    def test_make_election_kinds(self):
        assert isinstance(make_election(Configuration()), RoundRobinElection)
        election = make_election(Configuration(election="hash", seed=3))
        assert isinstance(election, HashBasedElection)
        assert [election.leader(v) for v in range(20)] == [
            HashBasedElection(NODES, seed=3).leader(v) for v in range(20)]
        with pytest.raises(ValueError):
            make_election(Configuration(election="lottery"))

    def test_every_registered_election_takes_nodes_and_seed(self):
        from repro.election.election import ELECTIONS

        for name in ELECTIONS.available():
            cls = ELECTIONS.get(name)
            election = cls(NODES, seed=5)
            assert (election.nodes, election.seed) == (NODES, 5)
            assert cls(NODES).seed == 0
            assert election.leader(3) in NODES

    def test_empty_node_list_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinElection([])


class TestQuorumSizes:
    def test_max_faulty(self):
        assert max_faulty(4) == 1
        assert max_faulty(8) == 2
        assert max_faulty(32) == 10
        assert max_faulty(1) == 0

    def test_quorum_size(self):
        assert quorum_size(4) == 3
        assert quorum_size(7) == 5
        assert quorum_size(8) == 6
        assert quorum_size(32) == 22

    def test_invalid_cluster_size(self):
        with pytest.raises(ValueError):
            max_faulty(0)


class TestQuorumTracker:
    def setup_method(self):
        self.registry = KeyRegistry()
        self.forest, self.blocks = build_certified_chain([1])
        self.block = self.blocks[0]

    def test_qc_forms_at_threshold(self):
        tracker = QuorumTracker(4, self.registry)
        qc = None
        for voter in ["r0", "r1", "r2"]:
            qc = tracker.add_and_certify(make_vote(self.registry, voter, self.block))
        assert qc is not None
        assert qc.block_id == self.block.block_id
        assert len(qc.signers) == 3

    def test_no_qc_below_threshold(self):
        tracker = QuorumTracker(4, self.registry)
        for voter in ["r0", "r1"]:
            assert tracker.add_and_certify(make_vote(self.registry, voter, self.block)) is None

    def test_duplicate_votes_do_not_count(self):
        tracker = QuorumTracker(4, self.registry)
        vote = make_vote(self.registry, "r0", self.block)
        tracker.voted(vote)
        assert not tracker.voted(vote)
        assert tracker.vote_count(self.block.view, self.block.block_id) == 1
        assert tracker.duplicates == 1

    def test_a_counted_voter_is_a_duplicate_before_any_verification(self, verified):
        tracker = QuorumTracker(4, self.registry)
        vote = make_vote(self.registry, "r0", self.block)
        assert tracker.voted(vote)
        assert len(verified) == 1
        assert not tracker.voted(forged(vote))
        assert not tracker.voted(vote)
        assert len(verified) == 1
        assert (tracker.duplicates, tracker.invalid) == (2, 0)
        assert tracker.vote_count(self.block.view, self.block.block_id) == 1

    def test_a_forged_vote_does_not_shadow_the_genuine_one(self):
        tracker = QuorumTracker(4, self.registry)
        vote = make_vote(self.registry, "r0", self.block)
        assert not tracker.voted(forged(vote))
        assert tracker.vote_count(self.block.view, self.block.block_id) == 0
        assert tracker.voted(vote)
        assert (tracker.duplicates, tracker.invalid) == (0, 1)
        for voter in ["r1", "r2"]:
            qc = tracker.add_and_certify(make_vote(self.registry, voter, self.block))
        assert qc is not None and vote.signature in qc.signatures

    def test_qc_is_emitted_only_once(self):
        tracker = QuorumTracker(4, self.registry)
        for voter in ["r0", "r1", "r2"]:
            tracker.voted(make_vote(self.registry, voter, self.block))
        assert tracker.certified(self.block.view, self.block.block_id) is not None
        assert tracker.certified(self.block.view, self.block.block_id) is None

    def test_extra_votes_after_qc_do_not_reissue(self):
        tracker = QuorumTracker(4, self.registry)
        for voter in ["r0", "r1", "r2"]:
            tracker.add_and_certify(make_vote(self.registry, voter, self.block))
        assert tracker.add_and_certify(make_vote(self.registry, "r3", self.block)) is None

    def test_invalid_signature_rejected(self):
        tracker = QuorumTracker(4, self.registry)
        vote = make_vote(self.registry, "r0", self.block)
        tampered = type(vote)(
            voter="r1",
            block_id=vote.block_id,
            view=vote.view,
            signature=vote.signature,
        )
        self.registry.register("r1")
        assert not tracker.voted(tampered)
        assert tracker.invalid == 1

    def test_an_own_vote_is_counted_without_verification(self, verified):
        tracker = QuorumTracker(4, self.registry)
        own = make_vote(self.registry, "r0", self.block)
        tracker.trust(own)
        assert tracker.voted(own)
        assert verified == [] and tracker.vote_count(self.block.view, self.block.block_id) == 1

    def test_a_decoded_vote_naming_the_receiver_is_verified(self, verified):
        # The wire gives any voter name; only the object this replica sent
        # back to itself goes unverified.
        tracker = QuorumTracker(4, self.registry)
        own = make_vote(self.registry, "r0", self.block)
        tracker.trust(own)
        wire = encode_message(VoteMessage(sender="r0", size_bytes=105, vote=forged(own)))
        decoded = decode_message(wire).vote
        assert decoded.voter == "r0" and decoded is not own
        assert not tracker.voted(decoded)
        assert (tracker.invalid, len(verified)) == (1, 1)
        assert tracker.voted(own) and len(verified) == 1

    def test_trust_entries_leave_with_prune_below(self):
        forest, blocks = build_certified_chain([1, 2])
        tracker = QuorumTracker(4, self.registry)
        for block in blocks:
            tracker.trust(make_vote(self.registry, "r0", block))
        tracker.prune_below(2)
        assert list(tracker._own) == [(2, blocks[1].block_id)]
        tracker.prune_below(3)
        assert tracker._own == {}

    def test_votes_for_different_blocks_are_separate(self):
        forest, blocks = build_certified_chain([1, 2])
        tracker = QuorumTracker(4, self.registry)
        for voter in ["r0", "r1"]:
            tracker.voted(make_vote(self.registry, voter, blocks[0]))
        tracker.voted(make_vote(self.registry, "r2", blocks[1]))
        assert tracker.certified(blocks[0].view, blocks[0].block_id) is None


class TestTimeoutTracker:
    def _timeout(self, registry, voter, view):
        keypair = registry.register(voter)
        return Timeout(
            voter=voter,
            view=view,
            high_qc_view=view - 1,
            signature=sign(keypair, timeout_digest(view)),
        )

    def test_tc_forms_at_threshold(self):
        registry = KeyRegistry()
        tracker = TimeoutTracker(4, registry)
        tc = None
        for voter in ["r0", "r1", "r2"]:
            tc = tracker.add_and_certify(self._timeout(registry, voter, view=5))
        assert tc is not None
        assert tc.view == 5
        assert tc.high_qc_view == 4

    def test_duplicates_do_not_count(self):
        registry = KeyRegistry()
        tracker = TimeoutTracker(4, registry)
        timeout = self._timeout(registry, "r0", view=5)
        assert tracker.record(timeout)
        assert not tracker.record(timeout)
        assert tracker.timeout_count(5) == 1

    def test_a_counted_voter_is_a_duplicate_before_any_verification(self, verified):
        registry = KeyRegistry()
        tracker = TimeoutTracker(4, registry)
        timeout = self._timeout(registry, "r0", view=5)
        assert tracker.record(timeout)
        assert not tracker.record(forged(timeout)) and not tracker.record(timeout)
        assert len(verified) == 1 and tracker.invalid == 0

    def test_a_forged_timeout_does_not_shadow_the_genuine_one(self):
        registry = KeyRegistry()
        tracker = TimeoutTracker(4, registry)
        timeout = self._timeout(registry, "r0", view=5)
        assert not tracker.record(forged(timeout))
        assert tracker.timeout_count(5) == 0 and tracker.invalid == 1
        assert tracker.record(timeout)
        assert tracker.timeout_count(5) == 1

    def test_an_own_timeout_is_counted_without_verification(self, verified):
        registry = KeyRegistry()
        tracker = TimeoutTracker(4, registry)
        own = self._timeout(registry, "r0", view=5)
        tracker.trust(own)
        assert not tracker.record(forged(own))
        assert tracker.record(own) and tracker.timeout_count(5) == 1
        assert (tracker.invalid, len(verified)) == (1, 1)
        tracker.prune_below(6)
        assert tracker._own == {}

    def test_tc_only_once_per_view(self):
        registry = KeyRegistry()
        tracker = TimeoutTracker(4, registry)
        for voter in ["r0", "r1", "r2"]:
            tracker.add_and_certify(self._timeout(registry, voter, view=5))
        assert tracker.add_and_certify(self._timeout(registry, "r3", view=5)) is None

    def test_views_tracked_independently(self):
        registry = KeyRegistry()
        tracker = TimeoutTracker(4, registry)
        tracker.record(self._timeout(registry, "r0", view=5))
        tracker.record(self._timeout(registry, "r1", view=6))
        assert tracker.timeout_count(5) == 1
        assert tracker.timeout_count(6) == 1

    def test_invalid_signature_rejected(self):
        registry = KeyRegistry()
        tracker = TimeoutTracker(4, registry)
        good = self._timeout(registry, "r0", view=5)
        registry.register("r1")
        forged = Timeout(voter="r1", view=5, high_qc_view=0, signature=good.signature)
        assert not tracker.record(forged)
        assert tracker.invalid == 1
