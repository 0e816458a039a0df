"""Unit tests for the Streamlet safety rules (paper §II-D)."""

from hypothesis import example, given, settings, strategies as st

from repro import api
from repro.bench.config import Configuration
from repro.forest.forest import BlockForest
from repro.protocols.streamlet import StreamletSafety
from repro.types.block import GENESIS_ID, make_block

from helpers import build_certified_chain, certify, extend_chain, make_transactions


def chain_with_safety(views):
    forest, blocks = build_certified_chain(views)
    safety = StreamletSafety(forest)
    for block in blocks:
        safety.note_embedded_qc(forest.get(block.block_id).qc)
    return forest, blocks, safety


class TestMetadata:
    def test_protocol_properties(self):
        safety = StreamletSafety(BlockForest())
        assert safety.protocol_name == "streamlet"
        assert safety.votes_broadcast
        assert safety.echo_messages
        assert not safety.responsive
        assert safety.commit_rule_depth == 3


class TestProposingRule:
    def test_proposal_extends_longest_notarized_chain(self):
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        plan = safety.choose_extension()
        assert plan.parent_id == blocks[-1].block_id

    def test_proposal_ignores_shorter_certified_fork(self):
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        fork = make_block(4, forest.get_block(GENESIS_ID), forest.get(GENESIS_ID).qc, "byz", ())
        forest.add_block(fork)
        certify(forest, fork)
        plan = safety.choose_extension()
        assert plan.parent_id == blocks[-1].block_id

    def test_proposal_on_fresh_forest_extends_genesis(self):
        safety = StreamletSafety(BlockForest())
        assert safety.choose_extension().parent_id == GENESIS_ID


class TestVotingRule:
    def test_votes_for_extension_of_longest_chain(self):
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        tip_qc = forest.get(blocks[-1].block_id).qc
        proposal = make_block(4, blocks[-1], tip_qc, "r0", make_transactions(1))
        assert safety.should_vote(proposal)

    def test_rejects_block_on_shorter_chain(self):
        # This is the forking-attack immunity: a proposal abandoning the
        # longest notarized chain is never voted for.
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        target = blocks[1]
        fork = make_block(4, target, forest.get(target.block_id).qc, "byz", ())
        assert not safety.should_vote(fork)

    def test_rejects_block_with_uncertified_parent(self):
        forest, blocks, safety = chain_with_safety([1, 2])
        loose = extend_chain(forest, blocks[-1], [3], certify_blocks=False)[0]
        tip_qc = forest.get(blocks[-1].block_id).qc
        proposal = make_block(
            4,
            loose,
            tip_qc,
            "r0",
            (),
        )
        assert not safety.should_vote(proposal)

    def test_votes_only_once_per_view(self):
        forest, blocks, safety = chain_with_safety([1, 2])
        tip_qc = forest.get(blocks[-1].block_id).qc
        first = make_block(3, blocks[-1], tip_qc, "r0", ())
        second = make_block(3, blocks[-1], tip_qc, "r1", make_transactions(1))
        assert safety.should_vote(first)
        safety.record_vote_sent(first)
        assert not safety.should_vote(second)

    def test_accepts_tie_between_equal_length_chains(self):
        # Two certified chains of equal length: extending either is valid.
        forest, blocks = build_certified_chain([1, 2])
        safety = StreamletSafety(forest)
        rival = make_block(3, blocks[0], forest.get(blocks[0].block_id).qc, "r1", ())
        forest.add_block(rival)
        certify(forest, rival)
        tip_qc = forest.get(rival.block_id).qc
        proposal = make_block(4, rival, tip_qc, "r2", ())
        assert safety.should_vote(proposal)


class TestCommitRule:
    def test_three_consecutive_views_commit_first_two(self):
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        assert safety.commit_candidate(blocks[2].block_id) == blocks[1].block_id

    def test_gap_in_views_prevents_commit(self):
        forest, blocks, safety = chain_with_safety([1, 3, 4])
        assert safety.commit_candidate(blocks[2].block_id) is None

    def test_genesis_completes_the_first_trio(self):
        # Genesis is notarized at view 0, so certified blocks at views 1 and 2
        # already form three consecutive notarized views and commit view 1.
        forest, blocks, safety = chain_with_safety([1, 2])
        assert safety.commit_candidate(blocks[1].block_id) == blocks[0].block_id

    def test_commit_requires_three_consecutive_views(self):
        forest, blocks, safety = chain_with_safety([2, 3])
        assert safety.commit_candidate(blocks[1].block_id) is None

    def test_middle_already_committed_returns_none(self):
        forest, blocks, safety = chain_with_safety([1, 2, 3])
        forest.commit(blocks[1].block_id)
        assert safety.commit_candidate(blocks[2].block_id) is None


#: When ``_scenario``'s fault ends (the heal or the recover).
FAULT_ENDS_AT = 0.35


def _scenario(kind, num_nodes):
    """A fault that starts at 0.15 s and ends at FAULT_ENDS_AT, or none."""
    if kind == "crash":
        return {"events": [{"kind": "crash-replica", "at": 0.15, "replica": "r1"},
                           {"kind": "recover-replica", "at": FAULT_ENDS_AT, "replica": "r1"}]}
    if kind == "partition":
        ids = [f"r{i}" for i in range(num_nodes)]
        half = num_nodes // 2
        return {"events": [{"kind": "partition", "at": 0.15, "groups": [ids[:half], ids[half:]]},
                           {"kind": "heal", "at": FAULT_ENDS_AT}]}
    return None


def _end_of_honest_trio(election, byzantine, first_view):
    """The last view of the first three consecutive honest-led views from ``first_view``."""
    view = first_view
    while any(election.leader(v) in byzantine for v in range(view, view + 3)):
        view += 1
    return view + 2


def _orphaned_certificates(forest):
    """Certified vertices above the forest root whose parent is not certified."""
    orphaned = []
    for vertex in forest.certified_vertices():
        if vertex.height == forest.base_height:
            continue  # the root: its parent was truncated or never existed
        parent = forest.parent(vertex.block_id)
        if parent is None or not parent.certified:
            orphaned.append(vertex)
    return orphaned


class TestReachableStates:
    """The invariant ``StreamletSafety.should_vote`` relies on, over real runs.

    Comparing heights instead of counting notarized blocks is sound only if
    every certified vertex other than the forest root has a certified parent
    (so a certified vertex's notarized chain is its whole path to the root).
    """

    @given(
        num_nodes=st.sampled_from([4, 7]),
        byzantine=st.sampled_from(["", "forking", "silence"]),
        fault=st.sampled_from(["", "crash", "partition"]),
        checkpoint_interval=st.sampled_from([0, 5]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # A silent replica leads views 1, 3 and 5-8 of this draw: no three
    # consecutive honest-led views begin before 0.5 s.
    @example(num_nodes=4, byzantine="silence", fault="partition", checkpoint_interval=0, seed=1)
    @example(num_nodes=4, byzantine="silence", fault="partition", checkpoint_interval=5, seed=1)
    @settings(max_examples=12, deadline=None)
    def test_every_certified_vertex_has_a_certified_parent(
        self, num_nodes, byzantine, fault, checkpoint_interval, seed
    ):
        config = Configuration(
            protocol="streamlet", num_nodes=num_nodes,
            byzantine_nodes=1 if byzantine else 0, strategy=byzantine or "silence",
            election="hash", block_size=10, concurrency=4, num_clients=1,
            cost_profile="fast", view_timeout=0.05, request_timeout=0.2,
            runtime=0.5, warmup=0.0, cooldown=0.0,
            checkpoint_interval=checkpoint_interval, seed=seed,
        )
        cluster = api.build(config, _scenario(fault, num_nodes))
        cluster.start()
        r0 = cluster.replicas["r0"]
        byzantine_ids = set(config.byzantine_ids())
        # Streamlet's promise: once r0 has passed three consecutive views led
        # by honest replicas that all began after the last heal or recover,
        # it has committed.  Views are read every 0.1 s, so the first view
        # known to begin after the fault is the one after the view current
        # at the first reading past its end.
        last_view = None
        if not fault:
            last_view = _end_of_honest_trio(r0.election, byzantine_ids, r0.current_view)
        step = 0
        while last_view is None or r0.current_view <= last_view:
            step += 1
            assert step <= 30, (
                f"r0 still in view {r0.current_view} at {step * 0.1 - 0.1:.1f} s; "
                f"waiting to pass view {last_view}"
            )
            cluster.run(until=step * 0.1)
            for replica in cluster.replicas.values():
                assert _orphaned_certificates(replica.forest) == [], (
                    f"{replica.node_id} at {step * 0.1:.1f} s"
                )
            if last_view is None and step * 0.1 >= FAULT_ENDS_AT:
                last_view = _end_of_honest_trio(
                    r0.election, byzantine_ids, r0.current_view + 1
                )
        assert r0.forest.committed_height > 0, f"r0 passed view {last_view} uncommitted"
