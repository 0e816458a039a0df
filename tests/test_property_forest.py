"""Property-based tests (hypothesis) for the block forest invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.forest.forest import BlockForest
from repro.types.block import GENESIS_ID, make_block
from repro.types.certificates import QuorumCertificate


def _qc(block):
    return QuorumCertificate(
        block_id=block.block_id, view=block.view, signers=frozenset({"r0", "r1", "r2"})
    )


def _chain_ids(block, blocks):
    """Ids from genesis to ``block``, read from the blocks the script made."""
    by_id = {b.block_id: b for b in blocks}
    ids = [block.block_id]
    while block.parent_id is not None:
        block = by_id[block.parent_id]
        ids.append(block.block_id)
    return ids[::-1]


def apply_script(script, after_step=None):
    """Build a forest from a script of ``(op, choice, flag)`` steps.

    ``add`` extends a randomly chosen retained block with a new block at the
    next unused view, certifying it if ``flag``; ``certify`` certifies a
    retained block late.  ``commit`` commits a retained block that extends
    the committed chain and prunes the forks below it, as a replica does;
    ``truncate`` truncates below a committed height; ``install`` installs a
    block that is ahead of the committed chain as a checkpoint (with its
    certificate if ``flag``).  The result respects the structural rules
    (monotone views, height = parent height + 1).  ``after_step(forest)``
    runs after every step.
    """
    forest = BlockForest()
    blocks = [forest.genesis]
    view = 0
    for op, choice, flag in script:
        retained = [b for b in blocks if b.block_id in forest]
        picked = retained[choice % len(retained)]
        if op == "add":
            view += 1
            block = make_block(view, picked, _qc(picked), f"r{choice % 4}", ())
            forest.add_block(block)
            if flag:
                forest.record_qc(_qc(block))
            blocks.append(block)
        elif op == "certify":
            forest.record_qc(_qc(picked))
        elif op == "commit":
            last = forest.last_committed().block_id
            extending = [b for b in retained if forest.is_ancestor(last, b.block_id)]
            forest.commit(extending[choice % len(extending)].block_id)
            forest.prune(forest.committed_height)
        elif op == "truncate":
            span = forest.committed_height - forest.base_height
            if span:
                forest.truncate_below(forest.base_height + 1 + choice % span)
        elif op == "install":
            ahead = [b for b in blocks if b.height > forest.committed_height]
            if ahead:
                block = ahead[choice % len(ahead)]
                forest.install_checkpoint(
                    block, _qc(block) if flag else None, _chain_ids(block, blocks)
                )
        if after_step is not None:
            after_step(forest)
    return forest, blocks


def scan_certified_tips(forest):
    """Reference for the cached tips: ``(highest, longest)`` by a full scan.

    The highest-view certified vertex and the certified vertex of greatest
    (height, view, id); the forest root when nothing is certified.
    """
    certified = forest.certified_vertices()
    if not certified:
        (root,) = forest.blocks_at_height(forest.base_height)
        return root, root
    highest = max(certified, key=lambda v: v.view)
    longest = max(certified, key=lambda v: (v.height, v.view, v.block_id))
    return highest, longest


def assert_tips_match_scan(forest):
    highest, longest = scan_certified_tips(forest)
    assert forest.highest_certified() is highest
    assert forest.longest_certified_tip() is longest


script_strategy = st.lists(
    st.tuples(st.just("add"), st.integers(min_value=0, max_value=1000), st.booleans()),
    min_size=1,
    max_size=40,
)

maintenance_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "add", "certify", "commit", "truncate", "install"]),
        st.integers(min_value=0, max_value=1000),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


class TestForestInvariants:
    @given(script=script_strategy)
    @settings(max_examples=60, deadline=None)
    def test_heights_and_views_increase_along_every_path(self, script):
        forest, blocks = apply_script(script)
        for block in blocks[1:]:
            vertex = forest.get(block.block_id)
            parent = forest.parent(block.block_id)
            assert vertex.height == parent.height + 1
            assert vertex.view > parent.view

    @given(script=script_strategy)
    @settings(max_examples=60, deadline=None)
    def test_every_block_reaches_genesis(self, script):
        forest, blocks = apply_script(script)
        for block in blocks[1:]:
            ancestors = list(forest.ancestors(block.block_id))
            assert ancestors[-1].block_id == GENESIS_ID

    @given(script=script_strategy)
    @settings(max_examples=60, deadline=None)
    def test_ancestry_is_antisymmetric(self, script):
        forest, blocks = apply_script(script)
        for a in blocks:
            for b in blocks:
                if a.block_id == b.block_id:
                    continue
                both = forest.is_ancestor(a.block_id, b.block_id) and forest.is_ancestor(
                    b.block_id, a.block_id
                )
                assert not both

    @given(script=script_strategy)
    @settings(max_examples=60, deadline=None)
    def test_longest_certified_tip_is_certified_and_highest(self, script):
        forest, _blocks = apply_script(script)
        tip = forest.longest_certified_tip()
        assert tip.certified
        for vertex in [forest.get(b.block_id) for b in _blocks]:
            if vertex.certified:
                assert vertex.height <= tip.height

    @given(script=maintenance_strategy)
    @example(script=[  # the longest tip is truncated away, the highest stays
        ("add", 0, True), ("add", 1, True), ("add", 2, True), ("add", 0, True),
        ("commit", 4, False), ("truncate", 0, False),
    ])
    @settings(max_examples=150, deadline=None)
    def test_cached_certified_tips_match_a_scan(self, script):
        apply_script(script, after_step=assert_tips_match_scan)

    @given(script=script_strategy, commit_index=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_committed_chain_is_a_single_path(self, script, commit_index):
        forest, blocks = apply_script(script)
        target = blocks[commit_index % len(blocks)]
        forest.commit(target.block_id)
        chain = forest.committed_chain
        # Consecutive committed blocks are parent/child pairs.
        for parent_id, child_id in zip(chain, chain[1:]):
            assert forest.get(child_id).block.parent_id == parent_id

    @given(script=script_strategy, commit_index=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_prune_never_removes_committed_blocks(self, script, commit_index):
        forest, blocks = apply_script(script)
        target = blocks[commit_index % len(blocks)]
        forest.commit(target.block_id)
        committed_before = set(forest.committed_chain)
        forest.prune(forest.committed_height)
        for block_id in committed_before:
            assert block_id in forest

    @given(script=script_strategy, commit_index=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_pruned_blocks_conflict_with_the_committed_chain(self, script, commit_index):
        forest, blocks = apply_script(script)
        target = blocks[commit_index % len(blocks)]
        forest.commit(target.block_id)
        last_committed = forest.last_committed().block_id
        removed = forest.prune(forest.committed_height)
        for vertex in removed:
            assert not forest.is_ancestor(vertex.block_id, last_committed)
