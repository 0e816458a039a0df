"""The HotStuff family as declarations of traits on ``Safety``.

``TestSameRules`` is the spec of the refactor that made HotStuff, two-chain
HotStuff, Fast-HotStuff and LBFT class attributes only: on random certified
forests (forks, view gaps, QCs for blocks never received, proposals whose
parent is missing) and random QC arrival orders, each declaration answers
every rule exactly as a reference copy of the protocol's own method bodies,
kept below, does — and Streamlet's commit rule, now the shared chain walk,
answers as its own body did.  The remaining classes check that the traits,
not protocol names, are what the model, the fuzz cycle and the forking attack
read.
"""

import ast
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.forest.forest import BlockForest
from repro.fuzz import generate_cases
from repro.model import AnalyticalModel, ModelParameters
from repro.plugins import normalize_name
from repro.protocols import (
    FastHotStuffSafety,
    HotStuffSafety,
    LeaderBroadcastSafety,
    StreamletSafety,
    TwoChainHotStuffSafety,
)
from repro.protocols.registry import PROTOCOLS, available_protocols
from repro.protocols.safety import ProposalPlan
from repro.types.block import GENESIS_ID, Block, make_block
from repro.types.certificates import QuorumCertificate

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


# ----------------------------------------------------------------------
# Reference copies of the per-protocol bodies the declarations replaced.
# ----------------------------------------------------------------------
class _Reference:
    """The shared state variables and state-updating rule, as they were."""

    def __init__(self, forest: BlockForest) -> None:
        self.forest = forest
        genesis_qc = forest.get(GENESIS_ID).qc
        self.high_qc = genesis_qc
        self.public_high_qc = genesis_qc
        self.locked_block_id = GENESIS_ID
        self.last_voted_view = 0

    def record_vote_sent(self, block: Block) -> None:
        if block.view > self.last_voted_view:
            self.last_voted_view = block.view

    def update_qc(self, qc: QuorumCertificate) -> None:
        self.forest.record_qc(qc)
        if qc.view > self.high_qc.view:
            self.high_qc = qc
        self._update_lock(qc)

    def note_embedded_qc(self, qc: QuorumCertificate) -> None:
        if qc.view > self.public_high_qc.view:
            self.public_high_qc = qc
        self.update_qc(qc)

    def _update_lock(self, qc: QuorumCertificate) -> None:
        pass

    def embedded_qc_matches_parent(self, block: Block) -> bool:
        if block.qc is None or block.parent_id is None:
            return False
        return block.qc.block_id == block.parent_id

    def locked_view(self) -> int:
        if self.locked_block_id not in self.forest:
            return 0
        return self.forest.get(self.locked_block_id).view


class _ReferenceHighQCProposer(_Reference):
    def choose_extension(self) -> ProposalPlan:
        return ProposalPlan(parent_id=self.high_qc.block_id, qc=self.high_qc)

    def should_vote(self, block: Block) -> bool:
        if block.view <= self.last_voted_view:
            return False
        if not self.embedded_qc_matches_parent(block):
            return False
        if self.forest.extends(block, self.locked_block_id):
            return True
        justify_view = block.qc.view if block.qc is not None else 0
        return justify_view > self.locked_view()


class ReferenceHotStuff(_ReferenceHighQCProposer):
    def _update_lock(self, qc: QuorumCertificate) -> None:
        vertex = self.forest.maybe_get(qc.block_id)
        if vertex is None:
            return
        parent = self.forest.maybe_get(vertex.block.parent_id)
        if parent is None or not parent.certified:
            return
        if parent.view > self.locked_view():
            self.locked_block_id = parent.block_id

    def commit_candidate(self, block_id: str) -> Optional[str]:
        tail = self.forest.maybe_get(block_id)
        if tail is None or not tail.certified:
            return None
        middle = self.forest.maybe_get(tail.block.parent_id)
        if middle is None or not middle.certified:
            return None
        head = self.forest.maybe_get(middle.block.parent_id)
        if head is None or not head.certified:
            return None
        if middle.view != tail.view - 1 or head.view != middle.view - 1:
            return None
        if head.committed:
            return None
        return head.block_id


class ReferenceTwoChain(_ReferenceHighQCProposer):
    def _update_lock(self, qc: QuorumCertificate) -> None:
        vertex = self.forest.maybe_get(qc.block_id)
        if vertex is None:
            return
        if vertex.view > self.locked_view():
            self.locked_block_id = vertex.block_id

    def commit_candidate(self, block_id: str) -> Optional[str]:
        tail = self.forest.maybe_get(block_id)
        if tail is None or not tail.certified:
            return None
        head = self.forest.maybe_get(tail.block.parent_id)
        if head is None or not head.certified:
            return None
        if head.view != tail.view - 1:
            return None
        if head.committed:
            return None
        return head.block_id


# LBFT's four bodies were two-chain HotStuff's, character for character.
ReferenceLeaderBroadcast = ReferenceTwoChain


class ReferenceFastHotStuff(ReferenceTwoChain):
    def should_vote(self, block: Block) -> bool:
        if block.view <= self.last_voted_view:
            return False
        if not self.embedded_qc_matches_parent(block):
            return False
        if self.forest.extends(block, self.locked_block_id):
            return True
        justify_view = block.qc.view if block.qc is not None else 0
        return justify_view >= self.locked_view()


class ReferenceStreamletCommit(_Reference):
    """Streamlet's own commit rule (no lock, so no ``_update_lock``)."""

    def commit_candidate(self, block_id: str) -> Optional[str]:
        tail = self.forest.maybe_get(block_id)
        if tail is None or not tail.certified:
            return None
        middle = self.forest.maybe_get(tail.block.parent_id)
        if middle is None or not middle.certified:
            return None
        head = self.forest.maybe_get(middle.block.parent_id)
        if head is None or not head.certified:
            return None
        if middle.view != tail.view - 1 or head.view != middle.view - 1:
            return None
        if middle.committed:
            return None
        return middle.block_id


FAMILY = [
    (HotStuffSafety, ReferenceHotStuff),
    (TwoChainHotStuffSafety, ReferenceTwoChain),
    (FastHotStuffSafety, ReferenceFastHotStuff),
    (LeaderBroadcastSafety, ReferenceLeaderBroadcast),
]


# ----------------------------------------------------------------------
# Random certified forests and QC arrival orders.
# ----------------------------------------------------------------------
SIGNERS = frozenset({"r0", "r1", "r2"})


def qc_for(block: Block) -> QuorumCertificate:
    return QuorumCertificate(block_id=block.block_id, view=block.view, signers=SIGNERS)


# (parent choice, view gap): view gaps > 1 break consecutive-view chains, and
# siblings fork the tree, sometimes at the same view.
tree_strategy = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(1, 3)), min_size=1, max_size=12
)
# (kind, block choice, extra): what arrives next at every replica.
op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["qc", "embedded", "phantom", "voted", "committed"]),
        st.integers(0, 1000),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=25,
)


def build_forest(tree):
    forest = BlockForest()
    blocks = [forest.genesis]
    for parent_choice, gap in tree:
        parent = blocks[parent_choice % len(blocks)]
        block = make_block(parent.view + gap, parent, qc_for(parent), "r0", ())
        forest.add_block(block)
        blocks.append(block)
    return forest, blocks


def proposals(blocks):
    """Candidate proposals: on every block, plus off a block never received."""
    ghost = make_block(blocks[-1].view + 1, blocks[-1], qc_for(blocks[-1]), "r9", ())
    top = max(block.view for block in blocks) + 2
    candidates = [make_block(top + 1, ghost, qc_for(ghost), "r1", ())]
    for index, parent in enumerate(blocks + [ghost]):
        other = blocks[(index * 7 + 3) % len(blocks)]
        candidates.append(make_block(parent.view + 1, parent, qc_for(parent), "r1", ()))
        candidates.append(make_block(top, parent, qc_for(parent), "r2", ()))
        candidates.append(make_block(top, parent, qc_for(other), "r3", ()))
        candidates.append(make_block(top, parent, None, "r3", ()))
    return candidates


def apply(safety, kind, block, extra):
    if kind == "qc":
        safety.update_qc(qc_for(block))
    elif kind == "embedded":
        safety.note_embedded_qc(qc_for(block))
    elif kind == "phantom":
        # A certificate for a block this replica never received.
        safety.update_qc(
            QuorumCertificate(block_id=f"missing-{extra}", view=block.view + extra, signers=SIGNERS)
        )
    elif kind == "voted":
        safety.record_vote_sent(block)


def state(safety):
    return (safety.high_qc, safety.public_high_qc, safety.locked_block_id, safety.last_voted_view)


class TestSameRules:
    @given(tree=tree_strategy, ops=op_strategy)
    @settings(max_examples=80, deadline=None)
    def test_declarations_answer_as_the_bodies_they_replaced(self, tree, ops):
        forest, blocks = build_forest(tree)
        candidates = proposals(blocks)
        ids = [block.block_id for block in blocks] + ["missing-0"]
        pairs = [(new(forest), ref(forest)) for new, ref in FAMILY]
        pairs.append((StreamletSafety(forest), ReferenceStreamletCommit(forest)))
        for kind, choice, extra in ops:
            block = blocks[choice % len(blocks)]
            if kind == "committed":
                forest.get(block.block_id).committed = True
            for new, ref in pairs:
                apply(new, kind, block, extra)
                apply(ref, kind, block, extra)
                assert state(new) == state(ref), type(new).__name__
                assert [new.commit_candidate(i) for i in ids] == [
                    ref.commit_candidate(i) for i in ids
                ], type(new).__name__
            for new, ref in pairs[:-1]:
                assert new.choose_extension() == ref.choose_extension()
                assert [new.should_vote(b) for b in candidates] == [
                    ref.should_vote(b) for b in candidates
                ], type(new).__name__


class TestTraits:
    def test_the_family_modules_declare_and_define_nothing(self):
        for name in ("hotstuff", "twochain", "fasthotstuff", "lbft"):
            tree = ast.parse((SRC / "protocols" / f"{name}.py").read_text())
            assert not [
                node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ], name

    @pytest.mark.parametrize(
        "protocol,lock_depth,commit_lag",
        [("hotstuff", 2, 2), ("2chainhs", 1, 1), ("streamlet", 0, 1),
         ("fasthotstuff", 1, 1), ("lbft", 1, 1)],
    )
    def test_lock_depth_and_commit_lag(self, protocol, lock_depth, commit_lag):
        cls = PROTOCOLS.get(protocol)
        # lock_depth is also how deep the forking attack can fork.
        assert cls.lock_depth == lock_depth
        assert cls.commit_lag() == commit_lag

    def test_no_protocol_is_named_outside_protocols(self):
        names = set()
        for name in available_protocols():
            names.add(normalize_name(name))
            names.update(PROTOCOLS.aliases(name))
        paths = sorted((SRC / "model").rglob("*.py")) + sorted((SRC / "fuzz").rglob("*.py"))
        paths.append(SRC / "core" / "byzantine.py")
        found = []
        for path in paths:
            tree = ast.parse(path.read_text())
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
            }
            found += [
                f"{path.name}:{node.lineno} {node.value!r}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and normalize_name(node.value) in names
            ]
        assert found == []


class TestOneDeclarationIsEnough:
    """A four-chain HotStuff declared in four lines gets a run, a model
    curve and fuzz coverage with no other edit."""

    def test_four_chain_declaration(self):
        @api.register_protocol("test-4chainhs")
        class FourChainSafety(HotStuffSafety):
            protocol_name = "test-4chainhs"
            commit_rule_depth = 4

        try:
            result = api.run(
                {"protocol": "test-4chainhs", "block_size": 20, "runtime": 0.4,
                 "warmup": 0.1, "cooldown": 0.1, "concurrency": 5,
                 "num_clients": 1, "cost_profile": "fast", "view_timeout": 0.05}
            )
            assert result.consistent
            assert result.metrics.committed_blocks > 0
            model = AnalyticalModel("test-4chainhs", ModelParameters())
            assert model.commit_time() == 3 * model.service_time()
            cases = generate_cases(seed=0, budget=len(available_protocols()))
            assert "test-4chainhs" in {case.config.protocol for case in cases}
        finally:
            PROTOCOLS.unregister("test-4chainhs")
