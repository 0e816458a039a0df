"""The Safety module (paper §III-C): the four rules, written once.

The paper's protocols share one propose-vote scheme and differ only in what
their rules compare, so :class:`Safety` implements the four rules for the
whole HotStuff family, parametrised by class attributes (traits):

* **Proposing** — :meth:`Safety.choose_extension` extends the block
  certified by the highest QC and embeds that QC.
* **Voting** — :meth:`Safety.should_vote`: once per view, for a block that
  extends the lock or is justified by a QC newer than the lock
  (``justify_may_equal_lock``: at least as new).
* **State updating** — :meth:`Safety.update_qc` keeps the highest QC and
  moves the lock ``lock_depth`` certified blocks deep.
* **Commit** — :meth:`Safety.commit_candidate` walks ``commit_rule_depth``
  certified blocks with direct parent links and consecutive views and
  commits the one ``commit_lag()`` below the newest.

A protocol is a subclass declaring those traits plus ``votes_broadcast``,
``echo_messages`` and ``responsive``; the replica, the analytical model, the
fuzz generator and the forking attack read them off the registered class,
never a protocol name.  A rule that is not a trait (Streamlet's
longest-notarized-chain vote) is overridden; the rest is reused.

None of the four rules assume gap-free delivery: a proposal whose parent is
missing never reaches the Safety module (the replica parks it and routes the
gap to the sync manager, :mod:`repro.sync`).  When fetched blocks are
inserted oldest-first, their certificates flow through the ordinary
state-updating rule — ``update_qc`` re-derives ``hQC`` and the lock from the
recovered history — so a protocol needs no sync-specific code to survive a
crash/recover or partition-heal scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.forest.forest import BlockForest
from repro.types.block import Block, GENESIS_ID
from repro.types.certificates import QuorumCertificate


@dataclass
class ProposalPlan:
    """Outcome of the proposing rule: which block to extend and the QC to embed."""

    parent_id: str
    qc: QuorumCertificate


class Safety:
    """The state variables and four rules of a chained-BFT protocol.

    The trait defaults are chained HotStuff's; ``HotStuffSafety`` inherits
    them unchanged, so this is the only place they are spelled.
    """

    #: Human-readable protocol name ("hotstuff", "2chainhs", "streamlet", ...).
    protocol_name: str = "abstract"
    #: True if votes are broadcast to every replica instead of sent to the
    #: next leader (Streamlet).
    votes_broadcast: bool = False
    #: True if replicas re-broadcast (echo) every proposal and vote they
    #: receive for the first time (Streamlet).
    echo_messages: bool = False
    #: True if the protocol is optimistically responsive (HotStuff).
    responsive: bool = True
    #: Number of chained certified blocks required by the commit rule.
    commit_rule_depth: int = 3
    #: Where a new QC moves the lock: 1 onto the block it certifies, 2 onto
    #: that block's certified parent (the head of the two-chain it
    #: completes), 0 nowhere (no lock).  Also how deep a fork honest
    #: replicas still vote for.
    lock_depth: int = 2
    #: True if a proposal justified by a QC exactly as high as the lock is
    #: acceptable (Fast-HotStuff's aggregated justification).
    justify_may_equal_lock: bool = False

    def __init__(self, forest: BlockForest) -> None:
        self.forest = forest
        genesis_vertex = forest.get(GENESIS_ID)
        assert genesis_vertex.qc is not None
        #: Highest QC known from any source (votes collected or proposals seen).
        self.high_qc: QuorumCertificate = genesis_vertex.qc
        #: Highest QC learned from a *received proposal* — i.e. a certificate
        #: that has been publicly disseminated.  Byzantine forking strategies
        #: use this to compute how far back they can fork while still
        #: satisfying honest replicas' voting rules.
        self.public_high_qc: QuorumCertificate = genesis_vertex.qc
        #: The locked block (lBlock).  Protocols that do not lock leave it at
        #: genesis.
        self.locked_block_id: str = GENESIS_ID
        #: The highest view this replica voted in (lvView).
        self.last_voted_view: int = 0

    @classmethod
    def commit_lag(cls) -> int:
        """Certifications a block waits for after its own before it commits.

        The index, newest first, of the block the commit rule commits within
        its chain — and t_commit / t_s in the §V model.
        """
        return cls.commit_rule_depth - 1

    # ------------------------------------------------------------------
    # Proposing rule
    # ------------------------------------------------------------------
    def choose_extension(self) -> ProposalPlan:
        """Pick the parent block and the certificate for a new proposal."""
        return ProposalPlan(parent_id=self.high_qc.block_id, qc=self.high_qc)

    # ------------------------------------------------------------------
    # Voting rule
    # ------------------------------------------------------------------
    def should_vote(self, block: Block) -> bool:
        """Decide whether to vote for an incoming block."""
        if block.view <= self.last_voted_view:
            return False
        if not self.embedded_qc_matches_parent(block):
            return False
        if self.forest.extends(block, self.locked_block_id):
            return True
        # embedded_qc_matches_parent has checked that block.qc is set.
        if self.justify_may_equal_lock:
            return block.qc.view >= self.locked_view()
        return block.qc.view > self.locked_view()

    def record_vote_sent(self, block: Block) -> None:
        """Update ``lvView`` right after a vote is sent (paper §II-B)."""
        if block.view > self.last_voted_view:
            self.last_voted_view = block.view

    # ------------------------------------------------------------------
    # State-updating rule
    # ------------------------------------------------------------------
    def update_qc(self, qc: QuorumCertificate) -> None:
        """Incorporate a newly learned certificate into the protocol state."""
        self.forest.record_qc(qc)
        if qc.view > self.high_qc.view:
            self.high_qc = qc
        if self.lock_depth:
            self._update_lock(qc)

    def note_embedded_qc(self, qc: QuorumCertificate) -> None:
        """Incorporate a certificate carried inside a received proposal."""
        if qc.view > self.public_high_qc.view:
            self.public_high_qc = qc
        self.update_qc(qc)

    def _update_lock(self, qc: QuorumCertificate) -> None:
        # Step ``lock_depth - 1`` certified parent links down from the block
        # the QC certifies, and lock there if that is newer than the lock.
        vertex = self.forest.maybe_get(qc.block_id)
        for _ in range(self.lock_depth - 1):
            if vertex is None:
                return
            vertex = self.forest.maybe_get(vertex.block.parent_id)
            if vertex is None or not vertex.certified:
                return
        if vertex is not None and vertex.view > self.locked_view():
            self.locked_block_id = vertex.block_id

    # ------------------------------------------------------------------
    # Commit rule
    # ------------------------------------------------------------------
    def commit_candidate(self, block_id: str) -> Optional[str]:
        """Given a block that just became certified, return a block to commit.

        Walks ``commit_rule_depth`` certified blocks down from ``block_id``,
        each the direct parent of the one before it and proposed in the view
        just before it, and returns the id of the one ``commit_lag()`` below
        ``block_id`` (the replica commits it together with all its
        uncommitted ancestors) — or ``None`` if there is no such chain yet or
        that block is already committed.
        """
        vertex = self.forest.maybe_get(block_id)
        if vertex is None or not vertex.certified:
            return None
        chain = [vertex]
        for _ in range(self.commit_rule_depth - 1):
            parent = self.forest.maybe_get(vertex.block.parent_id)
            if parent is None or not parent.certified or parent.view != vertex.view - 1:
                return None
            chain.append(parent)
            vertex = parent
        target = chain[self.commit_lag()]
        return None if target.committed else target.block_id

    # ------------------------------------------------------------------
    # shared semantic checks
    # ------------------------------------------------------------------
    def embedded_qc_matches_parent(self, block: Block) -> bool:
        """True if the proposal's embedded QC certifies the block's parent.

        All protocols in this family require the justification carried by a
        proposal to certify the block it extends; anything else is malformed
        and is not voted for.
        """
        if block.qc is None or block.parent_id is None:
            return False
        return block.qc.block_id == block.parent_id

    def locked_view(self) -> int:
        """View of the currently locked block (0 when unlocked/genesis)."""
        if self.locked_block_id not in self.forest:
            return 0
        return self.forest.get(self.locked_block_id).view
