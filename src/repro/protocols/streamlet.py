"""Streamlet (paper §II-D), adapted to the shared pacemaker.

Streamlet's rules follow the longest-chain principle:

* Proposing: extend the tip of the longest *notarized* (certified) chain.
* Voting: vote for the first proposal of a view only if it extends the
  longest notarized chain seen so far.  Votes are **broadcast** to every
  replica rather than sent to the next leader.  The rule compares heights:
  in every reachable state each certified vertex above the forest root has
  a certified parent (a replica records a proposal's embedded QC, which
  certifies the parent, as it inserts the proposal, and honest replicas vote
  only for proposals whose QC does), so a certified vertex's notarized chain
  is its whole path to the root.  ``TestReachableStates`` in
  ``tests/test_protocols_streamlet.py`` checks this over simulated runs
  with crashes, partitions, attacks and checkpoints.
* Commit: whenever three blocks proposed in three consecutive views are all
  certified, the first two of them (and all their ancestors) are committed —
  the consecutive-certified-chain walk of
  :meth:`~repro.protocols.safety.Safety.commit_candidate`, committing the
  middle block instead of the head (``commit_lag`` 1).

Every message is echoed once by every replica, which is what gives Streamlet
its O(n^3) communication complexity and its poor scalability in the paper's
evaluation — but also its immunity to the forking attack, because honest
replicas never vote for a proposal that abandons the longest notarized chain.

The original protocol advances views with a synchronized 2Δ clock; as in the
paper, the shared pacemaker replaces that clock so the comparison with the
HotStuff variants is fair.

Streamlet is the protocol most sensitive to gaps: its voting rule compares
the proposal's parent against the longest *notarized* chain, so a replica
missing a chain segment votes for nothing at all.  Catch-up
(:mod:`repro.sync`) re-notarizes the fetched segment via the recorded
certificates, restoring the longest-chain computation — no Streamlet-specific
sync code is needed.
"""

from __future__ import annotations

from repro.protocols.registry import register_protocol
from repro.protocols.safety import ProposalPlan, Safety
from repro.types.block import Block


@register_protocol("streamlet")
class StreamletSafety(Safety):
    """Pacemaker-driven Streamlet."""

    protocol_name = "streamlet"
    votes_broadcast = True
    echo_messages = True
    responsive = False
    commit_rule_depth = 3
    # No lock: the notarized chain is the state the voting rule reads.
    lock_depth = 0

    @classmethod
    def commit_lag(cls) -> int:
        # The first two of the three consecutive certified blocks commit; the
        # middle block is the highest of those two.
        return 1

    # ------------------------------------------------------------------
    # Proposing rule
    # ------------------------------------------------------------------
    def choose_extension(self) -> ProposalPlan:
        tip = self.forest.longest_certified_tip()
        qc = tip.qc
        assert qc is not None, "a certified tip always carries its certificate"
        return ProposalPlan(parent_id=tip.block_id, qc=qc)

    # ------------------------------------------------------------------
    # Voting rule
    # ------------------------------------------------------------------
    def should_vote(self, block: Block) -> bool:
        if block.view <= self.last_voted_view:
            return False
        if not self.embedded_qc_matches_parent(block):
            return False
        parent = self.forest.maybe_get(block.parent_id)
        if parent is None or not parent.certified:
            return False
        # Heights stand in for notarized-chain lengths (see the module docstring).
        return parent.height >= self.forest.longest_certified_tip().height
