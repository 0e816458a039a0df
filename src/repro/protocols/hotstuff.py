"""Chained HotStuff (paper §II-B).

State variables:

* ``hQC`` — the highest quorum certificate seen.
* ``lBlock`` — the head of the highest two-chain (a certified block with a
  certified direct child).
* ``lvView`` — the last view voted in.

Rules:

* Proposing: extend the block certified by ``hQC`` and embed ``hQC``.
* Voting: vote for a block ``b*`` iff ``b*.view > lvView`` and (``b*`` extends
  ``lBlock`` or the view of ``b*``'s justification is higher than ``lBlock``'s
  view).
* Commit: a block is committed once it heads a three-chain of certified
  blocks with direct parent links and **consecutive views** — the classic
  chained-HotStuff decide rule, which is what makes B1 in the paper's Fig. 6
  wait until view 8 after a silence attack.

The rules are written once, in :class:`~repro.protocols.safety.Safety`,
whose trait defaults are HotStuff's; the class below only names them.

Catch-up (:mod:`repro.sync`) needs no HotStuff-specific handling: fetched
blocks are inserted oldest-first, each embedded QC re-runs the state-updating
rule, and the two-chain lock is re-derived as the recovered history replays —
after which the voting rule accepts live proposals again.
"""

from repro.protocols.registry import register_protocol
from repro.protocols.safety import Safety


@register_protocol("hotstuff", "hs")
class HotStuffSafety(Safety):
    """Three-chain chained HotStuff: every trait is the ``Safety`` default."""

    protocol_name = "hotstuff"
