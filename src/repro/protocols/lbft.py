"""A vote-broadcast two-chain protocol in the spirit of LBFT (paper §I, [12]).

The paper lists LBFT (leaderless BFT) among the protocols prototyped with
Bamboo but does not evaluate or specify it.  Reference [12] removes the
reliance on a single leader by letting every replica learn certificates
directly.  This module implements the closest protocol expressible within
the shared propose-vote machinery: a two-chain commit rule with **broadcast
votes**, so that every replica (not just the next leader) assembles QCs and
no single silent leader can suppress a certificate.  It is exercised by the
extension tests and the design-choice ablation bench (vote destination), not
by the headline figures.

The class name reflects what the protocol actually is — leader proposals
with broadcast votes — to avoid overstating fidelity to [12].

Broadcast votes give this protocol a second sync trigger: every replica
aggregates QCs itself, so a QC can form locally for a block that never
arrived.  The replica routes that case to the sync manager
(:mod:`repro.sync`) too (``note_missing_certified``), which fetches the
certified block and its ancestry.
"""

from repro.protocols.registry import register_protocol
from repro.protocols.safety import Safety


@register_protocol("lbft")
class LeaderBroadcastSafety(Safety):
    """Two-chain commit with broadcast votes (LBFT-inspired)."""

    protocol_name = "lbft"
    votes_broadcast = True
    echo_messages = False
    responsive = False
    commit_rule_depth = 2
    lock_depth = 1
