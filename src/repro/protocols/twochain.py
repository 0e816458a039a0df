"""Two-chain HotStuff (2CHS, paper §II-C).

Identical to HotStuff except that the lock is placed on the head of the
highest *one-chain* (the block certified by ``hQC``) and the commit rule
requires only a two-chain.  Saving one round of voting lowers latency but
costs optimistic responsiveness: after a view change a correct leader must
wait for the maximal network delay to be sure it has heard of the highest
lock, otherwise honest replicas may refuse to vote (this is exactly the
behaviour the responsiveness experiment of §VI-D exposes).

Catch-up (:mod:`repro.sync`) replays fetched certificates through
``update_qc``, so the one-chain lock lands on the recovered chain's tip and
a recovered replica's voting rule immediately accepts live proposals.
"""

from repro.protocols.registry import register_protocol
from repro.protocols.safety import Safety


@register_protocol("2chainhs", "2chs", "twochain")
class TwoChainHotStuffSafety(Safety):
    """Two-phase (two-chain) variant of HotStuff."""

    protocol_name = "2chainhs"
    votes_broadcast = False
    echo_messages = False
    responsive = False
    commit_rule_depth = 2
    lock_depth = 1
