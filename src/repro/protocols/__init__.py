"""Chained-BFT protocol implementations.

:class:`~repro.protocols.safety.Safety` implements the four rules of the paper
(§II-A) — Proposing, Voting, State Updating, and Commit — once, parametrised
by the traits the protocols actually differ in (lock depth, commit depth, the
justify comparator, vote broadcast, echoing, responsiveness).  HotStuff,
two-chain HotStuff, Fast-HotStuff and LBFT are declarations of those traits;
Streamlet overrides its proposing and voting rules.  Everything else (block
forest, pacemaker, quorum, network, mempool, execution) is shared, which is
what makes the comparison between protocols apples-to-apples.

Protocols are an extension point: each built-in module registers its class
with :func:`~repro.protocols.registry.register_protocol`, and third-party
protocols do the same (see ``README.md`` for a worked example).  The import
order below fixes the listing order of ``PROTOCOLS.available()``.
"""

# Imported in the paper's presentation order so that the registry lists
# hotstuff, 2chainhs, streamlet, fasthotstuff, lbft.
from repro.protocols.hotstuff import HotStuffSafety
from repro.protocols.twochain import TwoChainHotStuffSafety
from repro.protocols.streamlet import StreamletSafety
from repro.protocols.fasthotstuff import FastHotStuffSafety
from repro.protocols.lbft import LeaderBroadcastSafety
from repro.protocols.registry import (
    PROTOCOLS,
    make_safety,
    register_protocol,
)
from repro.protocols.safety import ProposalPlan, Safety

__all__ = [
    "FastHotStuffSafety",
    "HotStuffSafety",
    "LeaderBroadcastSafety",
    "PROTOCOLS",
    "ProposalPlan",
    "Safety",
    "StreamletSafety",
    "TwoChainHotStuffSafety",
    "make_safety",
    "register_protocol",
]
