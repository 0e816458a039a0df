"""Fast-HotStuff: a responsive two-chain variant (paper §I, reference [7]).

Fast-HotStuff commits with a two-chain like 2CHS but stays optimistically
responsive after a view change by having the new leader justify its proposal
with an aggregated view of the highest QCs reported in the timeout
certificate.  In this framework the aggregation is modelled by the
``high_qc_view`` carried in the TC: a proposal made right after a view change
is considered justified as long as it extends the highest certificate the
leader knows, and replicas accept it when the justification is at least as
high as their lock *or* the proposal extends their lock.

The protocol is included because the paper lists it among the protocols
built with Bamboo; it is exercised by the extension tests and the ablation
benchmarks rather than by the headline figures.  Like its siblings it relies
on the shared missing-parent path: gaps are routed to the sync manager
(:mod:`repro.sync`) and the lock is re-derived from fetched certificates.
"""

from repro.protocols.registry import register_protocol
from repro.protocols.safety import Safety


@register_protocol("fasthotstuff")
class FastHotStuffSafety(Safety):
    """Two-chain commit with responsiveness-oriented voting."""

    protocol_name = "fasthotstuff"
    votes_broadcast = False
    echo_messages = False
    responsive = True
    commit_rule_depth = 2
    lock_depth = 1
    # ">=" rather than ">" is the aggregated-justification relaxation: after
    # a view change the new leader may only know a QC as high as (not higher
    # than) the lock, and its proposal is still accepted.
    justify_may_equal_lock = True
