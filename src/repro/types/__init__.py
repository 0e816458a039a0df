"""Core data types shared by every chained-BFT protocol in the framework.

The types mirror the entities described in §II of the paper: transactions,
blocks chained by parent hashes, quorum certificates (QCs) that certify
blocks, timeout certificates (TCs) used by the pacemaker, and the wire
messages exchanged between replicas and clients.  :mod:`repro.types.sizes`
estimates their wire sizes for the NIC model.
"""

from repro.types.block import Block, GENESIS_VIEW, make_genesis
from repro.types.certificates import QuorumCertificate, TimeoutCertificate, Timeout, Vote
from repro.types.messages import (
    ClientReply,
    ClientRequest,
    Message,
    ProposalMessage,
    TimeoutMessage,
    VoteMessage,
)
from repro.types.transaction import Transaction

__all__ = [
    "Block",
    "ClientReply",
    "ClientRequest",
    "GENESIS_VIEW",
    "Message",
    "ProposalMessage",
    "QuorumCertificate",
    "Timeout",
    "TimeoutCertificate",
    "TimeoutMessage",
    "Transaction",
    "Vote",
    "VoteMessage",
    "make_genesis",
]
