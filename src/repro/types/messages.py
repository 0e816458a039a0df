"""Wire messages exchanged between replicas and clients.

Every message carries ``sender`` (a node or client id) and ``size_bytes``
(used by the network's NIC model).  Replica-to-replica messages additionally
carry the view they pertain to so handlers can discard stale traffic.

Messages are slotted dataclasses: a kind's field list is written once, in
its class, and everything that needs it reads it from there — the generated
``__init__`` / ``__eq__`` / ``__hash__``, and the wire codec
(:mod:`repro.transport.codec`), which derives a kind's JSON form from the
declared types.  Tens of thousands of messages are created per simulated
second and instances stay cheap: ``slots=True`` means no per-instance
``__dict__``, and the generated ``__init__`` is the run of slot assignments
one would write by hand.  Nothing mutates a message once it is built, which
is what makes ``unsafe_hash=True`` safe here.

A message is its fields and nothing else: a kind's own fields follow
``sender, size_bytes`` positionally, as in ``ClientReply(sender, size, txid,
committed_at, replica, status)``.  The per-transaction sites (the client's
request, a replica's reply, the wire decoder) build their messages that way,
because a keyword call costs CPython about twice the positional one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types.block import Block
from repro.types.certificates import Timeout, Vote
from repro.types.transaction import Transaction


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """Base class for all wire messages."""

    sender: str
    size_bytes: int


@dataclass(slots=True, unsafe_hash=True)
class ProposalMessage(Message):
    """A leader's block proposal for a view.

    ``forwarded_by`` is set when the message is an echo (Streamlet echoes all
    messages it receives); echoes are not re-echoed.
    """

    block: Block = None  # type: ignore[assignment]
    view: int = 0
    forwarded_by: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Proposal(view={self.view}, block={self.block.block_id[:10]}, from={self.sender})"


@dataclass(slots=True, unsafe_hash=True)
class VoteMessage(Message):
    """A replica's vote, sent to the next leader (or broadcast in Streamlet)."""

    vote: Vote = None  # type: ignore[assignment]
    forwarded_by: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VoteMsg(view={self.vote.view}, block={self.vote.block_id[:10]}, from={self.sender})"


@dataclass(slots=True, unsafe_hash=True)
class TimeoutMessage(Message):
    """A pacemaker TIMEOUT broadcast announcing the sender's local timeout."""

    timeout: Timeout = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeoutMsg(view={self.timeout.view}, from={self.sender})"


@dataclass(slots=True, unsafe_hash=True)
class ClientRequest(Message):
    """A client transaction submitted to a replica."""

    transaction: Transaction = None  # type: ignore[assignment]


@dataclass(slots=True, unsafe_hash=True)
class ClientReply(Message):
    """A replica's response to a client request.

    ``status`` is "committed" for a successful commit and "rejected" when the
    replica's mempool was full and the request was dropped (backpressure);
    clients only measure latency for committed replies.
    """

    txid: str = ""
    committed_at: float = 0.0
    replica: str = ""
    status: str = "committed"
