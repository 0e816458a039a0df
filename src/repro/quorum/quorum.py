"""Vote and timeout aggregation into certificates.

This is Bamboo's quorum component (paper §III-E): ``voted()`` records a vote
and ``certified()`` asks whether a quorum has been reached.  Votes and
timeouts are aggregated by one algorithm (:class:`_Aggregator`): deduplicate
per signer, verify the signature (unless it is the replica's own message
coming back to it), certify exactly once per key at the threshold, and forget
keys below a committed view.  The two trackers differ only in their key —
``(view, block)`` for votes, ``(view, None)`` for timeouts, which sign the
view alone — and in the certificate they build.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Optional, Set, Tuple

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import verify
from repro.types.certificates import (
    QuorumCertificate,
    Timeout,
    TimeoutCertificate,
    Vote,
)


def max_faulty(num_nodes: int) -> int:
    """Maximum number of Byzantine nodes tolerated by ``num_nodes`` replicas."""
    if num_nodes < 1:
        raise ValueError(f"need at least one node, got {num_nodes}")
    return (num_nodes - 1) // 3


def quorum_size(num_nodes: int) -> int:
    """Votes required for a certificate: n - f (i.e. "over two thirds").

    For clusters of the canonical size n = 3f + 1 this equals the familiar
    2f + 1.  For other sizes, n - f is the smallest quorum whose pairwise
    intersections still contain at least one honest node, which is what the
    certificates' safety argument needs.
    """
    return num_nodes - max_faulty(num_nodes)


#: ``(view, block id)`` for a vote, ``(view, None)`` for a timeout.
Key = Tuple[int, Optional[str]]


class _Aggregator:
    """Signed messages per key, certified once at the threshold.

    Subclasses name the key (``_key``) and build the certificate
    (``_certificate``).  The threshold is the safe ``quorum_size(n) = n - f``.
    """

    def __init__(self, num_nodes: int, registry: Optional[KeyRegistry] = None) -> None:
        self.num_nodes = num_nodes
        self.threshold = quorum_size(num_nodes)
        self.registry = registry
        self._pending: Dict[Key, Dict[str, Any]] = defaultdict(dict)
        self._certified: Set[Key] = set()
        self._own: Dict[Key, Any] = {}
        self.duplicates = 0
        self.invalid = 0

    def trust(self, message: Any) -> None:
        """Note a message this replica built and signed itself.

        Both fabrics deliver a replica's copy to itself as the very object
        it sent, so that object is counted without a verification — which is
        what ``Replica.deliver`` charges for it (``loopback_time``, no
        verify cost).  It goes by identity, never by ``voter``: a decoded copy is a
        new object, and whatever name it carries is verified.
        """
        self._own[self._key(message)] = message

    def _record(self, key: Key, message: Any) -> bool:
        """Record a signed message; returns True if it was new and valid.

        Validity requires the signature to verify, to have been produced by
        the claimed signer, and to cover this message's digest — a Byzantine
        peer must not be able to replay another replica's signature under its
        own name or against a different block or view.  A :meth:`trust`-ed
        message is valid by construction.
        """
        if key in self._certified:
            # The certificate already formed; late messages can never change
            # it, so skip verification (and the digest recompute it entails).
            return False
        if message.voter in self._pending.get(key, ()):
            # Already counted for this key: nothing this copy could add, so
            # do not pay a verification to find that out.  A forged message
            # is never stored, so it cannot make a later genuine one a
            # duplicate.
            self.duplicates += 1
            return False
        if self.registry is not None and self._own.get(key) is not message:
            signature = message.signature
            if (
                signature.signer != message.voter
                or signature.digest != message.digest()
                or not verify(self.registry, signature)
            ):
                self.invalid += 1
                return False
        self._pending[key][message.voter] = message
        return True

    def add_and_certify(self, message: Any) -> Any:
        """Record a vote or timeout, then try to form its certificate."""
        key = self._key(message)
        return self._certify(key) if self._record(key, message) else None

    def _count(self, key: Key) -> int:
        return len(self._pending.get(key, ()))

    def _certify(self, key: Key) -> Any:
        """The key's certificate once the threshold is reached (only the first time)."""
        if key in self._certified:
            return None
        messages = self._pending.get(key)
        if messages is None or len(messages) < self.threshold:
            return None
        self._certified.add(key)
        # The messages are dead once the certificate forms: _record() rejects
        # late ones for certified keys, so drop them instead of letting them
        # accumulate for the rest of the run.
        del self._pending[key]
        return self._certificate(key, messages)

    def prune_below(self, view: int) -> None:
        """Drop state for views below ``view`` (they can never certify).

        Called from the replica's commit path: once a block at ``view``
        commits, every correct replica has advanced past earlier views, so
        their pending messages are dead weight.  Bounds the tracker's
        footprint by the view window in flight instead of run length.
        """
        pending = self._pending
        for key in [key for key in pending if key[0] < view]:
            del pending[key]
        self._certified = {key for key in self._certified if key[0] >= view}
        self._own = {key: message for key, message in self._own.items() if key[0] >= view}


class QuorumTracker(_Aggregator):
    """Accumulates votes per (view, block) and forms QCs at the threshold.

    ``threshold`` defaults to the safe ``quorum_size(n) = n - f``.  Passing an
    explicit value models flexible-quorum deployments (SNIPPETS snippet 1's
    ``qc_threshold``); values below 2f + 1 are deliberately *unsafe* — quorums
    stop intersecting in an honest replica — which is exactly what the fuzz
    harness's negative-control test exploits to prove its oracles can fail.
    """

    def __init__(
        self,
        num_nodes: int,
        registry: Optional[KeyRegistry] = None,
        threshold: Optional[int] = None,
    ) -> None:
        super().__init__(num_nodes, registry)
        if threshold:
            self.threshold = threshold

    @staticmethod
    def _key(vote: Vote) -> Key:
        return (vote.view, vote.block_id)

    def voted(self, vote: Vote) -> bool:
        """Record a vote; returns True if it was new and valid."""
        return self._record(self._key(vote), vote)

    def vote_count(self, view: int, block_id: str) -> int:
        """Number of distinct voters recorded for (view, block)."""
        return self._count((view, block_id))

    def certified(self, view: int, block_id: str) -> Optional[QuorumCertificate]:
        """Return a QC once the threshold is reached (only the first time)."""
        return self._certify((view, block_id))

    def _certificate(self, key: Key, votes: Dict[str, Vote]) -> QuorumCertificate:
        view, block_id = key
        return QuorumCertificate(
            block_id=block_id,
            view=view,
            signers=frozenset(votes),
            signatures=tuple(vote.signature for vote in votes.values()),
        )


class TimeoutTracker(_Aggregator):
    """Accumulates TIMEOUT messages per view and forms TCs at the threshold."""

    @staticmethod
    def _key(timeout: Timeout) -> Key:
        return (timeout.view, None)

    def record(self, timeout: Timeout) -> bool:
        """Record a timeout message; returns True if it was new and valid."""
        return self._record(self._key(timeout), timeout)

    def timeout_count(self, view: int) -> int:
        """Number of distinct replicas that timed out of ``view``."""
        return self._count((view, None))

    def certified(self, view: int) -> Optional[TimeoutCertificate]:
        """Return a TC once the threshold is reached (only the first time)."""
        return self._certify((view, None))

    def _certificate(self, key: Key, timeouts: Dict[str, Timeout]) -> TimeoutCertificate:
        return TimeoutCertificate(
            view=key[0],
            signers=frozenset(timeouts),
            signatures=tuple(t.signature for t in timeouts.values()),
            high_qc_view=max(t.high_qc_view for t in timeouts.values()),
        )
