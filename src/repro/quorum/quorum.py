"""Vote and timeout aggregation into certificates.

This is Bamboo's quorum component (paper §III-E): ``voted()`` records a vote
and ``certified()`` asks whether a quorum has been reached.  The aggregators
deduplicate per signer, verify signatures, and emit a certificate exactly
once per (view, block).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Set, Tuple

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signature, verify
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


class QuorumTracker:
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
        self.num_nodes = num_nodes
        self.threshold = threshold if threshold else quorum_size(num_nodes)
        self.registry = registry
        self._votes: Dict[Tuple[int, str], Dict[str, Signature]] = defaultdict(dict)
        self._certified: Set[Tuple[int, str]] = set()
        self.duplicate_votes = 0
        self.invalid_votes = 0

    def voted(self, vote: Vote) -> bool:
        """Record a vote; returns True if it was new and valid.

        Validity requires the signature to verify, to have been produced by
        the claimed voter, and to cover this vote's (block, view) digest — a
        Byzantine peer must not be able to replay another replica's signature
        under its own name or against a different block.
        """
        key = (vote.view, vote.block_id)
        if key in self._certified:
            # The certificate already formed; late votes can never change it,
            # so skip verification (and the digest recompute it entails) and
            # leave the certified key's vote map alone.
            return False
        if vote.voter in self._votes.get(key, ()):
            # Already counted for this key: nothing this copy could add, so
            # do not pay a verification to find that out.  A forged vote is
            # never stored, so it cannot make a later genuine one a duplicate.
            self.duplicate_votes += 1
            return False
        if self.registry is not None:
            if (
                vote.signature.signer != vote.voter
                or vote.signature.digest != vote.digest()
                or not verify(self.registry, vote.signature)
            ):
                self.invalid_votes += 1
                return False
        self._votes[key][vote.voter] = vote.signature
        return True

    def vote_count(self, view: int, block_id: str) -> int:
        """Number of distinct voters recorded for (view, block)."""
        return len(self._votes.get((view, block_id), {}))

    def certified(self, view: int, block_id: str) -> Optional[QuorumCertificate]:
        """Return a QC once the threshold is reached (only the first time)."""
        key = (view, block_id)
        if key in self._certified:
            return None
        votes = self._votes.get(key)
        if votes is None or len(votes) < self.threshold:
            return None
        self._certified.add(key)
        # The vote map is dead once the certificate forms: voted() rejects
        # late votes for certified keys, so drop it instead of letting it
        # accumulate for the rest of the run.
        del self._votes[key]
        return QuorumCertificate(
            block_id=block_id,
            view=view,
            signers=frozenset(votes),
            signatures=tuple(votes.values()),
        )

    def add_and_certify(self, vote: Vote) -> Optional[QuorumCertificate]:
        """Convenience: record a vote, then try to form a certificate."""
        if not self.voted(vote):
            # Duplicate, invalid, or late (already-certified) vote — nothing
            # to re-check, and certified() would be a no-op anyway.
            return None
        return self.certified(vote.view, vote.block_id)

    def prune_below(self, view: int) -> None:
        """Drop vote state for views below ``view`` (they can never certify).

        Called from the replica's commit path: once a block at ``view``
        commits, every correct replica has advanced past earlier views, so
        their pending vote maps are dead weight.  Bounds the tracker's
        footprint by the view window in flight instead of run length.
        """
        votes = self._votes
        stale = [key for key in votes if key[0] < view]
        for key in stale:
            del votes[key]
        certified = self._certified
        stale_certified = [key for key in certified if key[0] < view]
        for key in stale_certified:
            certified.discard(key)


class TimeoutTracker:
    """Accumulates TIMEOUT messages per view and forms TCs at the threshold."""

    def __init__(self, num_nodes: int, registry: Optional[KeyRegistry] = None) -> None:
        self.num_nodes = num_nodes
        self.threshold = quorum_size(num_nodes)
        self.registry = registry
        self._timeouts: Dict[int, Dict[str, Timeout]] = defaultdict(dict)
        self._certified: Set[int] = set()
        self.invalid_timeouts = 0

    def record(self, timeout: Timeout) -> bool:
        """Record a timeout message; returns True if it was new and valid."""
        if timeout.view in self._certified:
            # The TC already formed; late timeouts cannot change it.
            return False
        if timeout.voter in self._timeouts.get(timeout.view, ()):
            return False
        if self.registry is not None:
            if (
                timeout.signature.signer != timeout.voter
                or timeout.signature.digest != timeout.digest()
                or not verify(self.registry, timeout.signature)
            ):
                self.invalid_timeouts += 1
                return False
        self._timeouts[timeout.view][timeout.voter] = timeout
        return True

    def timeout_count(self, view: int) -> int:
        """Number of distinct replicas that timed out of ``view``."""
        return len(self._timeouts.get(view, {}))

    def certified(self, view: int) -> Optional[TimeoutCertificate]:
        """Return a TC once the threshold is reached (only the first time)."""
        if view in self._certified:
            return None
        timeouts = self._timeouts.get(view)
        if timeouts is None or len(timeouts) < self.threshold:
            return None
        self._certified.add(view)
        # Dead once the TC forms (record() rejects late timeouts for it).
        del self._timeouts[view]
        return TimeoutCertificate(
            view=view,
            signers=frozenset(timeouts),
            signatures=tuple(t.signature for t in timeouts.values()),
            high_qc_view=max(t.high_qc_view for t in timeouts.values()),
        )

    def add_and_certify(self, timeout: Timeout) -> Optional[TimeoutCertificate]:
        """Convenience: record a timeout, then try to form a certificate."""
        if not self.record(timeout):
            return None
        return self.certified(timeout.view)

    def prune_below(self, view: int) -> None:
        """Drop timeout state for views below ``view`` (they can never certify)."""
        timeouts = self._timeouts
        stale = [v for v in timeouts if v < view]
        for v in stale:
            del timeouts[v]
        certified = self._certified
        stale_certified = [v for v in certified if v < view]
        for v in stale_certified:
            certified.discard(v)
