"""The checkpoint artifact: a committed-prefix snapshot of one replica.

A :class:`Checkpoint` captures everything a far-behind replica needs to skip
replaying the chain below a committed height, mirroring the committed-prefix
checkpoints of deployed LibraBFT-style systems:

* the **checkpoint block** itself (the committed main-chain block at the
  checkpoint height) and the **quorum certificate** for it, which is what
  lets a receiver trust the snapshot without replaying history;
* the **executor state** (:class:`~repro.executor.kvstore.KVSnapshot`) as of
  applying every committed transaction up to the checkpoint block;
* the **commit-log index** (main-chain block ids, genesis first) up to the
  checkpoint, which keeps cross-replica consistency hashes comparable after
  the blocks themselves are truncated away.

Checkpoints are immutable and materialized on demand, when a ``BlockRequest``
arrives anchored below the watermark (a production system would persist the
latest one to disk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.executor.kvstore import KVSnapshot
from repro.types.block import Block
from repro.types.certificates import QuorumCertificate


@dataclass(frozen=True)
class Checkpoint:
    """A committed-prefix checkpoint of one replica's state."""

    #: Main-chain height of the checkpoint block.
    height: int
    #: The committed block at ``height`` (the snapshot's trust anchor).
    block: Block
    #: Quorum certificate for ``block`` — a receiver validates this before
    #: installing; the executor state rides on the certificate's authority.
    qc: QuorumCertificate
    #: Commit-log index: main-chain block ids, genesis first, ending at
    #: ``block`` (so ``len(committed_ids) == height + 1``).
    committed_ids: Tuple[str, ...]
    #: Executor key-value state after applying the committed prefix.
    state: KVSnapshot
    #: Simulated time at which the checkpoint was taken.
    taken_at: float

    def is_consistent(self) -> bool:
        """Structural self-checks a receiver runs before trusting the QC."""
        return (
            bool(self.committed_ids)
            and self.committed_ids[-1] == self.block.block_id
            and len(self.committed_ids) == self.height + 1
            and self.block.height == self.height
            and self.qc.block_id == self.block.block_id
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Checkpoint(height={self.height}, block={self.block.block_id[:10]}, "
            f"kv_items={len(self.state.items)}, taken_at={self.taken_at:.3f})"
        )
