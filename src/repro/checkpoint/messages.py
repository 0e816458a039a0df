"""Wire messages of the snapshot-transfer protocol.

Two message kinds extending the block-fetch exchange of :mod:`repro.sync`
down to state level (LibraBFT's state-sync / ``EpochRetrieval`` analogue):

* :class:`SnapshotRequest` — "if you hold a checkpoint above my committed
  height, send it".  Sent by a recovered replica before walking blocks, so a
  deep gap is crossed in one transfer instead of many block batches.
* :class:`SnapshotResponse` — either a :class:`~repro.checkpoint.snapshot.Checkpoint`
  ahead of the requester, or ``checkpoint=None`` meaning "nothing ahead of
  you" — an explicit negative that lets the requester fall back to ordinary
  block fetching immediately instead of burning retry rounds.

Both carry ``size_bytes`` like every other message and flow through the same
NIC / propagation / partition pipeline; a snapshot transfer is real traffic
whose cost scales with the state it carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.checkpoint.snapshot import Checkpoint
from repro.types.messages import Message


@dataclass(slots=True, unsafe_hash=True)
class SnapshotRequest(Message):
    """A replica's request for any checkpoint above its committed height."""

    known_height: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotRequest(known_height={self.known_height}, from={self.sender})"


@dataclass(slots=True, unsafe_hash=True)
class SnapshotResponse(Message):
    """A checkpoint answering a :class:`SnapshotRequest` (or a negative)."""

    #: ``None`` means the responder holds nothing ahead of the requester's
    #: committed height; the requester falls back to block fetching.
    checkpoint: Optional[Checkpoint] = None
    #: The responder's committed height when it answered (diagnostics).
    responder_height: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        held = f"height={self.checkpoint.height}" if self.checkpoint else "none"
        return f"SnapshotResponse({held}, from={self.sender})"
