"""The wire message of snapshot transfer.

The block-fetch exchange of :mod:`repro.sync` has one request kind,
:class:`~repro.sync.messages.BlockRequest`.  A responder whose checkpoint
watermark lies above the requester's anchor can no longer connect it with
blocks — they were truncated — so it answers with a
:class:`SnapshotResponse` instead (LibraBFT's state-sync analogue): one
transfer crosses the deep gap, and ordinary block fetching covers what lies
above the checkpoint.

It carries ``size_bytes`` like every other message and flows through the
same NIC / propagation / partition pipeline; a snapshot transfer is real
traffic whose cost scales with the state it carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checkpoint.snapshot import Checkpoint
from repro.types.messages import Message


@dataclass(slots=True, unsafe_hash=True)
class SnapshotResponse(Message):
    """A checkpoint answering a ``BlockRequest`` anchored below the watermark."""

    checkpoint: Checkpoint = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotResponse(height={self.checkpoint.height}, from={self.sender})"
