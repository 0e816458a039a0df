"""Vertices of the block forest."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.types.block import Block
from repro.types.certificates import QuorumCertificate


@dataclass
class Vertex:
    """A block together with the bookkeeping the forest maintains for it.

    ``qc`` is the certificate *for this block* (set once a quorum of votes
    for the block has been observed), which is distinct from ``block.qc``,
    the certificate the proposer embedded for an ancestor.
    """

    block: Block
    children: Set[str] = field(default_factory=set)
    qc: Optional[QuorumCertificate] = None
    committed: bool = False

    @property
    def block_id(self) -> str:
        """Identifier of the wrapped block."""
        return self.block.block_id

    @property
    def height(self) -> int:
        """Chain height of the wrapped block."""
        return self.block.height

    @property
    def view(self) -> int:
        """View in which the wrapped block was proposed."""
        return self.block.view

    @property
    def certified(self) -> bool:
        """True once a QC for this block has been recorded."""
        return self.qc is not None
