"""Wire-size accounting used by the NIC/bandwidth model.

The paper's t_NIC term is ``2 · m / b`` where ``m`` is the serialized block
size and ``b`` the machine bandwidth.  The simulation therefore needs a
consistent estimate of message sizes.  The constants approximate the secp256k1
signature, SHA-256 hash, and header sizes of the Go implementation; they only
need to be *relatively* correct (payload scaling, vote vs. block ratio) for
the evaluation shapes to hold.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SizeModel:
    """Byte-size estimates for every message kind."""

    hash_size: int = 32
    signature_size: int = 65
    view_number_size: int = 8
    tx_header_size: int = 24
    block_header_size: int = 96
    client_request_overhead: int = 64
    client_reply_size: int = 96
    timeout_message_size: int = 120

    def __post_init__(self) -> None:
        # Per-kind constants are consulted on every simulated send, so the
        # fixed ones are folded once and qc_size is memoized per signer count
        # (a run only ever sees a handful of distinct quorum sizes).
        self._vote_size = self.hash_size + self.view_number_size + self.signature_size
        self._qc_header = self.hash_size + self.view_number_size
        self._qc_sizes: dict = {}

    def transaction_size(self, payload_size: int) -> int:
        """Serialized size of one transaction with ``payload_size`` extra bytes."""
        return self.tx_header_size + payload_size

    def qc_size(self, num_signers: int) -> int:
        """Serialized size of a quorum certificate with ``num_signers`` votes."""
        size = self._qc_sizes.get(num_signers)
        if size is None:
            size = self._qc_sizes[num_signers] = (
                self._qc_header + num_signers * self.signature_size
            )
        return size

    def block_size(self, num_transactions: int, payload_size: int, qc_signers: int) -> int:
        """Serialized size of a proposal carrying a block and its embedded QC."""
        return (
            self.block_header_size
            + self.qc_size(qc_signers)
            + num_transactions * self.transaction_size(payload_size)
        )

    def block_size_for(self, transactions, qc_signers: int) -> int:
        """Serialized size of a proposal for a concrete transaction batch."""
        return (
            self.block_header_size
            + self.qc_size(qc_signers)
            + sum(self.transaction_size(tx.payload_size) for tx in transactions)
        )

    def proposal_size(self, block, qc_signers: int) -> int:
        """Serialized size of a proposal carrying ``block`` (cached payload).

        Equivalent to ``block_size_for(block.transactions, qc_signers)`` but
        uses the block's cached payload total instead of re-summing the
        batch on every send.
        """
        return (
            self.block_header_size
            + self.qc_size(qc_signers)
            + block.num_transactions * self.tx_header_size
            + block.payload_bytes
        )

    def vote_size(self) -> int:
        """Serialized size of a vote message."""
        return self._vote_size

    def client_request_size(self, payload_size: int) -> int:
        """Serialized size of a client request."""
        return self.client_request_overhead + payload_size

    def block_request_size(self) -> int:
        """Serialized size of a sync BlockRequest (two hashes + a height)."""
        return 2 * self.hash_size + self.view_number_size

    def snapshot_size(self, checkpoint) -> int:
        """Serialized size of a checkpoint (block, QC, id log, KV state)."""
        state = checkpoint.state
        return (
            self.block_header_size
            + self.qc_size(len(checkpoint.qc.signers))
            + len(checkpoint.committed_ids) * self.hash_size
            + len(state.items) * self.tx_header_size
            + state.payload_bytes
            + state.dedup.entry_count * self.hash_size
        )

    def snapshot_response_size(self, checkpoint) -> int:
        """Serialized size of a SnapshotResponse carrying ``checkpoint``."""
        return self.block_header_size + self.snapshot_size(checkpoint)

    def block_response_size(self, blocks, tip_qc_signers: int = 0) -> int:
        """Serialized size of a sync BlockResponse batch.

        Each block travels with its embedded certificate (as in a proposal);
        the tip's own certificate rides along so the requester can certify
        the newest block without waiting for a later proposal.
        """
        return (
            self.block_header_size
            + self.qc_size(tip_qc_signers)
            + sum(
                self.proposal_size(
                    block,
                    len(block.qc.signers) if block.qc is not None else 0,
                )
                for block in blocks
            )
        )
