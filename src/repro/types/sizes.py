"""Wire-size accounting used by the NIC/bandwidth model.

The paper's t_NIC term is ``2 · m / b`` where ``m`` is the serialized block
size and ``b`` the machine bandwidth.  The simulation therefore needs a
consistent estimate of message sizes.  The constants approximate the secp256k1
signature, SHA-256 hash, and header sizes of the Go implementation; they only
need to be *relatively* correct (payload scaling, vote vs. block ratio) for
the evaluation shapes to hold.  One set of sizes serves every run: the
replicas, the clients and the analytical model all read these.
"""

from __future__ import annotations

HASH_SIZE = 32
SIGNATURE_SIZE = 65
VIEW_NUMBER_SIZE = 8
TX_HEADER_SIZE = 24
BLOCK_HEADER_SIZE = 96
CLIENT_REQUEST_OVERHEAD = 64
#: A client reply less its sequences, and one sequence number: a reply
#: answering one transaction is 96 bytes, and each further one adds 8.
CLIENT_REPLY_OVERHEAD = 88
SEQUENCE_SIZE = 8
TIMEOUT_MESSAGE_SIZE = 120
#: A vote: the block hash, its view and one signature.
VOTE_SIZE = HASH_SIZE + VIEW_NUMBER_SIZE + SIGNATURE_SIZE
#: A sync BlockRequest: two hashes and a height.
BLOCK_REQUEST_SIZE = 2 * HASH_SIZE + VIEW_NUMBER_SIZE

_QC_HEADER = HASH_SIZE + VIEW_NUMBER_SIZE


def transaction_size(payload_size: int) -> int:
    """Serialized size of one transaction with ``payload_size`` extra bytes."""
    return TX_HEADER_SIZE + payload_size


def qc_size(num_signers: int) -> int:
    """Serialized size of a quorum certificate with ``num_signers`` votes."""
    return _QC_HEADER + num_signers * SIGNATURE_SIZE


def block_size(num_transactions: int, payload_size: int, qc_signers: int) -> int:
    """Serialized size of a proposal carrying a block of ``num_transactions``
    transactions of ``payload_size`` extra bytes each, and its embedded QC."""
    return (
        BLOCK_HEADER_SIZE
        + qc_size(qc_signers)
        + num_transactions * transaction_size(payload_size)
    )


def proposal_size(block, qc_signers: int) -> int:
    """Serialized size of a proposal carrying ``block`` (its cached payload
    total, not a re-sum of the batch on every send)."""
    return (
        BLOCK_HEADER_SIZE
        + _QC_HEADER + qc_signers * SIGNATURE_SIZE
        + block.num_transactions * TX_HEADER_SIZE
        + block.payload_bytes
    )


def client_request_size(payload_size: int) -> int:
    """Serialized size of a client request."""
    return CLIENT_REQUEST_OVERHEAD + payload_size


def client_reply_size(num_sequences: int) -> int:
    """Serialized size of a client reply naming ``num_sequences`` transactions."""
    return CLIENT_REPLY_OVERHEAD + num_sequences * SEQUENCE_SIZE


def snapshot_size(checkpoint) -> int:
    """Serialized size of a checkpoint (block, QC, id log, KV state)."""
    state = checkpoint.state
    return (
        BLOCK_HEADER_SIZE
        + qc_size(len(checkpoint.qc.signers))
        + len(checkpoint.committed_ids) * HASH_SIZE
        + len(state.items) * TX_HEADER_SIZE
        + state.payload_bytes
        + state.dedup.entry_count * HASH_SIZE
    )


def snapshot_response_size(checkpoint) -> int:
    """Serialized size of a SnapshotResponse carrying ``checkpoint``."""
    return BLOCK_HEADER_SIZE + snapshot_size(checkpoint)


def block_response_size(blocks, tip_qc_signers: int = 0) -> int:
    """Serialized size of a sync BlockResponse batch.

    Each block travels with its embedded certificate (as in a proposal);
    the tip's own certificate rides along so the requester can certify
    the newest block without waiting for a later proposal.
    """
    return (
        BLOCK_HEADER_SIZE
        + qc_size(tip_qc_signers)
        + sum(
            proposal_size(block, len(block.qc.signers) if block.qc is not None else 0)
            for block in blocks
        )
    )
