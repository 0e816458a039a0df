"""CPU cost model for cryptographic and serialization work.

The paper's analytical model charges a constant t_CPU per crypto operation
(signing or verifying) and the experiments run secp256k1 on 8-vCPU VMs.  The
simulation charges these costs to each replica's CPU :class:`FifoServer`,
which is what creates the compute-bound saturation behaviour.

Default values are chosen to put a 4-replica, 400-transactions-per-block
deployment in the same ballpark as the paper's figures (tens of KTx/s with
millisecond-scale latencies); absolute numbers are simulator outputs, not
hardware measurements.

Every modelled charge a replica's CPU queue can receive is a field here,
the two flat dispatch charges of :mod:`repro.core.dispatch` included, so one
all-zero model (the ``measured`` profile of :mod:`repro.bench.profiles`) is
enough for a deployment to charge nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass
class CryptoCostModel:
    """Service times (seconds) charged to a replica CPU.

    Attributes
    ----------
    sign_time:
        Producing one signature (a vote, or the proposer's block signature).
    verify_time:
        Verifying one signature.
    per_transaction_time:
        Per-transaction cost of hashing/serializing a transaction when a
        block is built or validated.
    block_overhead_time:
        Fixed per-block cost (header hashing, state bookkeeping).
    qc_aggregate_time:
        Assembling a quorum certificate from collected votes.
    qc_verify_time:
        Verifying an aggregated quorum certificate carried inside a block.
    client_request_time:
        Admitting one client request to the mempool.
    loopback_time:
        Handling the replica's own copy of a message it sent, or a message
        kind registered without a cost of its own.

    The last two are flat dispatch charges, not crypto work: :meth:`scaled`
    carries them over as they are.
    """

    sign_time: float = 25e-6
    verify_time: float = 50e-6
    per_transaction_time: float = 0.4e-6
    block_overhead_time: float = 20e-6
    qc_aggregate_time: float = 30e-6
    qc_verify_time: float = 60e-6
    client_request_time: float = 5e-6
    loopback_time: float = 1e-6

    def proposal_build_cost(self, num_transactions: int) -> float:
        """CPU time for a leader to build and sign a block proposal."""
        return (
            self.block_overhead_time
            + self.per_transaction_time * num_transactions
            + self.qc_aggregate_time
            + self.sign_time
        )

    def proposal_verify_cost(self, num_transactions: int) -> float:
        """CPU time for a replica to validate an incoming proposal."""
        return (
            self.block_overhead_time
            + self.per_transaction_time * num_transactions
            + self.qc_verify_time
            + self.verify_time
        )

    def vote_build_cost(self) -> float:
        """CPU time to produce and sign a vote."""
        return self.sign_time

    def vote_verify_cost(self) -> float:
        """CPU time to check a single incoming vote."""
        return self.verify_time

    def timeout_build_cost(self) -> float:
        """CPU time to produce a timeout message."""
        return self.sign_time

    def timeout_verify_cost(self) -> float:
        """CPU time to check an incoming timeout message."""
        return self.verify_time

    def sync_request_cost(self) -> float:
        """CPU time to parse a sync BlockRequest (no crypto, just lookups)."""
        return self.block_overhead_time

    def sync_response_build_cost(self, num_blocks: int) -> float:
        """CPU time to serialize a sync BlockResponse batch."""
        return self.block_overhead_time * max(1, num_blocks)

    def sync_response_verify_cost(self, num_blocks: int, num_transactions: int) -> float:
        """CPU time to re-validate a fetched chain: one QC check per block."""
        return (
            self.block_overhead_time
            + num_blocks * self.qc_verify_time
            + num_transactions * self.per_transaction_time
        )

    def snapshot_request_cost(self) -> float:
        """CPU time to parse a SnapshotRequest (a lookup, no crypto)."""
        return self.block_overhead_time

    def snapshot_build_cost(self, num_items: int) -> float:
        """CPU time to serialize a SnapshotResponse (state copied at take time)."""
        return self.block_overhead_time + num_items * self.per_transaction_time

    def snapshot_install_cost(self, num_items: int) -> float:
        """CPU time to validate and install a checkpoint: QC check + state load."""
        return (
            self.block_overhead_time
            + self.qc_verify_time
            + num_items * self.per_transaction_time
        )

    def scaled(self, factor: float) -> "CryptoCostModel":
        """Return a copy with every crypto/serialization cost multiplied by ``factor``.

        Used for the "original HotStuff" (OHS) baseline profile and for
        sensitivity/ablation studies.  The two flat dispatch charges keep
        their values.
        """
        return replace(
            self,
            sign_time=self.sign_time * factor,
            verify_time=self.verify_time * factor,
            per_transaction_time=self.per_transaction_time * factor,
            block_overhead_time=self.block_overhead_time * factor,
            qc_aggregate_time=self.qc_aggregate_time * factor,
            qc_verify_time=self.qc_verify_time * factor,
        )
