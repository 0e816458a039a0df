"""The per-replica checkpoint manager: periodic snapshots, log truncation,
and snapshot transfer for far-behind replicas.

One :class:`CheckpointManager` hangs off every replica (like the sync
manager) and owns the whole checkpoint lifecycle:

* **Taking** — every ``interval`` committed blocks (:meth:`on_commit`, called
  from the replica's commit path) the manager truncates the forest below the
  committed head: blocks below the watermark free their vertices and
  transactions, only the commit-log index (ids) survives, so a long run's
  forest holds O(interval) blocks instead of O(run length).  Taking a
  checkpoint schedules no events, consumes no randomness, and charges no
  CPU, so a checkpointed run's committed-throughput and latency metrics are
  bit-identical to a checkpointing-disabled run.  The snapshot artifact
  itself (:class:`~repro.checkpoint.snapshot.Checkpoint`) is *materialized
  lazily* when a peer actually asks: the executor state and the commit-log
  index are both append-only snapshots of committed history, so the state
  "as of the watermark" can be produced on demand instead of being copied on
  every interval — O(state) per snapshot transfer rather than per K commits.
* **Serving** — the sync responder delegates a ``BlockRequest`` anchored
  below the truncation watermark to :meth:`offer_snapshot`: the blocks that
  would connect the requester no longer exist, so a checkpoint of the
  responder's committed prefix *is* the answer.
* **Installing** — a received checkpoint is validated (structural
  consistency plus a quorum of valid signatures on its certificate, reusing
  the sync manager's QC check) and installed: the forest resets to the
  checkpoint block as its committed root, the executor state is restored,
  and the certificate flows through the ordinary state-updating rule so the
  protocol's hQC/lock and the pacemaker's view catch up.  The sync manager's
  pending catch-up then asks at once for the blocks above the checkpoint —
  strictly fewer than walking the whole chain.

Recovery itself is the sync manager's alone (:meth:`SyncManager.on_recover
<repro.sync.manager.SyncManager.on_recover>`): there is one request kind,
and a snapshot is one of the two answers it can get.  The replica's dispatch
table hands a ``SnapshotResponse`` to :meth:`handle_response`, as it hands
the block-fetch kinds to the sync manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.checkpoint.messages import SnapshotResponse
from repro.checkpoint.snapshot import Checkpoint
from repro.forest.forest import ForestError
from repro.obs import trace as obs_trace
from repro.types.sizes import snapshot_response_size


@dataclass
class CheckpointStats:
    """Counters describing one replica's checkpoint activity."""

    checkpoints_taken: int = 0
    snapshots_installed: int = 0
    snapshots_served: int = 0
    snapshot_bytes_sent: int = 0
    #: Bytes of every SnapshotResponse received, installed or not (stale
    #: duplicates and forgeries are traffic too).  Every response carries a
    #: checkpoint: a peer with nothing to offer sends no snapshot at all.
    snapshot_bytes_fetched: int = 0
    blocks_truncated: int = 0
    invalid_snapshots: int = 0
    stale_snapshots: int = 0
    #: Largest number of blocks the forest held at any commit, which is what
    #: the bounded-memory acceptance checks (O(interval), not O(run)).
    peak_forest_blocks: int = 0


class CheckpointManager:
    """Owns checkpointing, truncation, and snapshot transfer for one replica."""

    def __init__(self, replica) -> None:
        self.replica = replica
        #: Take a checkpoint every this many committed blocks; 0 disables
        #: checkpointing (and therefore truncation) entirely.
        self.interval = replica.config.checkpoint_interval
        self.stats = CheckpointStats()

    # ------------------------------------------------------------------
    # taking checkpoints (commit hook)
    # ------------------------------------------------------------------
    def on_commit(self) -> None:
        """Maybe take a checkpoint; called after every commit batch.

        A take is truncation plus bookkeeping — O(interval), independent of
        run length.  The shippable snapshot is materialized on demand by
        :meth:`current_checkpoint`, because the executor state and the
        commit-log index only ever *append* committed history: the state "as
        of the watermark" is recoverable from the live structures whenever a
        peer asks, without a copy per interval.
        """
        if not self.interval:
            return
        replica = self.replica
        forest = replica.forest
        ev = replica.events
        blocks = len(forest)
        if blocks > self.stats.peak_forest_blocks:
            # Checked every commit, not just on takes, so a run whose
            # interval never completes still records its true peak.
            self.stats.peak_forest_blocks = blocks
            if ev.wants & obs_trace.CHECKPOINT:
                ev.emit(
                    replica.scheduler.now, replica.node_id, obs_trace.CHECKPOINT,
                    "forest-peak", replica.pacemaker.current_view, {"blocks": blocks},
                )
        height = forest.committed_height
        if height - forest.base_height < self.interval:
            return
        if forest.last_committed().qc is None:
            # The head commit is not yet certified from this replica's view;
            # wait for a commit whose certificate a snapshot could ship.
            return
        removed = forest.truncate_below(height)
        self.stats.checkpoints_taken += 1
        self.stats.blocks_truncated += removed
        if ev.wants & obs_trace.CHECKPOINT:
            ev.emit(
                replica.scheduler.now, replica.node_id, obs_trace.CHECKPOINT,
                "checkpoint", replica.pacemaker.current_view,
                {"height": height, "truncated": removed},
            )

    def current_checkpoint(self) -> Optional[Checkpoint]:
        """Materialize a checkpoint of the committed prefix, or ``None``.

        Anchored at the newest committed block that carries a certificate
        (in every reachable state that is the committed head itself).  The
        executor snapshot reflects everything committed so far; if the
        anchor had to step back past an uncertified head, the extra applied
        transactions are harmless — installs are idempotent at the executor.
        """
        forest = self.replica.forest
        vertex = forest.last_committed()
        while vertex is not None and vertex.committed and vertex.qc is None:
            vertex = forest.maybe_get(vertex.block.parent_id)
        if vertex is None or not vertex.committed or vertex.qc is None:
            return None
        return Checkpoint(
            height=vertex.height,
            block=vertex.block,
            qc=vertex.qc,
            committed_ids=forest.committed_prefix(vertex.height),
            state=self.replica.kvstore.snapshot(),
            taken_at=self.replica.scheduler.now,
        )

    # ------------------------------------------------------------------
    # serving snapshots (sync's delegate on the responder side)
    # ------------------------------------------------------------------
    def offer_snapshot(self, peer: str, known_height: int) -> None:
        """Answer a ``BlockRequest`` anchored below the watermark with a snapshot.

        The sync responder calls this when the blocks that would connect the
        requester's anchor were truncated.  Nothing is sent when no checkpoint
        above ``known_height`` is held: the request then goes unanswered, as
        any unservable one does.
        """
        checkpoint = self.current_checkpoint()
        if checkpoint is None or checkpoint.height <= known_height:
            return
        replica = self.replica
        response = SnapshotResponse(
            sender=replica.node_id,
            size_bytes=snapshot_response_size(checkpoint),
            checkpoint=checkpoint,
        )
        self.stats.snapshots_served += 1
        self.stats.snapshot_bytes_sent += response.size_bytes
        cost = replica.cost_model.snapshot_build_cost(len(checkpoint.state.items))
        replica.cpu.submit(
            cost, replica.network.send, replica.node_id, peer, response
        )

    # ------------------------------------------------------------------
    # installing snapshots (requester side)
    # ------------------------------------------------------------------
    def handle_response(self, message: SnapshotResponse) -> None:
        replica = self.replica
        self.stats.snapshot_bytes_fetched += message.size_bytes
        ev = replica.events
        if ev.wants & obs_trace.CHECKPOINT:
            ev.emit(
                replica.scheduler.now, replica.node_id, obs_trace.CHECKPOINT,
                "snapshot-response", replica.pacemaker.current_view,
                {"bytes": message.size_bytes, "from": message.sender},
            )
        checkpoint = message.checkpoint
        if checkpoint.height <= replica.forest.committed_height:
            # Stale or duplicate (e.g. the second fanout answer after the
            # first already installed); block fetching covers what remains.
            self.stats.stale_snapshots += 1
            return
        if not checkpoint.is_consistent() or not replica.sync._qc_valid(checkpoint.qc):
            # A forged or corrupt certificate must not anchor local state;
            # the sync retry keeps asking other peers.  (The KV state itself
            # rides on the certificate's authority — blocks carry no state
            # root to check it against; see docs/ARCHITECTURE.md.)
            self.stats.invalid_snapshots += 1
            return
        self._install(checkpoint)
        # The anchor jumped to the checkpoint: ask for the blocks above it now
        # rather than a retry interval later.
        replica.sync.on_snapshot_installed()

    def _install(self, checkpoint: Checkpoint) -> None:
        """Adopt ``checkpoint`` as the new committed root."""
        replica = self.replica
        try:
            replica.forest.install_checkpoint(
                checkpoint.block, checkpoint.qc, list(checkpoint.committed_ids)
            )
        except ForestError:
            self.stats.invalid_snapshots += 1
            return
        replica.kvstore.restore(checkpoint.state)
        # The certificate flows through the ordinary state-updating rule:
        # hQC and the protocol lock re-derive from it, and the pacemaker
        # advances toward the live view.
        replica._note_synced_qc(checkpoint.qc)
        self.stats.snapshots_installed += 1
        ev = replica.events
        if ev.wants & obs_trace.CHECKPOINT:
            ev.emit(
                replica.scheduler.now, replica.node_id, obs_trace.CHECKPOINT,
                "snapshot-install", replica.pacemaker.current_view,
                {"height": checkpoint.height},
            )
        # Proposals parked on the checkpoint block are live again.
        for child in replica.forest.pop_orphans(checkpoint.block.block_id):
            if child.block_id not in replica.forest:
                replica._accept_block(child)
