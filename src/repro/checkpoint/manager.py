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
* **Serving** — a :class:`~repro.checkpoint.messages.SnapshotRequest` is
  answered with a checkpoint of the responder's committed prefix when the
  requester's anchor lies below the truncation watermark (the blocks that
  would connect it no longer exist — the snapshot *is* the answer), and
  with an explicit ``checkpoint=None`` negative otherwise, so a requester
  within block-serving range falls back to the cheaper block fetch without
  burning retry rounds.  The sync manager likewise calls
  :meth:`offer_snapshot` for a ``BlockRequest`` anchored below the
  watermark.
* **Installing** — a received checkpoint is validated (structural
  consistency plus a quorum of valid signatures on its certificate, reusing
  the sync manager's QC check) and installed: the forest resets to the
  checkpoint block as its committed root, the executor state is restored,
  and the certificate flows through the ordinary state-updating rule so the
  protocol's hQC/lock and the pacemaker's view catch up.  Ordinary block
  fetching (:mod:`repro.sync`) then covers the remaining gap above the
  checkpoint — strictly fewer blocks than walking the whole chain.
* **Recovery** — :meth:`on_recover` runs before the sync manager's catch-up:
  snapshot rounds are retried on the sync cadence until a checkpoint
  installs or a negative arrives, after which block fetching takes over.

Both message kinds register their handlers with the replica's dispatch
registry (:mod:`repro.core.dispatch`), so snapshot transfer is wired in as a
plugin exactly like the block-fetch protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from repro.checkpoint.messages import SnapshotRequest, SnapshotResponse
from repro.checkpoint.snapshot import Checkpoint
from repro.forest.forest import ForestError
from repro.obs import trace as obs_trace
from repro.types.messages import Message


@dataclass
class CheckpointSettings:
    """Knobs of the checkpoint policy (per replica)."""

    #: Take a checkpoint every this many committed blocks; 0 disables
    #: checkpointing (and therefore truncation) entirely.
    interval: int = 0
    #: Whether snapshots are served to and installed from peers during sync;
    #: with it off, checkpoints still bound local memory but far-behind
    #: replicas are limited to block fetching (which truncated peers may no
    #: longer be able to serve below their watermark).
    snapshot_sync: bool = True


@dataclass
class CheckpointStats:
    """Counters describing one replica's checkpoint activity."""

    checkpoints_taken: int = 0
    snapshots_installed: int = 0
    snapshots_served: int = 0
    snapshot_requests_sent: int = 0
    snapshot_requests_received: int = 0
    snapshot_responses_received: int = 0
    snapshot_bytes_sent: int = 0
    snapshot_bytes_fetched: int = 0
    blocks_truncated: int = 0
    invalid_snapshots: int = 0
    stale_snapshots: int = 0
    #: Largest number of blocks the forest held at any commit, which is what
    #: the bounded-memory acceptance checks (O(interval), not O(run)).
    peak_forest_blocks: int = 0


class CheckpointManager:
    """Owns checkpointing, truncation, and snapshot transfer for one replica."""

    def __init__(self, replica, settings: Optional[CheckpointSettings] = None) -> None:
        self.replica = replica
        self.settings = settings if settings is not None else CheckpointSettings()
        self.stats = CheckpointStats()

        self._catchup_pending = False
        self._catchup_rounds = 0

    @property
    def enabled(self) -> bool:
        """True when a positive checkpoint interval is configured."""
        return self.settings.interval > 0

    @property
    def snapshot_sync_enabled(self) -> bool:
        """True when this replica serves/installs snapshots during sync."""
        return (
            self.enabled
            and self.settings.snapshot_sync
            and self.replica.sync.settings.enabled
        )

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
        if not self.enabled:
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
        if height - forest.base_height < self.settings.interval:
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
    # recovery catch-up (snapshot first, then blocks)
    # ------------------------------------------------------------------
    def on_recover(self) -> bool:
        """Start a snapshot catch-up; True if block fetching is deferred.

        When snapshot sync is off this is a no-op returning False and the
        replica falls straight through to the sync manager's block catch-up,
        preserving the pre-checkpoint recovery path exactly.
        """
        if not self.snapshot_sync_enabled:
            return False
        self._catchup_pending = True
        self._catchup_rounds = 0
        self._catchup_tick()
        return True

    def _catchup_tick(self) -> None:
        if not self._catchup_pending or self.replica._crashed:
            return
        sync = self.replica.sync
        if self._catchup_rounds >= sync.settings.max_rounds_per_target:
            # No peer answered with anything; fall back to block fetching.
            self._finish_catchup()
            return
        self._catchup_rounds += 1
        self._send_request()
        self.replica.scheduler.post_after(sync.request_delay(), self._catchup_tick)

    def _finish_catchup(self) -> None:
        """Hand the rest of the gap to the ordinary block-fetch catch-up."""
        if not self._catchup_pending:
            return
        self._catchup_pending = False
        self.replica.sync.on_recover()

    def _send_request(self) -> None:
        replica = self.replica
        peers = replica.sync._pick_peers()
        if not peers:
            return
        request = SnapshotRequest(
            sender=replica.node_id,
            size_bytes=replica.size_model.snapshot_request_size(),
            known_height=replica.forest.committed_height,
        )
        self.stats.snapshot_requests_sent += len(peers)
        for peer in peers:
            replica.network.send(replica.node_id, peer, request)

    # ------------------------------------------------------------------
    # serving snapshots (responder side)
    # ------------------------------------------------------------------
    def handle_request(self, message: SnapshotRequest) -> None:
        self.stats.snapshot_requests_received += 1
        self._respond(message.sender, message.known_height)

    def offer_snapshot(self, peer: str, known_height: int) -> bool:
        """Answer an unservable BlockRequest with a snapshot (sync delegate).

        Returns True if a checkpoint above ``known_height`` was offered;
        False when snapshot sync is off or nothing useful is held (the sync
        responder then stays silent, as for any unservable request).
        """
        checkpoint = self._usable_checkpoint(known_height)
        if checkpoint is None:
            return False
        self._send_response(peer, checkpoint)
        return True

    def _usable_checkpoint(self, known_height: int) -> Optional[Checkpoint]:
        """A checkpoint worth shipping to a peer anchored at ``known_height``.

        Only requesters below the truncation watermark get one — anyone
        anchored inside the retained window is served blocks (cheaper, and
        exactly what the pre-checkpoint protocol did).
        """
        if not self.snapshot_sync_enabled:
            return None
        if known_height >= self.replica.forest.base_height - 1:
            return None  # connecting blocks still exist; blocks win
        checkpoint = self.current_checkpoint()
        if checkpoint is None or checkpoint.height <= known_height:
            return None
        return checkpoint

    def _respond(self, peer: str, known_height: int) -> None:
        self._send_response(peer, self._usable_checkpoint(known_height))

    def _send_response(self, peer: str, checkpoint: Optional[Checkpoint]) -> None:
        replica = self.replica
        response = SnapshotResponse(
            sender=replica.node_id,
            size_bytes=replica.size_model.snapshot_response_size(checkpoint),
            checkpoint=checkpoint,
            responder_height=replica.forest.committed_height,
        )
        # Bytes count for every response (negatives are traffic too), so
        # sent and fetched totals reconcile across the cluster; served
        # counts only actual checkpoints shipped.
        self.stats.snapshot_bytes_sent += response.size_bytes
        if checkpoint is not None:
            self.stats.snapshots_served += 1
        cost = replica.cost_model.snapshot_build_cost(
            len(checkpoint.state.items) if checkpoint is not None else 0
        )
        replica.cpu.submit(
            cost, replica.network.send, replica.node_id, peer, response
        )

    # ------------------------------------------------------------------
    # installing snapshots (requester side)
    # ------------------------------------------------------------------
    def handle_response(self, message: SnapshotResponse) -> None:
        replica = self.replica
        self.stats.snapshot_responses_received += 1
        self.stats.snapshot_bytes_fetched += message.size_bytes
        ev = replica.events
        if ev.wants & obs_trace.CHECKPOINT:
            ev.emit(
                replica.scheduler.now, replica.node_id, obs_trace.CHECKPOINT,
                "snapshot-response", replica.pacemaker.current_view,
                {"bytes": message.size_bytes, "from": message.sender},
            )
        checkpoint = message.checkpoint
        if checkpoint is None:
            # Explicit negative: no peer state ahead of us — blocks suffice.
            self._finish_catchup()
            return
        if checkpoint.height <= replica.forest.committed_height:
            # Stale or duplicate (e.g. the second fanout answer after the
            # first already installed); block fetching covers what remains.
            self.stats.stale_snapshots += 1
            self._finish_catchup()
            return
        if not checkpoint.is_consistent() or not replica.sync._qc_valid(checkpoint.qc):
            # A forged or corrupt certificate must not anchor local state;
            # the retry tick keeps asking other peers.  (The KV state itself
            # rides on the certificate's authority — blocks carry no state
            # root to check it against; see docs/ARCHITECTURE.md.)
            self.stats.invalid_snapshots += 1
            return
        self._install(checkpoint)
        self._finish_catchup()

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


# ----------------------------------------------------------------------
# dispatch wiring: the snapshot protocol's handlers and CPU costs
# ----------------------------------------------------------------------
# Imported here rather than at the top: repro.core's package init imports the
# replica, which imports this module for its settings — registering handlers
# after the classes are defined keeps that cycle harmless whichever side is
# imported first.
from repro.core.dispatch import register_message_handler  # noqa: E402


def _request_cost(replica, message: Message) -> float:
    return replica.cost_model.snapshot_request_cost()


def _response_cost(replica, message: Message) -> float:
    checkpoint = message.checkpoint
    if checkpoint is None:
        # A negative carries no certificate to verify: parse-only cost.
        return replica.cost_model.snapshot_request_cost()
    items = len(checkpoint.state.items) + len(checkpoint.committed_ids)
    return replica.cost_model.snapshot_install_cost(items)


@register_message_handler("SnapshotRequest", cost=_request_cost)
def _handle_snapshot_request(replica, message: Message) -> None:
    replica.checkpoint.handle_request(message)


@register_message_handler("SnapshotResponse", cost=_response_cost)
def _handle_snapshot_response(replica, message: Message) -> None:
    replica.checkpoint.handle_response(message)
