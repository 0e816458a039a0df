"""The per-replica sync manager: parking orphans, fetching missing chains.

One :class:`SyncManager` hangs off every replica and owns the whole
block-fetch lifecycle:

* **Detection** — the replica routes every missing-parent proposal and every
  certificate for an unknown block here instead of dropping or parking them
  forever.  Orphan proposals go into the forest's bounded orphan buffer; a
  fetch for the missing ancestor is scheduled after a grace delay (one view
  timeout) so ordinary in-flight reordering resolves itself without
  generating traffic.
* **Fetching** — a fetch round sends a :class:`~repro.sync.messages.BlockRequest`
  to ``FANOUT`` peers chosen round-robin, advertising the replica's highest
  certified block as the anchor.  Rounds for the same target are debounced,
  capped (``MAX_ROUNDS_PER_TARGET``), and re-anchored at the last *committed*
  block when a response fails to connect (certified-but-abandoned forks).
* **Serving** — on a request, the manager walks its own forest back from the
  target to the requester's anchor and answers with an oldest-first
  :class:`~repro.sync.messages.BlockResponse` batch (``MAX_BATCH`` blocks),
  including its certificate for the newest block sent.  Requests anchored
  below the checkpoint truncation watermark cannot be connected by blocks
  anymore and are delegated to the checkpoint manager, which answers with a
  snapshot instead (:mod:`repro.checkpoint`).
* **Ingestion** — response blocks are re-validated (embedded QC must certify
  the parent, carry a quorum of valid signatures) and inserted oldest-first
  *without voting*; draining the orphan buffer then resumes normal voting on
  the live proposals that were parked.  Duplicate and stale responses are
  idempotent: blocks already in the forest are skipped and counted.
* **Recovery** — :meth:`on_recover` is the replica's one catch-up: request
  the peers' chain tips outright, retrying on a view-timeout cadence until a
  block batch arrives; after that, the ordinary missing-parent path drives
  the replica the rest of the way to the live chain head.  A peer that
  truncated below the requester's anchor answers with a snapshot instead;
  once it installs, :meth:`on_snapshot_installed` sends the next round at
  once, anchored at the checkpoint.

The replica's dispatch table (:attr:`~repro.core.replica.Replica.DISPATCH`)
charges each message kind's CPU cost and hands it to :meth:`handle_request`
or :meth:`handle_response`; this package imports nothing from
:mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.crypto.signatures import verify
from repro.obs import trace as obs_trace
from repro.sync.messages import BlockRequest, BlockResponse
from repro.types.certificates import QuorumCertificate, vote_digest
from repro.types.sizes import BLOCK_REQUEST_SIZE, block_response_size


#: Fetch rounds attempted per missing target (and per catch-up) before giving up.
MAX_ROUNDS_PER_TARGET = 8
#: Maximum blocks per BlockResponse batch.
MAX_BATCH = 32
#: Peers asked per fetch round.
FANOUT = 2


@dataclass
class SyncStats:
    """Counters describing one replica's sync activity."""

    fetch_rounds: int = 0
    requests_sent: int = 0
    requests_received: int = 0
    responses_sent: int = 0
    responses_received: int = 0
    blocks_served: int = 0
    blocks_fetched: int = 0
    bytes_fetched: int = 0
    duplicate_blocks: int = 0
    invalid_responses: int = 0
    unconnected_responses: int = 0
    orphans_parked: int = 0
    orphans_evicted: int = 0
    targets_abandoned: int = 0


class SyncManager:
    """Owns block fetching and orphan recovery for one replica."""

    def __init__(self, replica) -> None:
        self.replica = replica
        self.stats = SyncStats()

        self._attempts: Dict[str, int] = {}
        self._last_request: Dict[str, float] = {}
        #: Targets whose responses failed to connect: re-anchor these at the
        #: last committed block (shared by safety) instead of the highest
        #: certified one (which may sit on an abandoned fork).
        self._committed_anchor: Set[str] = set()
        self._rotation = 0
        self._catchup_pending = False
        self._catchup_rounds = 0

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def request_delay(self) -> float:
        """Grace before the first fetch for a newly missing ancestor, and the
        retry cadence: one view timeout, so transient reordering never causes
        traffic."""
        return self.replica.config.view_timeout

    # ------------------------------------------------------------------
    # detection: called by the replica's message handlers
    # ------------------------------------------------------------------
    def note_missing_parent(self, block) -> None:
        """Park a proposal whose parent is unknown; schedule a fetch for it.

        Duplicate deliveries (echoes, re-broadcasts) of an already-parked
        proposal schedule nothing — the first park's deferred request plus
        its retry timer already cover the target.
        """
        added, evicted = self.replica.forest.add_orphan(block)
        if added:
            self.stats.orphans_parked += 1
        if evicted is not None:
            self.stats.orphans_evicted += 1
        if added:
            self.replica.scheduler.post_after(
                self.request_delay(), self._maybe_request, block.parent_id
            )

    def note_missing_certified(self, qc: QuorumCertificate) -> None:
        """A QC formed for a block we do not hold; schedule a fetch for it."""
        self.replica.scheduler.post_after(
            self.request_delay(), self._maybe_request, qc.block_id
        )

    # ------------------------------------------------------------------
    # recovery catch-up
    # ------------------------------------------------------------------
    def on_recover(self) -> None:
        """Start a catch-up round: ask peers for their chain tips."""
        self._catchup_pending = True
        self._catchup_rounds = 0
        self._catchup_tick()

    def _catchup_tick(self) -> None:
        if not self._catchup_pending or self.replica._crashed:
            return
        if self._catchup_rounds >= MAX_ROUNDS_PER_TARGET:
            self._catchup_pending = False
            self.stats.targets_abandoned += 1
            return
        self._catchup_rounds += 1
        self._send_request(None)
        self.replica.scheduler.post_after(self.request_delay(), self._catchup_tick)

    def on_snapshot_installed(self) -> None:
        """Send the pending catch-up's next round now.

        Called after a snapshot install: the anchor jumped to the
        checkpoint, so the blocks above it are servable at once rather
        than a retry interval later.  The retry cadence is left as it was.
        """
        if self._catchup_pending:
            self._send_request(None)

    # ------------------------------------------------------------------
    # fetch rounds
    # ------------------------------------------------------------------
    def _maybe_request(self, target: str) -> None:
        """Fetch ``target`` unless it arrived meanwhile (deferred trigger)."""
        if self.replica._crashed:
            return
        if target in self.replica.forest:
            self._forget(target)
            return
        now = self.replica.scheduler.now
        last = self._last_request.get(target)
        if last is not None and now - last < 0.5 * self.request_delay():
            return  # a round for this target is already in flight
        self._force_request(target)

    def _force_request(self, target: str) -> None:
        """Fetch ``target`` now, bypassing the debounce (but not the cap)."""
        attempts = self._attempts.get(target, 0)
        if attempts >= MAX_ROUNDS_PER_TARGET:
            if attempts == MAX_ROUNDS_PER_TARGET:
                self._attempts[target] = attempts + 1
                self.stats.targets_abandoned += 1
            return
        self._attempts[target] = attempts + 1
        if attempts >= 1:
            # The first round went unanswered — the chosen peers may be
            # down, or the target may sit at or below our certified anchor
            # (a fork block they cannot serve against it).  Re-anchoring at
            # the last committed block makes the target servable whenever
            # any peer holds it above the shared committed prefix.
            self._committed_anchor.add(target)
        self._last_request[target] = self.replica.scheduler.now
        self._send_request(target)
        # Chosen peers may be crashed, partitioned, or missing the target
        # themselves (they answer with nothing) — re-check on a view-timeout
        # cadence until the block arrives or the round cap is hit.
        self.replica.scheduler.post_after(
            self.request_delay(), self._maybe_request, target
        )

    def _forget(self, target: str) -> None:
        self._attempts.pop(target, None)
        self._last_request.pop(target, None)
        self._committed_anchor.discard(target)

    def _anchor(self, target: Optional[str]):
        forest = self.replica.forest
        if target is not None and target in self._committed_anchor:
            return forest.last_committed()
        return forest.highest_certified()

    def _pick_peers(self) -> List[str]:
        replica = self.replica
        peers = [p for p in sorted(replica.peers) if p != replica.node_id]
        if not peers:
            return []
        count = min(FANOUT, len(peers))
        start = self._rotation
        self._rotation += count
        return [peers[(start + i) % len(peers)] for i in range(count)]

    def _send_request(self, target: Optional[str]) -> None:
        replica = self.replica
        peers = self._pick_peers()
        if not peers:
            return
        anchor = self._anchor(target)
        request = BlockRequest(
            sender=replica.node_id,
            size_bytes=BLOCK_REQUEST_SIZE,
            target_block_id=target,
            known_block_id=anchor.block_id,
            known_height=anchor.height,
        )
        self.stats.fetch_rounds += 1
        self.stats.requests_sent += len(peers)
        ev = replica.events
        if ev.wants & obs_trace.SYNC:
            ev.emit(
                replica.scheduler.now, replica.node_id, obs_trace.SYNC,
                "fetch-round", replica.pacemaker.current_view,
                {"target": target, "peers": len(peers)},
            )
        for peer in peers:
            replica.network.send(replica.node_id, peer, request)

    # ------------------------------------------------------------------
    # serving requests (responder side)
    # ------------------------------------------------------------------
    def handle_request(self, message: BlockRequest) -> None:
        replica = self.replica
        forest = replica.forest
        self.stats.requests_received += 1
        target_id = message.target_block_id
        if target_id is None:
            target_id = forest.highest_certified().block_id
        if target_id not in forest:
            return  # cannot help; the requester will ask someone else
        if message.known_height < forest.base_height - 1:
            # The blocks that would connect the requester's anchor were
            # truncated below the checkpoint watermark; the latest snapshot
            # *is* the answer.
            replica.checkpoint.offer_snapshot(message.sender, message.known_height)
            return
        # Walk only the (short) uncommitted tail above the target's first
        # committed ancestor; the committed gap below it — which is where an
        # arbitrarily deep catch-up lives — is served from the main chain by
        # height in O(batch) instead of walking the whole gap.
        suffix = []
        vertex = forest.get(target_id)
        while (
            vertex is not None
            and not vertex.committed
            and vertex.block_id != message.known_block_id
            and vertex.height > message.known_height
        ):
            suffix.append(vertex.block)
            vertex = forest.maybe_get(vertex.block.parent_id)
        suffix.reverse()
        chain = []
        if (
            vertex is not None
            and vertex.committed
            and vertex.block_id != message.known_block_id
            and vertex.height > message.known_height
        ):
            chain = forest.committed_blocks_between(
                message.known_height, vertex.height, MAX_BATCH
            )
        if not chain or chain[-1].block_id == vertex.block_id:
            # Only append the uncommitted tail when the committed slice was
            # not capped short of it — a disconnected tail would be useless
            # to the requester.
            chain.extend(suffix)
        batch = tuple(chain[:MAX_BATCH])
        if not batch:
            return  # the requester already holds everything we could send
        tip_qc = forest.get(batch[-1].block_id).qc
        response = BlockResponse(
            sender=replica.node_id,
            size_bytes=block_response_size(
                batch, len(tip_qc.signers) if tip_qc is not None else 0
            ),
            blocks=batch,
            target_id=target_id,
            tip_qc=tip_qc,
        )
        self.stats.responses_sent += 1
        self.stats.blocks_served += len(batch)
        cost = replica.cost_model.sync_response_build_cost(len(batch))
        replica.cpu.submit(
            cost, replica.network.send, replica.node_id, message.sender, response
        )

    # ------------------------------------------------------------------
    # ingesting responses (requester side)
    # ------------------------------------------------------------------
    def handle_response(self, message: BlockResponse) -> None:
        replica = self.replica
        forest = replica.forest
        self.stats.responses_received += 1
        self.stats.bytes_fetched += message.size_bytes
        fetched = 0
        unconnected = False
        invalid = False
        for block in message.blocks:
            if block.block_id in forest:
                self.stats.duplicate_blocks += 1
                continue
            if block.parent_id is None or block.parent_id not in forest:
                unconnected = True
                break
            if not self._block_justified(block):
                # Do not trust the rest of a bad batch (but still account
                # for the validly justified prefix already ingested).
                self.stats.invalid_responses += 1
                invalid = True
                break
            replica._accept_block(block, vote=False)
            if block.block_id not in forest:
                break  # structural rejection (height/view); stop here
            fetched += 1
        self.stats.blocks_fetched += fetched
        if message.tip_qc is not None and self._qc_valid(message.tip_qc):
            replica._note_synced_qc(message.tip_qc)
        ev = replica.events
        if ev.wants & obs_trace.SYNC:
            ev.emit(
                replica.scheduler.now, replica.node_id, obs_trace.SYNC,
                "fetched", replica.pacemaker.current_view,
                {"blocks": fetched, "bytes": message.size_bytes},
            )
        if invalid:
            # Don't let a malicious responder steer follow-up rounds (or
            # disarm the catch-up loop); the per-round retry timer and
            # _catchup_tick re-request from the next peers.
            return
        # A usable answer arrived; concrete targets drive the rest.
        self._catchup_pending = False
        target = message.target_id
        if not target:
            return
        if target in forest:
            self._forget(target)
            return
        if fetched:
            # Progress: the gap was wider than one batch — keep going.
            self._attempts[target] = 0
            self._force_request(target)
        elif unconnected:
            # The batch did not reach down to our anchor (it sat on a fork):
            # re-anchor at the last committed block, which safety guarantees
            # the responder shares.
            self.stats.unconnected_responses += 1
            self._committed_anchor.add(target)
            self._force_request(target)

    # ------------------------------------------------------------------
    # re-validation
    # ------------------------------------------------------------------
    def _block_justified(self, block) -> bool:
        """True if the block's embedded QC certifies its parent and is valid."""
        if block.qc is None or block.qc.block_id != block.parent_id:
            return False
        return self._qc_valid(block.qc)

    def _qc_valid(self, qc: QuorumCertificate) -> bool:
        """Check a fetched certificate: quorum of valid signatures."""
        if qc.is_genesis:
            return True
        threshold = self.replica.quorum.threshold
        if len(qc.signers) < threshold:
            return False
        digest = vote_digest(qc.block_id, qc.view)
        valid_signers = set()
        for signature in qc.signatures:
            if signature.digest != digest:
                return False
            if not verify(self.replica.registry, signature):
                return False
            valid_signers.add(signature.signer)
        return len(valid_signers) >= threshold
