"""The replica: the event loop tying every Bamboo module together.

A replica owns a block forest, a mempool, a safety module (the protocol's
four rules), a pacemaker, a quorum tracker, an execution layer, and a CPU
modelled as a FIFO server.  It reacts to messages delivered by the network:

* client requests are admitted to the mempool, which is also the replica's
  reply-routing record: at commit it answers the transactions its mempool
  held, each to the transaction's own client;
* proposals are validated, added to the forest, voted on per the voting
  rule, and (in Streamlet) echoed;
* votes are aggregated into quorum certificates, which update the protocol
  state, may satisfy the commit rule, and advance the view;
* timeout messages feed the pacemaker, which forms timeout certificates and
  advances the view when a quorum of replicas is stuck;
* block requests and responses feed the sync manager (:mod:`repro.sync`),
  which fetches chains the replica missed while crashed or partitioned.

Message dispatch is one table, :attr:`Replica.DISPATCH`: each message class
a replica handles maps to the CPU cost of a peer's copy and the handler that
serves it, the sync and checkpoint managers' kinds included, so a new kind
is its class and one row.

A replica reads its protocol, peers, block size, mempool capacity, timeouts,
quorum threshold and checkpoint interval off the run's
:class:`~repro.bench.config.Configuration`, and its message sizes off
:mod:`repro.types.sizes`; only the CPU cost model is handed in apart, since
a deployment charges measured costs whatever ``cost_profile`` says.

Whenever the replica enters a view it leads, it batches transactions from
its mempool and broadcasts a proposal.  Byzantine behaviours (paper §IV-A)
are expressed by overriding the proposing rule in subclasses — exactly how
Bamboo implements them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from operator import attrgetter

from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.messages import SnapshotResponse
from repro.crypto.costs import CryptoCostModel
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign
from repro.election.election import LeaderElection
from repro.executor.kvstore import DEFAULT_DEDUP_WINDOW, OPERATIONS, KeyValueStore, TxidDedup
from repro.forest.forest import BlockForest, ForestError
from repro.mempool.mempool import Mempool
from repro.network.network import Network
from repro.obs import trace as obs_trace
from repro.pacemaker.pacemaker import Pacemaker, ViewChangeReason
from repro.protocols.registry import make_safety
from repro.protocols.safety import ProposalPlan
from repro.quorum.quorum import QuorumTracker, TimeoutTracker
from repro.sim.events import EventScheduler
from repro.sim.resources import FifoServer
from repro.sync.manager import SyncManager
from repro.sync.messages import BlockRequest, BlockResponse
from repro.types.block import Block, make_block
from repro.types.certificates import (
    QuorumCertificate,
    Timeout,
    Vote,
    timeout_digest,
    vote_digest,
)
from repro.types.messages import (
    ClientReply,
    ClientRequest,
    Message,
    ProposalMessage,
    TimeoutMessage,
    VoteMessage,
)
from repro.types.sizes import TIMEOUT_MESSAGE_SIZE, VOTE_SIZE, client_reply_size, proposal_size
from repro.types.transaction import Transaction

if TYPE_CHECKING:  # repro.bench imports this module, not the other way round
    from repro.bench.config import Configuration

@dataclass
class ReplicaStats:
    """Counters exposed for tests and benchmark reports."""

    proposals_sent: int = 0
    votes_sent: int = 0
    client_rejections: int = 0
    blocks_committed: int = 0
    safety_violations: int = 0


class Replica:
    """A correct (honest) replica.

    Byzantine behaviours subclass this, override the proposing hooks, and
    declare per-strategy counters in ``_strategy_defaults`` (see
    :mod:`repro.core.byzantine`); the defaults are applied both here and when
    a scenario event converts a live replica to a different strategy.
    """

    #: Strategy name for reporting; subclasses override.
    strategy = "honest"
    #: Per-strategy counters, initialized at construction and on conversion.
    _strategy_defaults: Dict[str, int] = {}
    #: Message class -> (CPU cost of a peer's copy, the handler serving it).
    #: :meth:`deliver` charges the replica's own copy ``loopback_time``
    #: instead, reads every charge off ``cost_model`` (the ``measured``
    #: profile charges nothing), and ignores a class with no row, such as a
    #: ``ClientReply``.  A handler is resolved on the live instance, so a
    #: subclass's override or a strategy converted mid-run serves the kind.
    DISPATCH: Dict[type, Tuple[Callable[[CryptoCostModel, Message], float], attrgetter]] = {
        ClientRequest: (
            lambda costs, message: costs.client_request_time,
            attrgetter("_process_client_request"),
        ),
        ProposalMessage: (
            lambda costs, message: costs.proposal_verify_cost(message.block.num_transactions),
            attrgetter("_process_proposal"),
        ),
        VoteMessage: (
            lambda costs, message: costs.vote_verify_cost(),
            attrgetter("_process_vote"),
        ),
        TimeoutMessage: (
            lambda costs, message: costs.timeout_verify_cost(),
            attrgetter("_process_timeout"),
        ),
        BlockRequest: (
            lambda costs, message: costs.sync_request_cost(),
            attrgetter("sync.handle_request"),
        ),
        BlockResponse: (
            lambda costs, message: costs.sync_response_verify_cost(
                len(message.blocks), sum(b.num_transactions for b in message.blocks)
            ),
            attrgetter("sync.handle_response"),
        ),
        SnapshotResponse: (
            lambda costs, message: costs.snapshot_install_cost(
                len(message.checkpoint.state.items) + len(message.checkpoint.committed_ids)
            ),
            attrgetter("checkpoint.handle_response"),
        ),
    }

    def __init__(
        self,
        node_id: str,
        scheduler: EventScheduler,
        network: Network,
        election: LeaderElection,
        registry: KeyRegistry,
        config: Configuration,
        cost_model: Optional[CryptoCostModel] = None,
        events: Optional[obs_trace.EventStream] = None,
    ) -> None:
        self.node_id = node_id
        self.scheduler = scheduler
        self.network = network
        self.election = election
        self.registry = registry
        #: The run's configuration: protocol, peers, block size, mempool
        #: capacity, timeouts, quorum threshold and checkpoint interval.
        self.config = config
        self.peers = config.node_ids()
        #: Not ``config.cost_profile``'s: a deployment charges ``measured``.
        self.cost_model = cost_model if cost_model is not None else CryptoCostModel()
        #: The cluster's event stream (see :mod:`repro.obs.trace`); the
        #: pacemaker, sync and checkpoint managers announce on the same one.
        self.events = events if events is not None else obs_trace.EventStream()

        self.keypair = registry.register(node_id)
        self.forest = BlockForest()
        self.safety = make_safety(config.protocol, self.forest)
        self.sync = SyncManager(self)
        self.checkpoint = CheckpointManager(self)
        self.mempool = Mempool(capacity=config.mempool_capacity)
        self.kvstore = KeyValueStore()
        self.cpu = FifoServer(scheduler, name=f"{node_id}.cpu")
        self.quorum = QuorumTracker(
            len(self.peers), registry, threshold=config.quorum_threshold or None
        )
        self.timeouts = TimeoutTracker(len(self.peers), registry)
        self.pacemaker = Pacemaker(
            scheduler=scheduler,
            node_id=node_id,
            timeout_tracker=self.timeouts,
            view_timeout=config.view_timeout,
            on_view_start=self._on_view_start,
            on_local_timeout=self._on_local_timeout,
            events=self.events,
        )
        self.stats = ReplicaStats()

        self._pending_qcs: Dict[str, QuorumCertificate] = {}
        # Whom to answer is the mempool's (it holds an admitted request until
        # commit); what was answered already is this dedup's, which keeps
        # per-client floors plus a recent window like the executor's index.
        self._replied_txids = TxidDedup(window=DEFAULT_DEDUP_WINDOW)
        self._last_proposed_view = 0
        self._crashed = False
        for attr, default in self._strategy_defaults.items():
            setattr(self, attr, default)

        network.register(node_id, self.deliver)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, initial_view: int = 1) -> None:
        """Begin participating: enter the first view and arm the pacemaker."""
        self.pacemaker.start(initial_view)

    def crash(self) -> None:
        """Stop participating entirely (used by fault-injection experiments)."""
        self._crashed = True
        self.pacemaker.stop()
        self.network.crash(self.node_id)

    def recover(self) -> None:
        """Rejoin after a crash: reconnect, re-enter the current view, sync.

        Protocol state (forest, mempool, high QC) is retained, modelling a
        process restart from durable storage; the pacemaker timer is re-armed
        and the replica rejoins view synchronization (its timeouts count
        toward TCs, and it advances on the QCs/TCs it observes).

        The sync manager then starts a catch-up round: it fetches the blocks
        certified while the replica was down from its peers, re-validates
        their certificates, and drains any proposals that were parked on
        missing parents — restoring *full* participation (voting and
        leading), not just view synchronization.  Block fetching has no off
        switch: without it, later proposals would park forever on missing
        parents.

        A peer that truncated its forest below our anchor (see
        :mod:`repro.checkpoint`) answers the same request with a snapshot
        instead: it installs in one transfer, and block fetching covers only
        the gap above it — far cheaper than walking the whole missed chain.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.network.recover(self.node_id)
        self.pacemaker.resume()
        self.sync.on_recover()

    @property
    def current_view(self) -> int:
        """The replica's current view per its pacemaker."""
        return self.pacemaker.current_view

    def is_leader(self, view: int) -> bool:
        """True if this replica leads ``view``."""
        return self.election.leader(view) == self.node_id

    # ------------------------------------------------------------------
    # message entry point
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        """Network delivery callback: charge the kind's CPU cost, then handle.

        One :attr:`DISPATCH` lookup on the message's class; a kind with no
        row (a client reply) is not addressed to replicas and is ignored.
        """
        if self._crashed:
            return
        row = self.DISPATCH.get(message.__class__)
        if row is None:
            return
        cost, handler = row
        costs = self.cost_model
        charge = costs.loopback_time if message.sender == self.node_id else cost(costs, message)
        self.cpu.submit(charge, handler(self), message)

    # ------------------------------------------------------------------
    # outbound seam
    # ------------------------------------------------------------------
    # Every protocol message this replica emits goes through these two
    # hooks.  Honest replicas pass straight through to the network; omission
    # strategies (repro.core.byzantine) override both to drop or delay
    # messages addressed to their victims without touching the network layer.
    def _send(self, dst: str, message: Message) -> None:
        self.network.send(self.node_id, dst, message)

    def _broadcast(self, message: Message, include_self: bool = False) -> None:
        self.network.broadcast(self.node_id, self.peers, message, include_self=include_self)

    # ------------------------------------------------------------------
    # client requests
    # ------------------------------------------------------------------
    def _process_client_request(self, message: ClientRequest) -> None:
        transaction = message.transaction
        replied = self._replied_txids
        if transaction.operation in OPERATIONS:
            if self.kvstore.transaction_applied(transaction):
                # add_transaction doubles as the already-replied check: it
                # returns False when the id was recorded by an earlier reply.
                if replied.add_transaction(transaction):
                    self._answer(message.sender, (transaction.sequence,), "committed")
                return
            if self.mempool.add(transaction):
                # Answered at commit, since the mempool holds it until then.
                return
        # Refused: an operation the executor does not run (ordering it would
        # make every replica meet it at commit), a full mempool, or a
        # duplicate of a pending or proposed transaction.
        self.stats.client_rejections += 1
        if not replied.contains_transaction(transaction):
            self._answer(message.sender, (transaction.sequence,), "rejected")

    def _reply_committed(self, transactions: Sequence[Transaction]) -> None:
        """Answer the clients of committed ``transactions``: one reply each.

        ``transactions`` are the ones the mempool held, so this replica
        admitted their requests; each reply goes to the transaction's client
        and lists its sequences in block order, skipping any answered before.
        """
        replied = self._replied_txids
        by_client: Dict[str, List[int]] = {}
        for transaction in transactions:
            if not replied.add_transaction(transaction):
                continue
            client = transaction.client_id
            sequences = by_client.get(client)
            if sequences is None:
                by_client[client] = [transaction.sequence]
            else:
                sequences.append(transaction.sequence)
        for client, sequences in by_client.items():
            self._answer(client, sequences, "committed")

    def _answer(self, client: str, sequences: Sequence[int], status: str) -> None:
        # Positional: sender, size, sequences, status.
        reply = ClientReply(
            self.node_id, client_reply_size(len(sequences)), tuple(sequences), status,
        )
        try:
            self._send(client, reply)
        except KeyError:
            # The client endpoint was not registered (fire-and-forget loads).
            pass

    # ------------------------------------------------------------------
    # proposals
    # ------------------------------------------------------------------
    def _process_proposal(self, message: ProposalMessage) -> None:
        block = message.block
        ev = self.events
        if ev.wants & obs_trace.PROPOSAL:
            ev.emit(
                self.scheduler.now, self.node_id, obs_trace.PROPOSAL, "receive",
                block.view, {"block": block.block_id, "from": message.sender},
            )
        if block.block_id in self.forest:
            return
        self._maybe_echo_proposal(message)
        if block.parent_id is not None and block.parent_id not in self.forest:
            # Park the proposal and let the sync manager fetch the gap.
            self.sync.note_missing_parent(block)
            return
        self._accept_block(block)

    def _accept_block(self, block: Block, vote: bool = True) -> None:
        """Insert a block, absorb its certificates, maybe vote, drain orphans.

        ``vote=False`` is the sync-ingestion path: blocks fetched from peers
        are historical, so the replica absorbs their certificates (advancing
        its view and committing as the chain connects) without casting stale
        votes; the orphaned *live* proposals drained afterwards are voted on
        normally, which is what resumes participation after a catch-up.
        """
        now = self.scheduler.now
        try:
            self.forest.add_block(block)
        except ForestError:
            return
        ev = self.events
        if ev.wants & obs_trace.COMMIT:
            ev.emit(
                now, self.node_id, obs_trace.COMMIT, "block-added", block.view,
                {"block": block.block_id},
            )
        if block.qc is not None:
            self.safety.note_embedded_qc(block.qc)
            self._after_new_qc(block.qc)
        pending_qc = self._pending_qcs.pop(block.block_id, None)
        if pending_qc is not None:
            self.safety.update_qc(pending_qc)
            self._after_new_qc(pending_qc)
        if vote:
            self._maybe_vote(block)
        # Unblock any parked children now that their parent is known.
        for child in self.forest.pop_orphans(block.block_id):
            if child.block_id not in self.forest:
                self._accept_block(child)

    def _maybe_vote(self, block: Block) -> None:
        if not self.safety.should_vote(block):
            return
        self.safety.record_vote_sent(block)
        self.cpu.submit(self.cost_model.vote_build_cost(), self._send_vote, block)

    def _send_vote(self, block: Block) -> None:
        digest = vote_digest(block.block_id, block.view)
        vote = Vote(
            voter=self.node_id,
            block_id=block.block_id,
            view=block.view,
            signature=sign(self.keypair, digest),
        )
        message = VoteMessage(
            sender=self.node_id, size_bytes=VOTE_SIZE, vote=vote
        )
        self.quorum.trust(vote)
        self.stats.votes_sent += 1
        ev = self.events
        if ev.wants & obs_trace.VOTE:
            ev.emit(
                self.scheduler.now, self.node_id, obs_trace.VOTE, "vote",
                block.view, {"block": block.block_id},
            )
        if self.safety.votes_broadcast:
            self._broadcast(message, include_self=True)
        else:
            next_leader = self.election.leader(block.view + 1)
            self._send(next_leader, message)

    def _maybe_echo_proposal(self, message: ProposalMessage) -> None:
        if not self.safety.echo_messages:
            return
        if message.forwarded_by or message.sender == self.node_id:
            return
        echo = ProposalMessage(
            sender=self.node_id,
            size_bytes=message.size_bytes,
            block=message.block,
            view=message.view,
            forwarded_by=self.node_id,
        )
        self._broadcast(echo, include_self=False)

    # ------------------------------------------------------------------
    # votes and certificates
    # ------------------------------------------------------------------
    def _process_vote(self, message: VoteMessage) -> None:
        vote = message.vote
        self._maybe_echo_vote(message)
        qc = self.quorum.add_and_certify(vote)
        if qc is None:
            return
        ev = self.events
        if ev.wants & obs_trace.QC:
            ev.emit(
                self.scheduler.now, self.node_id, obs_trace.QC, "qc", qc.view,
                {"block": qc.block_id, "signers": len(qc.signers)},
            )
        if qc.block_id in self.forest:
            self.safety.update_qc(qc)
            self._after_new_qc(qc)
        else:
            self._pending_qcs[qc.block_id] = qc
            if qc.view > self.safety.high_qc.view:
                self.safety.high_qc = qc
            # A quorum certified a block we never received: fetch it.
            self.sync.note_missing_certified(qc)

    def _note_synced_qc(self, qc: QuorumCertificate) -> None:
        """Absorb a certificate learned through a sync response."""
        if qc.block_id not in self.forest:
            return
        self.safety.update_qc(qc)
        self._after_new_qc(qc)

    def _maybe_echo_vote(self, message: VoteMessage) -> None:
        if not self.safety.echo_messages:
            return
        if message.forwarded_by or message.sender == self.node_id:
            return
        echo = VoteMessage(
            sender=self.node_id,
            size_bytes=message.size_bytes,
            vote=message.vote,
            forwarded_by=self.node_id,
        )
        self._broadcast(echo, include_self=False)

    def _after_new_qc(self, qc: QuorumCertificate) -> None:
        # Advance the view before committing so that the commit view recorded
        # for the block-interval metric reflects the view in which the commit
        # becomes visible (the paper's BI starts at 3 for HotStuff and 2 for
        # two-chain HotStuff).
        self.pacemaker.advance_on_qc(qc.view)
        candidate = self.safety.commit_candidate(qc.block_id)
        if candidate is not None:
            self._commit(candidate)

    # ------------------------------------------------------------------
    # commitment
    # ------------------------------------------------------------------
    def _commit(self, block_id: str) -> None:
        ev = self.events
        now = self.scheduler.now
        commit_view = self.pacemaker.current_view
        try:
            newly = self.forest.commit(block_id)
        except ForestError:
            self.stats.safety_violations += 1
            if ev.wants & obs_trace.FAULT:
                ev.emit(
                    now, self.node_id, obs_trace.FAULT, "safety-violation",
                    commit_view, {"block": block_id},
                )
            return
        # Per block, not per transaction: one executor call, one mempool
        # call, and one reply per client for a block that carries a request
        # this replica's mempool held (about 1/n of one).  Applying a whole
        # block before replying to any of it changes nothing observable:
        # _reply_committed never reads the store, apply no reply state.
        apply_batch = self.kvstore.apply_batch
        mark_committed = self.mempool.mark_committed
        announce = ev.wants & obs_trace.COMMIT
        for vertex in newly:
            block = vertex.block
            self.stats.blocks_committed += 1
            if announce:
                # ``view`` is the proposal view; BI is commit_view - view.
                ev.emit(
                    now, self.node_id, obs_trace.COMMIT, "commit", block.view,
                    {"block": block.block_id, "txs": block.num_transactions,
                     "height": block.height, "commit_view": commit_view},
                )
            transactions = block.transactions
            apply_batch(transactions)
            held = mark_committed(transactions)
            if held:
                self._reply_committed(held)
        if newly:
            self._recycle_forks()
            self.checkpoint.on_commit()
            # Vote/timeout state below the committed view can never certify
            # anything again; dropping it bounds both trackers by the view
            # window in flight instead of the run length.
            committed_view = newly[-1].block.view
            self.quorum.prune_below(committed_view)
            self.pacemaker.timeout_tracker.prune_below(committed_view)

    def _recycle_forks(self) -> None:
        removed = self.forest.prune(self.forest.committed_height)
        if not removed:
            return
        # Only the replica whose mempool holds a forked transaction (the one
        # that admitted and proposed it) requeues it.
        mempool = self.mempool
        applied = self.kvstore.transaction_applied
        recyclable = [
            transaction
            for vertex in removed
            for transaction in vertex.block.transactions
            if transaction.txid in mempool and not applied(transaction)
        ]
        if recyclable:
            self.mempool.requeue_front(recyclable)
        ev = self.events
        if ev.wants & obs_trace.COMMIT:
            now = self.scheduler.now
            for vertex in removed:
                ev.emit(
                    now, self.node_id, obs_trace.COMMIT, "block-forked",
                    vertex.block.view, {"block": vertex.block.block_id},
                )

    # ------------------------------------------------------------------
    # pacemaker callbacks
    # ------------------------------------------------------------------
    def _on_view_start(self, view: int, reason: ViewChangeReason) -> None:
        if not self.is_leader(view):
            return
        delay = 0.0
        if reason is ViewChangeReason.TC:
            delay = self.config.propose_wait_after_tc
        if delay > 0:
            self.scheduler.post_after(delay, self._propose, view)
        else:
            self._propose(view)

    def _on_local_timeout(self, view: int) -> None:
        self.cpu.submit(self.cost_model.timeout_build_cost(), self._send_timeout, view)

    def _send_timeout(self, view: int) -> None:
        if view != self.pacemaker.current_view:
            return
        timeout = Timeout(
            voter=self.node_id,
            view=view,
            high_qc_view=self.safety.high_qc.view,
            signature=sign(self.keypair, timeout_digest(view)),
        )
        message = TimeoutMessage(
            sender=self.node_id,
            size_bytes=TIMEOUT_MESSAGE_SIZE,
            timeout=timeout,
        )
        self.timeouts.trust(timeout)
        ev = self.events
        if ev.wants & obs_trace.TIMEOUT:
            ev.emit(
                self.scheduler.now, self.node_id, obs_trace.TIMEOUT,
                "timeout-sent", view, {"high_qc_view": timeout.high_qc_view},
            )
        self._broadcast(message, include_self=True)

    def _process_timeout(self, message: TimeoutMessage) -> None:
        tc = self.pacemaker.process_remote_timeout(message.timeout)
        if tc is not None:
            self.pacemaker.advance_on_tc(tc)

    # ------------------------------------------------------------------
    # proposing
    # ------------------------------------------------------------------
    def _proposal_plan(self) -> Optional[ProposalPlan]:
        """The proposing rule; Byzantine subclasses override this."""
        return self.safety.choose_extension()

    def _propose(self, view: int) -> None:
        if self._crashed:
            return
        if view != self.pacemaker.current_view or view <= self._last_proposed_view:
            return
        plan = self._proposal_plan()
        if plan is None or plan.parent_id not in self.forest:
            return
        self._last_proposed_view = view
        parent = self.forest.get_block(plan.parent_id)
        batch = self.mempool.next_batch(self.config.block_size)
        block = make_block(view, parent, plan.qc, self.node_id, batch)
        cost = self.cost_model.proposal_build_cost(len(batch))
        self.cpu.submit(cost, self._broadcast_proposal, block, view, batch)

    def _broadcast_proposal(self, block: Block, view: int, batch: Tuple[Transaction, ...]) -> None:
        if view != self.pacemaker.current_view:
            # The view moved on while the proposal was being built; recycle
            # the batched transactions so they are not lost.
            self.mempool.requeue_front(batch)
            return
        qc_signers = len(block.qc.signers) if block.qc is not None else 0
        size = proposal_size(block, qc_signers)
        message = ProposalMessage(
            sender=self.node_id, size_bytes=size, block=block, view=view
        )
        self.stats.proposals_sent += 1
        ev = self.events
        if ev.wants & obs_trace.PROPOSAL:
            ev.emit(
                self.scheduler.now, self.node_id, obs_trace.PROPOSAL, "propose",
                view, {"block": block.block_id, "txs": block.num_transactions},
            )
        self._broadcast(message, include_self=True)
