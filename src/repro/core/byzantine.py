"""Byzantine replica strategies (paper §IV-A).

The built-in strategies are implemented the way Bamboo implements them: by
modifying the Proposing rule (or, for the omission family, the outbound send
seam) only.  The attackers never violate the voting rule of honest replicas —
their proposals remain "valid" from an outsider's view — which is what makes
the attacks hard to detect while still degrading performance.

* **Forking attack** — the Byzantine leader proposes a block extending an
  older ancestor, abandoning (and eventually overwriting) the uncommitted
  tail of the chain.  How far back it can fork is bounded by the honest
  replicas' lock: two blocks in HotStuff, one in two-chain HotStuff, none in
  Streamlet (whose longest-chain voting rule makes the deepest acceptable
  fork target the chain tip itself, i.e. honest behaviour).
* **Silence attack** — the Byzantine leader simply does not propose during
  its views, forcing a timeout and (in the HotStuff variants) the loss of the
  quorum certificate for the previous block.
* **Equivocation** — the leader proposes two conflicting blocks to disjoint
  replica halves; harmless under intersecting quorums, fatal without them.
* **Delayed proposal** — the leader withholds its (valid) proposal for most
  of the view timeout, burning latency budget while staying plausible.
* **Targeted omission / delay** — the replica drops (or jitters, per
  SNIPPETS snippet 2) every protocol message addressed to a fixed victim
  set, starving specific peers instead of the whole cluster.

Strategies are an extension point: subclass :class:`Replica`, override the
proposing hooks, and register with :func:`register_strategy`::

    @register_strategy("equivocate")
    class EquivocatingReplica(Replica):
        _strategy_defaults = {"equivocations": 0}
        ...

``Configuration(strategy="equivocate")`` then works everywhere.  Per-run
counters go in ``_strategy_defaults`` (applied both at construction and by
:func:`convert_replica`, which scenario events use to turn an honest replica
Byzantine mid-run).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Type

from repro.core.replica import Replica
from repro.crypto.digest import digest_fields
from repro.forest.vertex import Vertex
from repro.plugins import Registry
from repro.protocols.safety import ProposalPlan
from repro.quorum.quorum import max_faulty
from repro.types.block import Block, make_block
from repro.types.messages import Message, ProposalMessage
from repro.types.transaction import Transaction

#: The Byzantine-strategy extension point.  Values are Replica subclasses.
STRATEGIES: Registry[Type[Replica]] = Registry("Byzantine strategy")


def register_strategy(name: str, *aliases: str, override: bool = False) -> Callable:
    """Class decorator registering a Replica subclass as a Byzantine strategy."""
    return STRATEGIES.register(name, *aliases, override=override)


def available_strategies() -> List[str]:
    """Canonical names of the registered Byzantine strategies."""
    return STRATEGIES.available()


# The honest replica doubles as the "no strategy" strategy.
STRATEGIES.add("honest", Replica, "none")


@register_strategy("silence", "silent")
class SilentReplica(Replica):
    """A replica that stays silent whenever it is the leader."""

    strategy = "silence"
    _strategy_defaults = {"views_silenced": 0}

    def _propose(self, view: int) -> None:
        # Remain silent for the whole view; honest replicas will time out.
        self.views_silenced += 1


@register_strategy("forking", "fork")
class ForkingReplica(Replica):
    """A replica that forks the chain as deeply as the voting rule allows."""

    strategy = "forking"
    _strategy_defaults = {"forks_attempted": 0}

    def _proposal_plan(self) -> Optional[ProposalPlan]:
        honest_plan = self.safety.choose_extension()
        depth = self.safety.lock_depth
        if depth <= 0:
            # No lock (Streamlet), so no acceptable target below the tip.
            return honest_plan
        # Honest replicas have seen certificates only up to the highest QC
        # that was embedded in a disseminated proposal; their lock trails it
        # by (depth - 1) blocks.  Building on that lock keeps the proposal
        # acceptable to them while abandoning everything above it.
        target = self.forest.maybe_get(self.safety.public_high_qc.block_id)
        if target is None:
            return honest_plan
        for _ in range(depth - 1):
            parent = self.forest.maybe_get(target.block.parent_id)
            if parent is None:
                break
            target = parent
        if not target.certified or target.qc is None:
            return honest_plan
        if target.block_id == honest_plan.parent_id:
            return honest_plan
        self.forks_attempted += 1
        return ProposalPlan(parent_id=target.block_id, qc=target.qc)


@register_strategy("equivocate", "equivocating", "equiv")
class EquivocatingReplica(Replica):
    """A leader that proposes *conflicting* blocks to disjoint replica halves.

    Each led view, the attacker splits its batch in two and builds two
    different blocks (the block id hashes the transactions, so the halves are
    guaranteed distinct), sending one to each half of its peers.  It tracks
    the tip of each branch so later led views keep extending both forks.

    Against a correctly configured cluster this only wastes views: the two
    vote sets are each short of a quorum, so neither branch certifies during
    the attacker's view and honest leaders resume from the older tip.  It
    becomes a *safety* attack exactly when quorums stop intersecting — a
    static equivocating master with ``quorum_threshold`` below 2f + 1 drives
    the two halves to commit divergent chains, which is the fuzz harness's
    negative control.
    """

    strategy = "equivocate"
    _strategy_defaults = {"equivocations": 0, "honest_fallbacks": 0}

    def _split_peers(self) -> Tuple[List[str], List[str]]:
        others = [p for p in self.peers if p != self.node_id]
        half = (len(others) + 1) // 2
        return others[:half], others[half:]

    def _branch_tips(self) -> List[Optional[Vertex]]:
        tips = getattr(self, "_equiv_tips", None)
        if tips is None:
            tips = self._equiv_tips = [None, None]
        return [
            self.forest.maybe_get(tip) if tip is not None else None for tip in tips
        ]

    def _propose(self, view: int) -> None:
        if self._crashed:
            return
        if view != self.pacemaker.current_view or view <= self._last_proposed_view:
            return
        plan = self._proposal_plan()
        if plan is None or plan.parent_id not in self.forest:
            return
        groups = self._split_peers()
        vertices = self._branch_tips()
        branched = (
            all(v is not None for v in vertices)
            and self._equiv_tips[0] != self._equiv_tips[1]
        )
        if branched and not all(v.certified and v.qc is not None for v in vertices):
            # The forks only stay on consecutive views (and thus commit at
            # the victims, when the quorum threshold lets them) if each led
            # view extends *both* branch tips — so wait a beat for in-flight
            # votes before giving up on the fork.
            if getattr(self, "_equiv_deadline_view", 0) != view:
                self._equiv_deadline_view = view
                self._equiv_deadline = self.scheduler.now + 0.5 * self.settings.view_timeout
            if self.scheduler.now < self._equiv_deadline:
                poll = max(1e-4, 0.05 * self.settings.view_timeout)
                self.scheduler.post_after(poll, self._propose, view)
                return
            # The branch QCs never materialized (intersecting quorums do
            # exactly this); abandon the fork and start over.
            self._equiv_tips = [None, None]
            branched = False
            vertices = [None, None]
        batch = self.mempool.next_batch(self.settings.block_size)
        self._last_proposed_view = view
        cost = self.cost_model.proposal_build_cost(len(batch))
        if branched:
            plans = tuple(
                ProposalPlan(parent_id=v.block_id, qc=v.qc) for v in vertices
            )
        elif len(batch) >= 2 and groups[1]:
            # Bootstrap two branches off the common parent; distinct halves
            # of the batch make the two block ids distinct.
            plans = (plan, plan)
        else:
            self.honest_fallbacks += 1
            parent = self.forest.get_block(plan.parent_id)
            block = make_block(view, parent, plan.qc, self.node_id, batch)
            self.cpu.submit(cost, self._broadcast_proposal, block, view, batch)
            return
        mid = len(batch) // 2
        halves = (batch[:mid], batch[mid:])
        blocks = tuple(
            make_block(view, self.forest.get_block(p.parent_id), p.qc, self.node_id, half)
            for p, half in zip(plans, halves)
        )
        self._equiv_tips[0] = blocks[0].block_id
        self._equiv_tips[1] = blocks[1].block_id
        self.equivocations += 1
        self.cpu.submit(cost, self._send_equivocation, blocks, groups, view, batch)

    def _send_equivocation(
        self,
        blocks: Tuple[Block, ...],
        groups: Tuple[List[str], List[str]],
        view: int,
        batch: Tuple[Transaction, ...],
    ) -> None:
        if view != self.pacemaker.current_view:
            self.mempool.requeue_front(batch)
            return
        for block, group in zip(blocks, groups):
            qc_signers = len(block.qc.signers) if block.qc is not None else 0
            size = self.size_model.proposal_size(block, qc_signers)
            message = ProposalMessage(
                sender=self.node_id, size_bytes=size, block=block, view=view
            )
            self.stats.proposals_sent += 1
            for dst in group:
                self._send(dst, message)
        # Keep both branches locally (without voting for either) so later led
        # views can extend whichever branch gathers votes.
        for block in blocks:
            self._accept_block(block, vote=False)


@register_strategy("delayed-proposal", "delayed", "delay-proposal")
class DelayedProposalReplica(Replica):
    """A leader that withholds its proposal for most of the view timeout.

    The proposal is valid and eventually sent, so honest replicas cannot tell
    the leader from a slow one — but every led view burns ~80% of its timeout
    budget idling, inflating latency and (when the remaining budget is too
    tight for a full round) forcing view changes.
    """

    strategy = "delayed-proposal"
    _strategy_defaults = {"proposals_delayed": 0, "_delayed_view": 0}

    #: Fraction of the view timeout to sit on the proposal.
    delay_fraction = 0.8

    def _propose(self, view: int) -> None:
        if self._crashed:
            return
        if view != self.pacemaker.current_view or view <= self._last_proposed_view:
            return
        if self._delayed_view < view:
            self._delayed_view = view
            self.proposals_delayed += 1
            delay = self.delay_fraction * self.settings.view_timeout
            self.scheduler.post_after(delay, self._propose, view)
            return
        Replica._propose(self, view)


@register_strategy("omission", "targeted-omission", "omit")
class TargetedOmissionReplica(Replica):
    """A replica that drops every protocol message addressed to its victims.

    Victims are the first f peer ids (which includes the metrics observer
    r0): proposals, votes, timeouts, and echoes to them silently vanish at
    the sender, while traffic to everyone else flows normally.  The cluster
    stays live — quorums of n - f never need the victims — but the victims
    ride on block-fetch catch-up instead of first-class delivery.
    """

    strategy = "omission"
    _strategy_defaults = {"messages_omitted": 0, "messages_delayed": 0}

    #: Seconds to hold a victim's message back; 0 drops it outright.
    omission_delay = 0.0

    def _victims(self) -> List[str]:
        others = [p for p in self.peers if p != self.node_id]
        return others[: max(1, max_faulty(len(self.peers)))]

    def _send(self, dst: str, message: Message) -> None:
        if dst in self._victims():
            if self.omission_delay <= 0:
                self.messages_omitted += 1
                return
            self.messages_delayed += 1
            self.scheduler.post_after(
                self._jitter(dst, message), Replica._send, self, dst, message
            )
            return
        Replica._send(self, dst, message)

    def _broadcast(self, message: Message, include_self: bool = False) -> None:
        # One copy at a time, so each passes the victim filter in _send.
        for dst in self.peers:
            if dst != self.node_id or include_self:
                self._send(dst, message)

    def _jitter(self, dst: str, message: Message) -> float:
        # Deterministic "random" delay in [0.5, 1.5) x omission_delay: python's
        # hash() is salted per process, so derive the jitter from a digest to
        # keep runs byte-reproducible.
        token = digest_fields(
            "omit", self.node_id, dst, type(message).__name__, f"{self.scheduler.now:.9f}"
        )
        return self.omission_delay * (0.5 + int(token[:8], 16) / 0x100000000)


@register_strategy("omission-delay", "omit-delay", "delayed-omission")
class DelayedOmissionReplica(TargetedOmissionReplica):
    """Targeted omission softened into targeted *delay* (SNIPPETS snippet 2).

    Instead of vanishing, each message to a victim is held back by a random
    but reproducible 25–75 ms — long enough to straddle typical view
    timeouts, so the victims oscillate between keeping up and timing out.
    """

    strategy = "omission-delay"
    omission_delay = 0.05


def _strategy_class(strategy: str) -> Type[Replica]:
    return STRATEGIES.get(strategy) if strategy else Replica


def make_replica(strategy: str, *args, **kwargs) -> Replica:
    """Instantiate a replica with the given Byzantine strategy ("" = honest)."""
    return _strategy_class(strategy)(*args, **kwargs)


def convert_replica(replica: Replica, strategy: str) -> Replica:
    """Switch a live replica's behaviour to ``strategy`` (scenario events).

    The object keeps all protocol state (forest, mempool, pacemaker); only
    its behaviour class changes, and any per-strategy counters that do not
    exist yet are initialized from ``_strategy_defaults``.
    """
    cls = _strategy_class(strategy)
    replica.__class__ = cls
    for attr, default in cls._strategy_defaults.items():
        if not hasattr(replica, attr):
            setattr(replica, attr, default)
    return replica
