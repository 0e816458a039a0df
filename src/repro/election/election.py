"""Leader election: mapping views to designated leaders.

All strategies are deterministic functions of the view so that every replica
independently agrees on the leader without communication, as required by the
propose-vote scheme.  :func:`make_election` builds the run's strategy from
its :class:`~repro.bench.config.Configuration`: the ``master`` parameter of
Table I, when set, fixes the leader (:class:`StaticLeaderElection`);
otherwise ``election`` names a registered scheme ("round-robin", Bamboo's
default rotation, or "hash").

Election schemes are an extension point: subclass :class:`LeaderElection`,
implement ``leader(view)``, and register with :func:`register_election`.
Every registered scheme is built the same way, ``cls(nodes, seed=seed)``;
the base class keeps both::

    @register_election("reputation")
    class ReputationElection(LeaderElection):
        def leader(self, view):
            ...

``Configuration(election="reputation")`` then selects it everywhere.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Type

from repro.crypto.digest import digest_fields
from repro.plugins import Registry

if TYPE_CHECKING:  # repro.bench imports this module, not the other way round
    from repro.bench.config import Configuration

#: The leader-election extension point.  Values are LeaderElection
#: subclasses, each built as ``cls(nodes, seed=seed)``.
ELECTIONS: Registry[Type["LeaderElection"]] = Registry("election kind")


def register_election(name: str) -> Callable:
    """Class decorator registering a LeaderElection subclass."""
    return ELECTIONS.register(name)


class LeaderElection(ABC):
    """Deterministically selects the leader of each view.

    ``nodes`` are the replica ids; ``seed`` is the run's seed, for schemes
    that draw their leaders pseudo-randomly.
    """

    def __init__(self, nodes: Sequence[str], seed: int = 0) -> None:
        if not nodes:
            raise ValueError("election requires at least one node")
        self.nodes: List[str] = list(nodes)
        self.seed = seed

    @abstractmethod
    def leader(self, view: int) -> str:
        """Return the node id of the leader for ``view``."""

    def is_leader(self, node_id: str, view: int) -> bool:
        """True if ``node_id`` leads ``view``."""
        return self.leader(view) == node_id


@register_election("round-robin")
class RoundRobinElection(LeaderElection):
    """Rotate leadership through the node list, one view per node."""

    def leader(self, view: int) -> str:
        return self.nodes[view % len(self.nodes)]


class StaticLeaderElection(LeaderElection):
    """A single stable leader (PBFT-style), used when ``master`` is set."""

    def __init__(self, nodes: Sequence[str], master: str) -> None:
        super().__init__(nodes)
        if master not in self.nodes:
            raise ValueError(f"master {master!r} is not one of the nodes")
        self.master = master

    def leader(self, view: int) -> str:
        return self.master


@register_election("hash")
class HashBasedElection(LeaderElection):
    """Pseudo-random rotation derived from a hash of the view and a seed.

    This is the "leader election based on hash functions" design choice the
    paper's model discussion mentions (§V-E); it removes the predictability
    of round-robin while staying deterministic across replicas.
    """

    #: Views whose leader is remembered; the oldest is forgotten first.
    MEMO_SIZE = 256

    def __init__(self, nodes: Sequence[str], seed: int = 0) -> None:
        super().__init__(nodes, seed)
        # Every replica asks about the same few views around the current one,
        # several times each; the digest is computed once per view.
        self._memo: Dict[int, str] = {}

    def leader(self, view: int) -> str:
        memo = self._memo
        leader = memo.get(view)
        if leader is None:
            digest = digest_fields("leader", self.seed, view)
            leader = self.nodes[int(digest[:16], 16) % len(self.nodes)]
            if len(memo) >= self.MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[view] = leader
        return leader


def make_election(config: Configuration) -> LeaderElection:
    """Build ``config``'s election over its node ids.

    ``master`` (a node id) takes precedence, matching Table I where a
    non-zero ``master`` selects a static leader; otherwise ``election`` is
    looked up in the :data:`ELECTIONS` registry.
    """
    nodes = config.node_ids()
    if config.master:
        return StaticLeaderElection(nodes, config.master)
    return ELECTIONS.get(config.election)(nodes, seed=config.seed)
