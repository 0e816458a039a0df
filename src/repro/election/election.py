"""Leader election: mapping views to designated leaders.

All strategies are deterministic functions of the view so that every replica
independently agrees on the leader without communication, as required by the
propose-vote scheme.  The ``master`` configuration parameter of Table I maps
to :class:`StaticLeaderElection`; the default (``master = 0``) is rotation.

Election schemes are an extension point: subclass :class:`LeaderElection`,
implement ``leader(view)`` (and ``from_config`` if the scheme needs more
than the node list), and register with :func:`register_election`::

    @register_election("reputation")
    class ReputationElection(LeaderElection):
        def leader(self, view):
            ...

``Configuration(election="reputation")`` then selects it everywhere.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Sequence, Type

from repro.crypto.digest import digest_fields
from repro.plugins import Registry

#: The leader-election extension point.  Values are LeaderElection
#: subclasses built via their ``from_config`` classmethod.
ELECTIONS: Registry[Type["LeaderElection"]] = Registry("election kind")


def register_election(name: str, *aliases: str, override: bool = False) -> Callable:
    """Class decorator registering a LeaderElection subclass."""
    return ELECTIONS.register(name, *aliases, override=override)


def available_elections() -> List[str]:
    """Canonical names of the registered election kinds."""
    return ELECTIONS.available()


class LeaderElection(ABC):
    """Deterministically selects the leader of each view."""

    def __init__(self, nodes: Sequence[str]) -> None:
        if not nodes:
            raise ValueError("election requires at least one node")
        self.nodes: List[str] = list(nodes)

    @classmethod
    def from_config(
        cls, nodes: Sequence[str], master: str = "", seed: int = 0
    ) -> "LeaderElection":
        """Build an instance from configuration values.

        The default implementation only needs the node list; schemes that use
        the deployment seed or the ``master`` id override this.
        """
        return cls(nodes)

    @abstractmethod
    def leader(self, view: int) -> str:
        """Return the node id of the leader for ``view``."""

    def is_leader(self, node_id: str, view: int) -> bool:
        """True if ``node_id`` leads ``view``."""
        return self.leader(view) == node_id


@register_election("round-robin", "rr", "rotation")
class RoundRobinElection(LeaderElection):
    """Rotate leadership through the node list, one view per node."""

    def leader(self, view: int) -> str:
        return self.nodes[view % len(self.nodes)]


@register_election("static", "master", "fixed")
class StaticLeaderElection(LeaderElection):
    """A single stable leader (PBFT-style), used when ``master`` is set."""

    def __init__(self, nodes: Sequence[str], master: str) -> None:
        super().__init__(nodes)
        if master not in self.nodes:
            raise ValueError(f"master {master!r} is not one of the nodes")
        self.master = master

    @classmethod
    def from_config(
        cls, nodes: Sequence[str], master: str = "", seed: int = 0
    ) -> "StaticLeaderElection":
        if not master:
            raise ValueError("static election requires a master node id")
        return cls(nodes, master)

    def leader(self, view: int) -> str:
        return self.master


@register_election("hash", "random")
class HashBasedElection(LeaderElection):
    """Pseudo-random rotation derived from a hash of the view and a seed.

    This is the "leader election based on hash functions" design choice the
    paper's model discussion mentions (§V-E); it removes the predictability
    of round-robin while staying deterministic across replicas.
    """

    #: Views whose leader is remembered; the oldest is forgotten first.
    MEMO_SIZE = 256

    def __init__(self, nodes: Sequence[str], seed: int = 0) -> None:
        super().__init__(nodes)
        self.seed = seed
        # Every replica asks about the same few views around the current one,
        # several times each; the digest is computed once per view.
        self._memo: Dict[int, str] = {}

    @classmethod
    def from_config(
        cls, nodes: Sequence[str], master: str = "", seed: int = 0
    ) -> "HashBasedElection":
        return cls(nodes, seed=seed)

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


def make_election(nodes: Sequence[str], master: str = "", kind: str = "round-robin", seed: int = 0) -> LeaderElection:
    """Build an election strategy from configuration values.

    ``master`` (a node id) takes precedence, matching Table I where a
    non-zero ``master`` selects a static leader; otherwise ``kind`` is looked
    up in the :data:`ELECTIONS` registry.
    """
    if master:
        return StaticLeaderElection(nodes, master)
    return ELECTIONS.get(kind).from_config(nodes, master=master, seed=seed)
