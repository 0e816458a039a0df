"""Network partitions.

A partition makes a set of node pairs mutually unreachable for an interval.
The paper does not evaluate partitions directly (it assumes measurements
after GST), but Bamboo supports simulating them, so the capability is kept:
fault-injection tests use it to check that the pacemaker recovers liveness
once a partition heals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

NOBODY: FrozenSet[str] = frozenset()


@dataclass
class Partition:
    """Splits the cluster into groups that cannot exchange messages."""

    groups: tuple
    start: float = 0.0
    end: Optional[float] = None
    _unreachable: Dict[str, FrozenSet[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # A node listed in several groups belongs to the last one.
        membership = {node: index for index, group in enumerate(self.groups) for node in group}
        groups: Dict[int, Set[str]] = {}
        for node, index in membership.items():
            groups.setdefault(index, set()).add(node)
        members = frozenset(membership)
        others = {index: members - group for index, group in groups.items()}
        for node, index in membership.items():
            self._unreachable[node] = others[index]

    def active(self, now: float) -> bool:
        """True if the partition is in effect at time ``now``."""
        if now < self.start:
            return False
        if self.end is not None and now >= self.end:
            return False
        return True

    def unreachable_from(self, src: str) -> FrozenSet[str]:
        """The nodes ``src`` cannot reach while the partition is active.

        Nodes outside every group (e.g. clients) are unaffected either way.
        """
        return self._unreachable.get(src, NOBODY)

    @classmethod
    def isolate(cls, nodes: Set[str], isolated: Set[str], start: float = 0.0, end: Optional[float] = None) -> "Partition":
        """Convenience constructor isolating ``isolated`` from the rest."""
        rest: FrozenSet[str] = frozenset(nodes - isolated)
        return cls(groups=(frozenset(isolated), rest), start=start, end=end)
