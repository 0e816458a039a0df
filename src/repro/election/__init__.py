"""Leader election strategies (a registry-backed extension point)."""

from repro.election.election import (
    ELECTIONS,
    HashBasedElection,
    LeaderElection,
    RoundRobinElection,
    StaticLeaderElection,
    make_election,
    register_election,
)

__all__ = [
    "ELECTIONS",
    "HashBasedElection",
    "LeaderElection",
    "RoundRobinElection",
    "StaticLeaderElection",
    "make_election",
    "register_election",
]
