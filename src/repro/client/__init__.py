"""Client library: the closed-loop and Poisson workload generators."""

from repro.client.client import ClientBase, ClosedLoopClient, PoissonClient
from repro.client.workload import WorkloadSpec

__all__ = [
    "ClientBase",
    "ClosedLoopClient",
    "PoissonClient",
    "WorkloadSpec",
]
