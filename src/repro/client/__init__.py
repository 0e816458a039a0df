"""Client library: workload generators (a registry-backed extension point)."""

from repro.client.client import (
    CLIENTS,
    ClientBase,
    ClosedLoopClient,
    PoissonClient,
    register_client,
)
from repro.client.workload import WorkloadSpec

__all__ = [
    "CLIENTS",
    "ClientBase",
    "ClosedLoopClient",
    "PoissonClient",
    "WorkloadSpec",
    "register_client",
]
