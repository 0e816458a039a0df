"""The replica node: where the shared modules and the safety rules meet."""

from repro.core.byzantine import (
    STRATEGIES,
    ForkingReplica,
    SilentReplica,
    convert_replica,
    make_replica,
    register_strategy,
)
from repro.core.replica import Replica

__all__ = [
    "STRATEGIES",
    "ForkingReplica",
    "Replica",
    "SilentReplica",
    "convert_replica",
    "make_replica",
    "register_strategy",
]
