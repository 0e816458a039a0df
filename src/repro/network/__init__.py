"""Simulated message-passing network.

This package replaces Bamboo's TCP/Go-channel transport with a simulated
transport built on the discrete-event scheduler.  It models the two
network-related quantities of the paper's performance model:

* **propagation delay** between machines — normally distributed, with
  optional additional delay (the ``delay`` configuration parameter),
  run-time fluctuation windows, per-node slow-downs, and partitions;
* **NIC serialization delay** — every byte sent passes through the sender's
  and the receiver's NIC, each a bandwidth-limited FIFO queue held by
  :class:`Network` as one ``free_at`` time (the ``2·m/b`` term).
"""

from repro.network.delays import (
    DELAY_MODELS,
    CompositeDelay,
    DelayModel,
    FixedDelay,
    NormalDelay,
    NoDelay,
    UniformDelay,
    make_delay_model,
    register_delay_model,
)
from repro.network.fluctuation import FluctuationWindow
from repro.network.network import Network, NetworkStats
from repro.network.partition import Partition

__all__ = [
    "DELAY_MODELS",
    "CompositeDelay",
    "DelayModel",
    "FixedDelay",
    "FluctuationWindow",
    "Network",
    "NetworkStats",
    "NoDelay",
    "NormalDelay",
    "Partition",
    "UniformDelay",
    "make_delay_model",
    "register_delay_model",
]
