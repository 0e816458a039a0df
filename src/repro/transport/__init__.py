"""Real-transport deployment mode: the protocol stack over asyncio TCP.

See :mod:`repro.transport.base` for the seam contract,
:mod:`repro.transport.runtime` for the deployment runner, and
``docs/ARCHITECTURE.md`` ("Transport seam & deployment mode") for the tour.
"""

from repro.transport.base import Clock, TimerHandle, Transport
from repro.transport.clock import AsyncioClock
from repro.transport.asyncio_net import AsyncioTransport, TransportStats
from repro.transport.runtime import (
    DeploymentError,
    DeploymentResult,
    DeploymentRunner,
    run_deployment,
)

__all__ = [
    "Clock",
    "TimerHandle",
    "Transport",
    "AsyncioClock",
    "AsyncioTransport",
    "TransportStats",
    "DeploymentError",
    "DeploymentResult",
    "DeploymentRunner",
    "run_deployment",
]
