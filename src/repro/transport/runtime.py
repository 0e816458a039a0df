"""Deployment runner: the protocol stack over real TCP, real time, real keys.

This is the "implementation" axis of the paper's fig8.  The same
:class:`~repro.core.replica.Replica` (and Byzantine strategy subclasses),
pacemaker, sync/checkpoint managers, and clients that run in the
discrete-event model are wired to an :class:`~repro.transport.clock.AsyncioClock`
and an :class:`~repro.transport.asyncio_net.AsyncioTransport` instead — zero
protocol-class changes, which ``tests/test_transport.py`` pins down by
diffing the protocol modules' imports against this package.

What changes between the modes is exactly what the paper varies:

========================  ==========================  =========================
aspect                    model                       deploy
========================  ==========================  =========================
time                      virtual event clock         loop's monotonic clock
message fabric            modeled NIC + link delays   framed TCP streams
signatures                HMAC tags, cost *modeled*   Ed25519, cost *measured*
serialization             size-model estimate         real JSON encode/decode
========================  ==========================  =========================

Everything else is :mod:`repro.bench.runner`'s: its :func:`~repro.bench.runner.wire`
builds the replicas and clients, its ``consistency_check`` judges them, and
its :func:`~repro.bench.runner.summarize` produces the same
:class:`~repro.bench.runner.ExperimentResult` / ``RunMetrics`` record schema,
so campaign storage, aggregation, and the fig8 figure consume model and
deployment records side by side.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import runner as bench_runner
from repro.bench.config import Configuration
from repro.bench.profiles import cost_profile
from repro.client.client import ClientBase
from repro.core.replica import Replica
from repro.crypto.keys import KeyRegistry
from repro.obs import trace as obs_trace
from repro.sim.random import RandomStreams
from repro.transport.asyncio_net import AsyncioTransport, TransportStats
from repro.transport.clock import AsyncioClock


class DeploymentError(RuntimeError):
    """A deployment run failed (replica handler raised, cluster diverged)."""


@dataclass
class DeploymentResult(bench_runner.ExperimentResult):
    """An :class:`ExperimentResult` plus the deployment's socket counters.

    The stored record (``to_dict``) is the shared schema, unchanged; the
    counters are for whoever ran the deployment (``repro deploy`` prints
    frames per socket write from them).
    """

    transport: TransportStats = field(default_factory=TransportStats)


class DeploymentRunner:
    """Launches an n-replica loopback cluster and drives the clients.

    Construction validates the configuration; :meth:`start` (a coroutine)
    binds sockets and starts replicas and clients; :meth:`run` waits out the
    configured horizon on the wall clock (or the first handler error).  Tests
    drive crash/recover through ``runner.replicas[...]`` exactly as simulation
    tests do through the cluster.
    """

    def __init__(self, config: Configuration, host: str = "127.0.0.1") -> None:
        if config.mode != "deploy":
            config = config.replace(mode="deploy")
        config.validate()
        self.config = config
        self.host = host
        self.clock: AsyncioClock = None  # type: ignore[assignment]
        self.transport: AsyncioTransport = None  # type: ignore[assignment]
        self.registry = KeyRegistry(
            deployment_seed=config.seed, scheme=config.resolved_signing()
        )
        self.replicas: Dict[str, Replica] = {}
        self.clients: List[ClientBase] = []
        self.metrics = bench_runner.collector_for(config)
        self.observer_id = self.metrics.observer
        self._started = False

    honest_replicas = bench_runner.honest_replicas
    consistency_check = bench_runner.consistency_check

    async def start(self) -> None:
        """Bind the transport and start every replica and client."""
        if self._started:
            raise RuntimeError("deployment already started")
        self._started = True
        config = self.config
        # Same seam as the simulation builder: one stream for the fabric,
        # replicas and clients (timestamps come from the shared AsyncioClock,
        # so deploy traces use wall time since start).
        events = obs_trace.open_stream(self.metrics)
        self.clock = AsyncioClock()
        self.transport = AsyncioTransport(host=self.host, events=events, clock=self.clock)
        # Crypto/serialization cost is real wall-clock work here; charging
        # the configured model on top would double-count it.
        self.replicas, self.clients = bench_runner.wire(
            config, self.clock, self.transport, self.registry,
            RandomStreams(seed=config.seed), events, cost_profile("measured"),
        )
        await self.transport.start()
        bench_runner.start_nodes(self)

    async def run(self) -> None:
        """Let the cluster run for the configured horizon of wall time.

        A message handler that raises ends the wait — and fails the run —
        when it happens, not when the horizon is up.
        """
        try:
            await asyncio.wait_for(
                self.transport.failed.wait(), timeout=self.config.total_duration
            )
        except asyncio.TimeoutError:
            pass
        self.raise_handler_errors()

    async def stop(self) -> None:
        """Stop timers and tear the transport down."""
        for replica in self.replicas.values():
            replica.pacemaker.stop()
        await self.transport.stop()

    def raise_handler_errors(self) -> None:
        """Re-raise the first exception any message handler raised."""
        if self.transport.errors:
            raise DeploymentError(
                f"{len(self.transport.errors)} handler error(s); first: "
                f"{self.transport.errors[0]!r}"
            ) from self.transport.errors[0]


async def deploy_and_run(config: Configuration, host: str = "127.0.0.1") -> DeploymentResult:
    """Coroutine running one full deployment: start, horizon, stop, result."""
    runner = DeploymentRunner(config, host=host)
    await runner.start()
    await runner.run()
    await runner.stop()
    result = bench_runner.summarize(runner, runner.config.total_duration)
    return DeploymentResult(**vars(result), transport=runner.transport.stats)


def run_deployment(config: Configuration, host: str = "127.0.0.1") -> DeploymentResult:
    """Run one deployment experiment to completion (blocking entry point).

    ``repro.bench.runner.run_experiment`` dispatches here when
    ``config.mode == "deploy"``, so everything built on ``run_experiment``
    (campaigns, the CLI, benchmarks) gains the deployment axis for free.
    """
    return asyncio.run(deploy_and_run(config, host=host))
