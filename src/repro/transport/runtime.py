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

The runner emits the same :class:`~repro.bench.runner.ExperimentResult` /
``RunMetrics`` record schema, so campaign storage, aggregation, and the
fig8 figure consume model and deployment records side by side.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench.config import Configuration
from repro.bench.metrics import MetricsCollector
from repro.bench.profiles import cost_profile
from repro.bench.runner import ExperimentResult
from repro.checkpoint.manager import CheckpointSettings
from repro.client.client import CLIENTS, ClientBase
from repro.client.workload import WorkloadSpec
from repro.core.byzantine import STRATEGIES
from repro.core.replica import Replica, ReplicaSettings
from repro.crypto.keys import KeyRegistry
from repro.election.election import make_election
from repro.obs import trace as obs_trace
from repro.sim.random import RandomStreams
from repro.sync.manager import SyncSettings
from repro.transport.asyncio_net import AsyncioTransport, TransportStats
from repro.transport.clock import AsyncioClock
from repro.types.sizes import SizeModel


class DeploymentError(RuntimeError):
    """A deployment run failed (replica handler raised, cluster diverged)."""


@dataclass
class DeploymentResult(ExperimentResult):
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
        self.observer_id = config.node_ids()[0]
        self.metrics = MetricsCollector(
            window_start=config.warmup,
            window_end=config.warmup + config.runtime,
            observer=self.observer_id,
        )
        self._started = False

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
        streams = RandomStreams(seed=config.seed)
        node_ids = config.node_ids()
        election = make_election(
            node_ids, master=config.master, kind=config.election, seed=config.seed
        )
        settings = ReplicaSettings(
            block_size=config.block_size,
            mempool_capacity=config.mempool_capacity,
            view_timeout=config.view_timeout,
            propose_wait_after_tc=config.propose_wait_after_tc,
            sync=SyncSettings(
                enabled=config.sync_enabled,
                max_batch=config.sync_max_batch,
                fanout=config.sync_fanout,
            ),
            checkpoint=CheckpointSettings(
                interval=config.checkpoint_interval,
                snapshot_sync=config.snapshot_sync_enabled,
            ),
            quorum_threshold=config.quorum_threshold,
        )
        # Crypto/serialization cost is real wall-clock work here; charging
        # the configured model on top would double-count it.
        costs = cost_profile("measured")
        sizes = SizeModel()
        byzantine = set(config.byzantine_ids())

        for node_id in node_ids:
            replica_cls = STRATEGIES.get(config.strategy) if node_id in byzantine else Replica
            replica = replica_cls(
                node_id,
                self.clock,
                self.transport,
                election,
                self.registry,
                node_ids,
                protocol=config.protocol,
                settings=settings,
                cost_model=costs,
                size_model=sizes,
                events=events,
            )
            self.replicas[node_id] = replica

        client_cls = CLIENTS.get(config.resolved_client())
        workload = WorkloadSpec(payload_size=config.payload_size)
        for client_id in config.client_ids():
            client = client_cls.from_config(
                client_id,
                self.clock,
                self.transport,
                streams,
                node_ids,
                workload=workload,
                size_model=sizes,
                events=events,
                config=config,
            )
            self.clients.append(client)

        await self.transport.start()
        for replica in self.replicas.values():
            replica.start()
        stop_time = config.warmup + config.runtime
        for client in self.clients:
            client.start(stop_time=stop_time)

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

    def honest_replicas(self) -> List[Replica]:
        """Replicas that follow the protocol."""
        byzantine = set(self.config.byzantine_ids())
        return [r for rid, r in self.replicas.items() if rid not in byzantine]

    def consistency_check(self) -> bool:
        """True if every honest replica's committed chain is a consistent prefix."""
        honest = self.honest_replicas()
        if not honest:
            return True
        min_height = min(r.forest.committed_height for r in honest)
        reference = honest[0].forest.consistency_hash(min_height)
        return all(r.forest.consistency_hash(min_height) == reference for r in honest)

    def result(self, elapsed: float) -> DeploymentResult:
        """Summarize the run into the shared campaign record schema."""
        metrics = self.metrics.summarize()
        metrics.wall_clock_seconds = elapsed
        metrics.events_per_second = (
            self.clock.processed_events / elapsed if elapsed > 0 else 0.0
        )
        observer = self.replicas[self.observer_id]
        return DeploymentResult(
            config=self.config,
            metrics=metrics,
            consistent=self.consistency_check(),
            highest_view=observer.pacemaker.stats.highest_view,
            timeline=self.metrics.throughput_timeline(
                bucket=0.5, end=self.config.total_duration
            ),
            transport=self.transport.stats,
        )


async def deploy_and_run(config: Configuration, host: str = "127.0.0.1") -> DeploymentResult:
    """Coroutine running one full deployment: start, horizon, stop, result."""
    runner = DeploymentRunner(config, host=host)
    await runner.start()
    started = time.perf_counter()
    await runner.run()
    elapsed = time.perf_counter() - started
    await runner.stop()
    return runner.result(elapsed)


def run_deployment(config: Configuration, host: str = "127.0.0.1") -> DeploymentResult:
    """Run one deployment experiment to completion (blocking entry point).

    ``repro.bench.runner.run_experiment`` dispatches here when
    ``config.mode == "deploy"``, so everything built on ``run_experiment``
    (campaigns, the CLI, benchmarks) gains the deployment axis for free.
    """
    return asyncio.run(deploy_and_run(config, host=host))
