"""Experiment runner: build a cluster from a configuration and run it.

``build_cluster`` validates the configuration and wires the scheduler,
network, replicas, clients, and metrics collector together; every
protocol-, attack-, election-, delay-, and client-specific choice is a
registry lookup (see :mod:`repro.plugins`), so a new plugin plus a config
entry is all it takes to run a new experiment — no runner changes.
``run_experiment`` runs the whole thing for the configured horizon and
returns an :class:`ExperimentResult`.  Timed fault injection lives in
:mod:`repro.scenario`: declare events, and the :class:`ScenarioRunner`
applies them to the cluster built here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.config import Configuration
from repro.bench.metrics import MetricsCollector, RunMetrics
from repro.bench.profiles import cost_profile
from repro.checkpoint.manager import CheckpointSettings, CheckpointStats
from repro.client.client import CLIENTS, ClientBase
from repro.client.workload import WorkloadSpec
from repro.core.byzantine import STRATEGIES
from repro.core.replica import Replica, ReplicaSettings
from repro.crypto.keys import KeyRegistry
from repro.election.election import make_election
from repro.network.delays import NoDelay, NormalDelay
from repro.network.network import Network
from repro.obs import trace as obs_trace
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.sync.manager import SyncSettings, SyncStats
from repro.types.sizes import SizeModel


@dataclass
class Cluster:
    """A fully wired simulation ready to run."""

    config: Configuration
    scheduler: EventScheduler
    streams: RandomStreams
    network: Network
    registry: KeyRegistry
    replicas: Dict[str, Replica]
    clients: List[ClientBase]
    metrics: MetricsCollector
    observer_id: str
    #: The stream every component announces on (``metrics`` always hears it,
    #: the installed tracer if any).  Not part of the Configuration: run ids
    #: and stored records are identical with tracing on or off.
    events: obs_trace.EventStream

    def honest_replicas(self) -> List[Replica]:
        """Replicas that follow the protocol."""
        byzantine = set(self.config.byzantine_ids())
        return [r for rid, r in self.replicas.items() if rid not in byzantine]

    def start(self) -> None:
        """Start every replica and client."""
        for replica in self.replicas.values():
            replica.start()
        stop_time = self.config.warmup + self.config.runtime
        for client in self.clients:
            client.start(stop_time=stop_time)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation to ``until`` (default: the configured horizon)."""
        horizon = until if until is not None else self.config.total_duration
        self.scheduler.run_until(horizon)

    def consistency_check(self) -> bool:
        """True if every honest replica's committed chain is a consistent prefix."""
        honest = self.honest_replicas()
        if not honest:
            return True
        min_height = min(r.forest.committed_height for r in honest)
        reference = honest[0].forest.consistency_hash(min_height)
        return all(r.forest.consistency_hash(min_height) == reference for r in honest)

    def sync_report(self) -> SyncStats:
        """Aggregate block-fetch counters across every replica."""
        total = SyncStats()
        for replica in self.replicas.values():
            stats = replica.sync.stats
            for name in vars(total):
                setattr(total, name, getattr(total, name) + getattr(stats, name))
        return total

    def checkpoint_report(self) -> CheckpointStats:
        """Aggregate checkpoint counters across every replica.

        Counters sum; ``peak_forest_blocks`` takes the cluster-wide maximum
        (it is a bound, not a volume).
        """
        total = CheckpointStats()
        for replica in self.replicas.values():
            stats = replica.checkpoint.stats
            for name in vars(total):
                if name == "peak_forest_blocks":
                    total.peak_forest_blocks = max(
                        total.peak_forest_blocks, stats.peak_forest_blocks
                    )
                else:
                    setattr(total, name, getattr(total, name) + getattr(stats, name))
        return total


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    config: Configuration
    metrics: RunMetrics
    consistent: bool
    highest_view: int
    timeline: List = field(default_factory=list)

    @property
    def throughput_ktps(self) -> float:
        """Throughput in thousands of transactions per second."""
        return self.metrics.throughput_tps / 1e3

    @property
    def latency_ms(self) -> float:
        """Mean latency in milliseconds."""
        return self.metrics.mean_latency * 1e3

    def to_dict(self) -> Dict:
        """Lossless JSON-compatible dict (the campaign record shape)."""
        return {
            "config": self.config.to_dict(),
            "metrics": self.metrics.to_dict(),
            "consistent": self.consistent,
            "highest_view": self.highest_view,
            "timeline": [[t, tps] for t, tps in self.timeline],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        return cls(
            config=Configuration.from_dict(data["config"]),
            metrics=RunMetrics.from_dict(data["metrics"]),
            consistent=data["consistent"],
            highest_view=data["highest_view"],
            timeline=[(t, tps) for t, tps in data.get("timeline", [])],
        )


def build_cluster(config: Configuration) -> Cluster:
    """Wire up a *simulated* cluster (replicas, clients, network, metrics).

    Deployment-mode configurations are built by
    :class:`repro.transport.runtime.DeploymentRunner` instead; this builder
    rejects them rather than silently simulating.
    """
    config.validate()
    if config.mode != "model":
        raise ValueError(
            f"build_cluster is the simulation builder (mode='model'); "
            f"got mode={config.mode!r} — use repro.transport.runtime"
        )
    scheduler = EventScheduler()
    streams = RandomStreams(seed=config.seed)
    node_ids = config.node_ids()
    observer_id = node_ids[0]
    metrics = MetricsCollector(
        window_start=config.warmup,
        window_end=config.warmup + config.runtime,
        observer=observer_id,
    )
    events = obs_trace.open_stream(metrics)
    base_delay = NormalDelay(config.base_delay_mean, config.base_delay_stddev)
    if config.extra_delay_mean > 0:
        extra_delay = NormalDelay(config.extra_delay_mean, config.extra_delay_stddev)
    else:
        extra_delay = NoDelay()
    network = Network(
        scheduler,
        streams,
        base_delay=base_delay,
        extra_delay=extra_delay,
        bandwidth_bps=config.bandwidth_bps,
        events=events,
    )
    registry = KeyRegistry(deployment_seed=config.seed)
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
    costs = cost_profile(config.cost_profile)
    sizes = SizeModel()
    byzantine = set(config.byzantine_ids())

    replicas: Dict[str, Replica] = {}
    for node_id in node_ids:
        replica_cls = STRATEGIES.get(config.strategy) if node_id in byzantine else Replica
        replica = replica_cls(
            node_id,
            scheduler,
            network,
            election,
            registry,
            node_ids,
            protocol=config.protocol,
            settings=settings,
            cost_model=costs,
            size_model=sizes,
            events=events,
        )
        replicas[node_id] = replica

    client_cls = CLIENTS.get(config.resolved_client())
    clients: List[ClientBase] = []
    workload = WorkloadSpec(payload_size=config.payload_size)
    for client_id in config.client_ids():
        client = client_cls.from_config(
            client_id,
            scheduler,
            network,
            streams,
            node_ids,
            workload=workload,
            size_model=sizes,
            events=events,
            config=config,
        )
        clients.append(client)

    return Cluster(
        config=config,
        scheduler=scheduler,
        streams=streams,
        network=network,
        registry=registry,
        replicas=replicas,
        clients=clients,
        metrics=metrics,
        observer_id=observer_id,
        events=events,
    )


def attach_host_perf(
    metrics: RunMetrics, cluster: Cluster, elapsed: float
) -> RunMetrics:
    """Record how fast the *simulator* ran (wall clock, events/sec).

    Host-side quantities live outside the canonical record serialization
    (see :attr:`RunMetrics.PERF_FIELDS`); they feed ``tools/perf_smoke.py``
    and the perf trajectory, not the stored campaign records.
    """
    metrics.wall_clock_seconds = elapsed
    metrics.events_per_second = (
        cluster.scheduler.processed_events / elapsed if elapsed > 0 else 0.0
    )
    return metrics


def run_experiment(config: Configuration) -> ExperimentResult:
    """Build, start, and run one experiment; return its summarized result.

    Dispatches on ``config.mode``: "model" runs the discrete-event simulation
    here; "deploy" hands the same configuration to the real-transport runtime
    (:mod:`repro.transport`), which returns a result with the identical
    record schema.  Imported lazily so the simulation never loads asyncio
    machinery.
    """
    if config.mode == "deploy":
        from repro.transport.runtime import run_deployment

        return run_deployment(config)
    cluster = build_cluster(config)
    started = time.perf_counter()
    cluster.start()
    cluster.run()
    elapsed = time.perf_counter() - started
    observer = cluster.replicas[cluster.observer_id]
    return ExperimentResult(
        config=config,
        metrics=attach_host_perf(cluster.metrics.summarize(), cluster, elapsed),
        consistent=cluster.consistency_check(),
        highest_view=observer.pacemaker.stats.highest_view,
        timeline=cluster.metrics.throughput_timeline(bucket=0.5, end=config.total_duration),
    )
