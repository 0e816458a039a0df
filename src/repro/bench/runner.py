"""Experiment runner: the one path from a configuration to a result.

Every decision between a :class:`Configuration` (plus an optional
:class:`~repro.scenario.Scenario`) and an :class:`ExperimentResult` is made
once, here:

* :func:`wire` builds replicas and :func:`build_clients` clients on
  whatever clock and message fabric they are handed; every protocol-,
  attack- and election-specific choice in them is a registry lookup
  (see :mod:`repro.plugins`), so a new plugin plus a config entry is all it
  takes to run a new experiment — no runner changes.  :func:`build_cluster`
  calls both with the event scheduler and the modelled network and schedules
  the scenario's events; the deployment runtime
  (:mod:`repro.transport.runtime`) calls :func:`wire` with the loop's clock
  and TCP, and :func:`build_clients` in its load-generator process.
* :func:`honest_replicas` / :func:`consistency_check` / :func:`fingerprint`
  say what "the honest replicas agree" means for both kinds of system.
* :func:`run_experiment` builds, starts, runs to the horizon and summarises
  (:func:`summarize`) in either mode; :func:`run_cluster` is its simulated
  half, for callers that keep the finished cluster (the fuzz oracles).

A result becomes a stored record in one place too:
:meth:`repro.experiments.spec.RunSpec.record`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.config import Configuration, ConfigurationError
from repro.bench.metrics import DEFAULT_BUCKET, MetricsCollector, RunMetrics, timeline_mean
from repro.bench.profiles import cost_profile
from repro.client.client import ClientBase, ClosedLoopClient, PoissonClient
from repro.client.workload import WorkloadSpec
from repro.core.byzantine import STRATEGIES
from repro.core.replica import Replica
from repro.crypto.costs import CryptoCostModel
from repro.crypto.keys import KeyRegistry
from repro.election.election import make_election
from repro.network.delays import NoDelay, NormalDelay
from repro.network.network import Network
from repro.obs import trace as obs_trace
from repro.scenario import Scenario
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams


# ----------------------------------------------------------------------
# What holds for any wired ``system`` — a simulated Cluster or a
# DeploymentRunner: both have ``config``, ``replicas``, ``clients``,
# ``metrics`` and ``observer_id``, and bind ``honest_replicas`` and
# ``consistency_check`` as methods.
# ----------------------------------------------------------------------
def honest_replicas(system) -> List[Replica]:
    """Replicas that follow the protocol (by configuration)."""
    byzantine = set(system.config.byzantine_ids())
    return [r for rid, r in system.replicas.items() if rid not in byzantine]


def _common_prefix(system) -> Tuple[int, List[str]]:
    """The honest replicas' lowest committed height and each one's chain hash up to it."""
    honest = honest_replicas(system)
    height = min((r.forest.committed_height for r in honest), default=0)
    return height, [r.forest.consistency_hash(height) for r in honest]


def consistency_check(system) -> bool:
    """True if every honest replica's committed chain is a consistent prefix."""
    _height, hashes = _common_prefix(system)
    return len(set(hashes)) <= 1


def fingerprint(system) -> str:
    """``height:hash`` of the honest replicas' common committed prefix
    (empty without an honest replica): same run, same fingerprint."""
    height, hashes = _common_prefix(system)
    return f"{height}:{hashes[0]}" if hashes else ""


def start_clients(config: Configuration, clients: List[ClientBase]) -> None:
    """Start ``clients``, issuing until the measurement window ends."""
    stop_time = config.warmup + config.runtime
    for client in clients:
        client.start(stop_time=stop_time)


def start_nodes(system) -> None:
    """Start every replica, then every client."""
    for replica in system.replicas.values():
        replica.start()
    start_clients(system.config, system.clients)


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
    #: The fault schedule whose events are installed on ``scheduler``, if any.
    scenario: Optional[Scenario] = None

    honest_replicas = honest_replicas
    consistency_check = consistency_check
    start = start_nodes

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation to ``until`` (default: the configured horizon)."""
        horizon = until if until is not None else self.config.total_duration
        self.scheduler.run_until(horizon)

    def dismantle(self) -> None:
        """Cut the reference cycles of a cluster that is about to be dropped.

        A wired cluster is one big cycle — the scheduler's heap holds bound
        methods of the nodes, the nodes hold the scheduler and the network,
        the network holds their handlers — so without this only a full pass
        of the cyclic collector frees a finished run's forests, mempools and
        stores, and until one happens by they sit beside the next run's.
        Emptying each part's attributes leaves every object to its reference
        count.  The cluster can be neither run nor read afterwards; what was
        taken out of it before (the result, :attr:`metrics`) is untouched.
        Callers of :func:`build_cluster` / :func:`run_cluster`, who keep the
        cluster, never call this.
        """
        for replica in self.replicas.values():
            replica.pacemaker.stop()  # it and its armed timer hold each other
        for part in (self.scheduler, self.network, *self.replicas.values(), *self.clients):
            vars(part).clear()


@dataclass
class ExperimentResult:
    """Outcome of one experiment run, in either mode, with or without faults."""

    config: Configuration
    metrics: RunMetrics
    consistent: bool
    highest_view: int
    #: Committed Tx/s per time bucket: throughput around each injected event.
    timeline: List = field(default_factory=list)
    #: The fault schedule the run executed under, if any.
    scenario: Optional[Scenario] = None

    @property
    def latency_ms(self) -> float:
        """Mean latency in milliseconds."""
        return self.metrics.mean_latency * 1e3

    def mean_throughput(self, start: float, end: float) -> float:
        """Average Tx/s of the timeline buckets within [start, end)."""
        return timeline_mean(self.timeline, start, end)

    def to_dict(self) -> Dict:
        """Lossless JSON-compatible dict: the result's part of a campaign
        record (``"scenario"`` is present only when there is one)."""
        data: Dict[str, Any] = {"config": self.config.to_dict()}
        if self.scenario is not None:
            data["scenario"] = self.scenario.to_dict()
        data["metrics"] = self.metrics.to_dict()
        data["consistent"] = self.consistent
        data["highest_view"] = self.highest_view
        data["timeline"] = [[t, tps] for t, tps in self.timeline]
        return data


def collector_for(config: Configuration) -> MetricsCollector:
    """The run's metrics collector: windowed to the measurement interval,
    chain events taken from the first replica (the observer)."""
    return MetricsCollector(
        window_start=config.warmup,
        window_end=config.warmup + config.runtime,
        observer=config.node_ids()[0],
    )


def wire(
    config: Configuration,
    clock,
    fabric,
    registry: KeyRegistry,
    events: obs_trace.EventStream,
    costs: CryptoCostModel,
) -> Dict[str, Replica]:
    """Build the configured replicas on a clock and a message fabric.

    The single wiring of the protocol stack: the simulation passes its event
    scheduler and modelled network, a deployment its loop clock and TCP
    transport (:mod:`repro.transport.base` is the seam both satisfy).  Nothing
    is started.  The clients are :func:`build_clients`'.
    """
    election = make_election(config)
    byzantine = set(config.byzantine_ids())

    replicas: Dict[str, Replica] = {}
    for node_id in config.node_ids():
        replica_cls = STRATEGIES.get(config.strategy) if node_id in byzantine else Replica
        replicas[node_id] = replica_cls(
            node_id, clock, fabric, election, registry, config,
            cost_model=costs, events=events,
        )
    return replicas


def build_clients(
    config: Configuration,
    clock,
    fabric,
    streams: RandomStreams,
    events: obs_trace.EventStream,
) -> List[ClientBase]:
    """Build the configured clients on a clock and a message fabric:
    Poisson clients sharing ``arrival_rate`` when it is positive, closed-loop
    clients with ``concurrency`` outstanding requests each otherwise.

    The simulation builds them beside the replicas; a deployment builds them
    in its load-generator process (:mod:`repro.transport.runtime`), on that
    process's own clock and transport.  Nothing is started.
    """
    if config.arrival_rate > 0:
        # The configured arrival rate is the total across all clients.
        client = partial(PoissonClient, rate=config.arrival_rate / config.num_clients)
    else:
        client = partial(ClosedLoopClient, concurrency=config.concurrency)
    workload = WorkloadSpec(payload_size=config.payload_size)
    return [
        client(
            client_id,
            clock,
            fabric,
            streams,
            config.node_ids(),
            workload=workload,
            events=events,
            request_timeout=config.request_timeout,
        )
        for client_id in config.client_ids()
    ]


def build_cluster(config: Configuration, scenario: Optional[Scenario] = None) -> Cluster:
    """Wire up a *simulated* cluster, with the scenario's events scheduled.

    Deployment-mode configurations are built by
    :class:`repro.transport.runtime.DeploymentRunner` instead; this builder
    rejects them rather than silently simulating.
    """
    config.validate()
    if config.mode != "model":
        raise ConfigurationError(
            f"build_cluster is the simulation builder (mode='model'); "
            f"got mode={config.mode!r} — use repro.transport.runtime"
        )
    scheduler = EventScheduler()
    streams = RandomStreams(seed=config.seed)
    metrics = collector_for(config)
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
    replicas = wire(
        config, scheduler, network, registry, events, cost_profile(config.cost_profile)
    )
    clients = build_clients(config, scheduler, network, streams, events)
    cluster = Cluster(
        config=config,
        scheduler=scheduler,
        streams=streams,
        network=network,
        registry=registry,
        replicas=replicas,
        clients=clients,
        metrics=metrics,
        observer_id=metrics.observer,
        events=events,
        scenario=scenario,
    )
    if scenario is not None:
        scenario.schedule(cluster)
    return cluster


def summarize(
    system,
    horizon: float,
    bucket: float = DEFAULT_BUCKET,
    scenario: Optional[Scenario] = None,
) -> ExperimentResult:
    """The result of a finished run of ``system`` (simulated or deployed)."""
    observer = system.replicas[system.observer_id]
    return ExperimentResult(
        config=system.config,
        metrics=system.metrics.summarize(),
        consistent=consistency_check(system),
        highest_view=observer.pacemaker.stats.highest_view,
        timeline=system.metrics.throughput_timeline(bucket=bucket, end=horizon),
        scenario=scenario,
    )


def run_cluster(cluster: Cluster, bucket: float = DEFAULT_BUCKET) -> ExperimentResult:
    """Start a built cluster, run it to its horizon and summarise it.

    The simulated half of :func:`run_experiment`, for callers that go on to
    inspect the finished cluster's per-replica state (forests, stats,
    executors): the fuzz harness's invariant oracles audit exactly that.
    """
    scenario = cluster.scenario
    horizon = (
        scenario.horizon(cluster.config) if scenario is not None
        else cluster.config.total_duration
    )
    cluster.start()
    cluster.run(until=horizon)
    return summarize(cluster, horizon, bucket, scenario)


def run_experiment(
    config: Configuration,
    scenario: Optional[Scenario] = None,
    bucket: float = DEFAULT_BUCKET,
) -> ExperimentResult:
    """Build, start, and run one experiment; return its summarized result.

    Dispatches on ``config.mode``: "model" runs the discrete-event simulation
    here, under ``scenario``'s fault schedule if one is given, with the
    throughput timeline bucketed at ``bucket`` simulated seconds; "deploy"
    hands the same configuration to the real-transport runtime
    (:mod:`repro.transport`), which returns a result with the identical
    record schema.  Imported lazily so the simulation never loads asyncio
    machinery.
    """
    if config.mode == "deploy":
        if scenario is not None:
            # The shared wiring could put one on the wall clock; nobody has
            # asked for (or tested) crash-replica over real sockets.
            raise ConfigurationError(
                "scenarios schedule events on the simulated clock; "
                f"mode={config.mode!r} configurations cannot run one "
                "(use mode='model')"
            )
        from repro.transport.runtime import run_deployment

        return run_deployment(config)
    cluster = build_cluster(config, scenario)
    result = run_cluster(cluster, bucket)
    cluster.dismantle()  # not after a raise: the traceback's frames still read it
    return result
