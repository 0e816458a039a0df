"""Typed timeline events: the vocabulary of declarative fault schedules.

Each event is a small dataclass with an ``at`` timestamp (simulated seconds)
and an ``apply(cluster)`` method; a :class:`~repro.scenario.runner.Scenario`
schedules every event on the cluster's event scheduler before the run
starts, so "crash r3 at t=20" is data, not imperative wiring inside an
experiment script.  Events serialize to JSON-compatible dicts tagged with a
``kind`` (mirroring Bamboo's JSON config file) and are themselves an
extension point: register new kinds with :func:`register_scenario_event`::

    @register_scenario_event("drop-messages")
    @dataclass
    class DropMessages(ScenarioEvent):
        fraction: float = 0.1
        def apply(self, cluster):
            ...

Replica references accept a concrete node id (``"r2"``) or the symbolic
names ``"first"`` / ``"last"`` (resolved against the cluster's node list;
``"last"`` is the conventional victim because r0 is the metrics observer).
"""

from __future__ import annotations

import dataclasses
from abc import abstractmethod
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Type

from repro.core.byzantine import STRATEGIES, convert_replica
from repro.network.delays import DELAY_MODELS, make_delay_model
from repro.network.fluctuation import FluctuationWindow
from repro.network.partition import Partition as NetworkPartition
from repro.obs import trace as obs_trace
from repro.plugins import Registry

#: The scenario-event extension point, keyed by each event's ``kind`` tag.
SCENARIO_EVENTS: Registry[Type["ScenarioEvent"]] = Registry("scenario event")


def register_scenario_event(name: str, *aliases: str, override: bool = False) -> Callable:
    """Class decorator registering a ScenarioEvent subclass under ``name``.

    Also stamps the class's ``kind`` attribute, which tags the event's JSON
    serialization.
    """

    def decorator(cls: Type["ScenarioEvent"]) -> Type["ScenarioEvent"]:
        cls.kind = name
        return SCENARIO_EVENTS.register(name, *aliases, override=override)(cls)

    return decorator


def available_scenario_events() -> List[str]:
    """Canonical names of the registered scenario event kinds."""
    return SCENARIO_EVENTS.available()


@dataclass
class ScenarioEvent:
    """Base class: something that happens to a cluster at a point in time."""

    kind: ClassVar[str] = ""

    #: When the event fires, in simulated seconds from the start of the run.
    at: float = 0.0

    def schedule(self, cluster) -> None:
        """Arrange for :meth:`apply` to run at ``self.at`` on ``cluster``."""
        cluster.scheduler.post_at(self.at, self._fire, cluster)

    def _fire(self, cluster) -> None:
        """Announce the event on the cluster's stream (``fault``), then apply it.

        Same scheduler entry as calling ``apply`` directly (one ``post_at``,
        no extra events), so a subscriber cannot perturb event order.
        """
        ev = cluster.events
        if ev.wants & obs_trace.FAULT:
            payload = {
                key: value
                for key, value in self.to_dict().items()
                if key not in ("kind", "at") and value is not None
            }
            alias = getattr(self, "replica", None)
            ev.emit(
                self.at,
                "cluster" if alias is None else resolve_replica(cluster, alias),
                obs_trace.FAULT,
                self.kind,
                0,
                payload or None,
            )
        self.apply(cluster)

    @abstractmethod
    def apply(self, cluster) -> None:
        """Mutate the cluster; runs at simulated time ``self.at``."""

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-compatible dict tagged with this event's ``kind``."""
        return {"kind": self.kind, **dataclasses.asdict(self)}

    @staticmethod
    def from_dict(data: Dict) -> "ScenarioEvent":
        """Rebuild an event from :meth:`to_dict` output via the registry."""
        params = dict(data)
        kind = params.pop("kind", None)
        if kind is None:
            raise ValueError(f"scenario event dict needs a 'kind' key: {data!r}")
        return SCENARIO_EVENTS.get(kind)(**params)


def resolve_replica(cluster, replica: str) -> str:
    """Resolve a replica reference (node id, "first", or "last") to an id."""
    node_ids = cluster.config.node_ids()
    if replica == "first":
        return node_ids[0]
    if replica == "last":
        return node_ids[-1]
    if replica not in cluster.replicas:
        raise ValueError(
            f"unknown replica {replica!r}; expected one of "
            f"{', '.join(node_ids)}, 'first', or 'last'"
        )
    return replica


@register_scenario_event("crash-replica", "crash")
@dataclass
class CrashReplica(ScenarioEvent):
    """Crash a replica: it stops participating and drops all traffic."""

    replica: str = "last"

    def apply(self, cluster) -> None:
        cluster.replicas[resolve_replica(cluster, self.replica)].crash()


@register_scenario_event("recover-replica", "recover")
@dataclass
class RecoverReplica(ScenarioEvent):
    """Recover a crashed replica; it rejoins with its pre-crash state.

    The replica rejoins view synchronization (timeouts, TCs) and its sync
    manager fetches the blocks certified while it was down from peers
    (:mod:`repro.sync`), so recovery restores *full* participation: the
    replica votes on — and can lead — chains extending blocks it missed.
    See :meth:`repro.core.replica.Replica.recover`, and ``docs/SCENARIOS.md``
    for a runnable crash → recover → catch-up schedule.
    """

    replica: str = "last"

    def apply(self, cluster) -> None:
        cluster.replicas[resolve_replica(cluster, self.replica)].recover()


@register_scenario_event("network-fluctuation", "fluctuation")
@dataclass
class NetworkFluctuation(ScenarioEvent):
    """A window of extra, highly variable delay on every replica link."""

    duration: float = 10.0
    min_delay: float = 5e-3
    max_delay: float = 50e-3

    def apply(self, cluster) -> None:
        cluster.network.add_fluctuation(
            FluctuationWindow(
                start=self.at,
                end=self.at + self.duration,
                min_delay=self.min_delay,
                max_delay=self.max_delay,
            )
        )


@register_scenario_event("partition", "split")
@dataclass
class Partition(ScenarioEvent):
    """Split the cluster into groups that cannot exchange messages.

    ``duration=None`` keeps the partition open until a :class:`Heal` event
    (or the end of the run).
    """

    groups: List[List[str]] = field(default_factory=list)
    duration: Optional[float] = None

    def apply(self, cluster) -> None:
        if not self.groups:
            raise ValueError("partition event needs at least one group")
        end = None if self.duration is None else self.at + self.duration
        cluster.network.add_partition(
            NetworkPartition(
                groups=tuple(frozenset(group) for group in self.groups),
                start=self.at,
                end=end,
            )
        )


@register_scenario_event("heal", "heal-partitions")
@dataclass
class Heal(ScenarioEvent):
    """Close every partition that is open at this point in time."""

    def apply(self, cluster) -> None:
        cluster.network.heal_partitions(self.at)


@register_scenario_event("set-delay-model", "set-delay")
@dataclass
class SetDelayModel(ScenarioEvent):
    """Swap the network's base or extra delay model mid-run.

    ``model`` is a JSON-style spec understood by
    :func:`repro.network.delays.make_delay_model`, e.g. ``{"kind": "normal",
    "mean_delay": 5e-3, "stddev": 1e-3}`` — this is how a scenario expresses
    "the WAN got slower at t=30".
    """

    model: Dict = field(default_factory=dict)
    #: Which delay the model replaces: "extra" (Table I's ``delay`` knob)
    #: or "base" (the LAN itself).
    target: str = "extra"

    def apply(self, cluster) -> None:
        if self.target not in ("base", "extra"):
            raise ValueError(f"delay target must be 'base' or 'extra', got {self.target!r}")
        model = make_delay_model(self.model)
        if self.target == "base":
            cluster.network.base_delay = model
        else:
            cluster.network.extra_delay = model


@register_scenario_event("set-byzantine", "turn-byzantine")
@dataclass
class SetByzantine(ScenarioEvent):
    """Convert a live replica to a Byzantine strategy (or back to honest).

    The replica keeps its protocol state; only its behaviour changes — the
    simulation analogue of an adversary corrupting a running node.
    """

    replica: str = "last"
    strategy: str = "silence"

    def apply(self, cluster) -> None:
        STRATEGIES.canonical(self.strategy)  # fail fast with the available list
        convert_replica(
            cluster.replicas[resolve_replica(cluster, self.replica)], self.strategy
        )


@register_scenario_event("set-arrival-rate", "set-rate")
@dataclass
class SetArrivalRate(ScenarioEvent):
    """Change the total open-loop arrival rate (Tx/s across all clients).

    Applies to clients with a ``rate`` attribute (the Poisson family);
    closed-loop clients have no rate and are left untouched.
    """

    rate: float = 0.0

    def apply(self, cluster) -> None:
        if self.rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.rate}")
        open_loop = [c for c in cluster.clients if hasattr(c, "rate")]
        for client in open_loop:
            client.rate = self.rate / len(open_loop)
