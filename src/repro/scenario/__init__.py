"""Declarative fault-schedule scenarios.

This package turns "what happens during the run" into data: a
:class:`Scenario` is a list of typed timeline events (crashes, recoveries,
fluctuation windows, partitions, delay/strategy/rate changes) that
:func:`repro.bench.runner.build_cluster` schedules on the cluster it builds
when handed one.  Scenarios serialize to/from JSON-style dicts, and event
kinds are an extension point (:func:`register_scenario_event`).
"""

from repro.scenario.events import (
    SCENARIO_EVENTS,
    CrashReplica,
    Heal,
    NetworkFluctuation,
    Partition,
    RecoverReplica,
    ScenarioEvent,
    SetArrivalRate,
    SetByzantine,
    SetDelayModel,
    register_scenario_event,
)
from repro.scenario.runner import Scenario

__all__ = [
    "SCENARIO_EVENTS",
    "CrashReplica",
    "Heal",
    "NetworkFluctuation",
    "Partition",
    "RecoverReplica",
    "Scenario",
    "ScenarioEvent",
    "SetArrivalRate",
    "SetByzantine",
    "SetDelayModel",
    "register_scenario_event",
]
