"""Bamboo-py: a framework for prototyping and evaluating chained-BFT protocols.

This package reproduces the system described in "Dissecting the Performance
of Chained-BFT" (ICDCS 2021): the Bamboo prototyping framework, the three
evaluated protocols (HotStuff, two-chain HotStuff, Streamlet) plus two
extensions (Fast-HotStuff and an LBFT-inspired variant), the two Byzantine
attack strategies (forking and silence), the benchmark facilities, and the
analytical queuing model used to validate the implementation.

The public surface is the :mod:`repro.api` facade::

    from repro import api

    result = api.run({"protocol": "hotstuff", "num_nodes": 4,
                      "block_size": 400, "runtime": 2.0, "cost_profile": "fast"})
    print(result.metrics.to_dict())

Every part of an experiment is an extension point backed by a registry
(:mod:`repro.plugins`): protocols, Byzantine strategies, leader elections,
network delay models, client types, and scenario events.  Register your own
with the ``api.register_*`` decorators and select them by name from the
configuration; fault schedules are declarative :class:`~repro.scenario.Scenario`
objects that serialize to JSON.  See ``README.md`` for a worked example and
``examples/`` / ``benchmarks/`` for runnable scenarios and the regeneration
of every table and figure in the paper's evaluation.
"""

from repro import api
from repro.bench.config import Configuration, ConfigurationError
from repro.bench.metrics import MetricsCollector, RunMetrics
from repro.bench.runner import Cluster, ExperimentResult, build_cluster, run_experiment
from repro.bench.sweeps import SweepPoint, saturation_sweep
from repro.bench.timeline import ResponsivenessScenario, run_responsiveness
from repro.core.byzantine import ForkingReplica, SilentReplica
from repro.experiments import (
    CampaignResult,
    CampaignRunner,
    ExperimentSpec,
    ResultStore,
    run_campaign,
)
from repro.core.replica import Replica, ReplicaSettings
from repro.model.predictions import AnalyticalModel, ModelParameters
from repro.plugins import Registry, RegistryError
from repro.protocols.registry import available_protocols, make_safety
from repro.scenario import Scenario, ScenarioResult, ScenarioRunner, run_scenario

__version__ = "1.2.0"

__all__ = [
    "AnalyticalModel",
    "CampaignResult",
    "CampaignRunner",
    "Cluster",
    "Configuration",
    "ConfigurationError",
    "ExperimentResult",
    "ExperimentSpec",
    "ForkingReplica",
    "MetricsCollector",
    "ModelParameters",
    "Registry",
    "RegistryError",
    "Replica",
    "ReplicaSettings",
    "ResponsivenessScenario",
    "ResultStore",
    "RunMetrics",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "SilentReplica",
    "SweepPoint",
    "api",
    "available_protocols",
    "build_cluster",
    "make_safety",
    "run_campaign",
    "run_experiment",
    "run_responsiveness",
    "run_scenario",
    "saturation_sweep",
    "__version__",
]
