"""Benchmark facilities: configuration, metrics, cost profiles, experiment runner.

The runner builds clusters entirely through the plugin registries
(:mod:`repro.plugins`); scripts should normally go through the
:mod:`repro.api` facade, and timed fault injection through
:mod:`repro.scenario`.
"""

from repro.bench.config import Configuration, ConfigurationError
from repro.bench.metrics import MetricsCollector, RunMetrics
from repro.bench.profiles import cost_profile
from repro.bench.runner import Cluster, ExperimentResult, build_cluster, run_experiment

__all__ = [
    "Cluster",
    "Configuration",
    "ConfigurationError",
    "ExperimentResult",
    "MetricsCollector",
    "RunMetrics",
    "build_cluster",
    "cost_profile",
    "run_experiment",
]
