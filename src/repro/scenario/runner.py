"""Scenarios: named, serializable fault schedules.

A :class:`Scenario` is a list of typed timeline events plus an optional
duration override — the declarative replacement for hand-wiring fault
injection into each experiment script.  ``Scenario.from_dict`` /
``to_dict`` round-trip through the same JSON configuration style as
:class:`~repro.bench.config.Configuration`, so a whole experiment (cluster +
fault schedule) can live in one config file::

    {
      "config":   {"protocol": "hotstuff", "num_nodes": 4, ...},
      "scenario": {"name": "responsiveness", "events": [
          {"kind": "network-fluctuation", "at": 5.0, "duration": 10.0,
           "min_delay": 0.005, "max_delay": 0.05},
          {"kind": "crash-replica", "at": 20.0, "replica": "last"}
      ]}
    }

Running one is the ordinary run path with the optional argument given:
:func:`repro.bench.runner.build_cluster` schedules every event on the cluster
it builds, and :func:`repro.bench.runner.run_experiment` runs to the
scenario's horizon and returns the same
:class:`~repro.bench.runner.ExperimentResult`, whose throughput timeline is
what the paper's Fig. 15 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.scenario.events import ScenarioEvent

if TYPE_CHECKING:  # repro.bench imports this package, not the other way round
    from repro.bench.config import Configuration
    from repro.bench.runner import Cluster


@dataclass
class Scenario:
    """A named schedule of timeline events applied to one run."""

    name: str = "scenario"
    events: List[ScenarioEvent] = field(default_factory=list)
    #: Simulated end time of the run; ``None`` uses the configuration's
    #: ``total_duration``.
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        self.events = [
            ScenarioEvent.from_dict(e) if isinstance(e, dict) else e
            for e in self.events
        ]

    def schedule(self, cluster: Cluster) -> None:
        """Install every event on the cluster's scheduler (before start)."""
        for event in self.events:
            event.schedule(cluster)

    def horizon(self, config: Configuration) -> float:
        """The simulated end time of the run."""
        return self.duration if self.duration is not None else config.total_duration

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Serialize to a JSON-compatible dict."""
        data: Dict = {"name": self.name, "events": [e.to_dict() for e in self.events]}
        if self.duration is not None:
            data["duration"] = self.duration
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        """Rebuild a scenario serialized with :meth:`to_dict`."""
        return cls(
            name=data.get("name", "scenario"),
            events=[ScenarioEvent.from_dict(e) for e in data.get("events", [])],
            duration=data.get("duration"),
        )
