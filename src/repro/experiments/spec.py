"""Declarative experiment campaigns: a spec that expands into concrete runs.

An :class:`ExperimentSpec` is the JSON-round-trippable description of a whole
measurement campaign — the paper's Table 2 and Figs. 8-15 are each one spec:
a base :class:`~repro.bench.config.Configuration` plus the overrides that
expand into concrete runs.  Two axis mechanisms cover every grid in the
evaluation:

``grid``
    ``{"field": [values...]}`` — the Cartesian product over every listed
    field (Fig. 9's protocols × block sizes, Table 2's arrival rates).
``points``
    an explicit list of override dicts, for fields that vary together or
    irregular grids the product cannot express (Fig. 12's per-protocol
    cluster sizes, Fig. 15's ``(view_timeout, propose_wait_after_tc)``
    settings).

Each explicit point is crossed with each grid combination.  Keys starting
with ``_`` are *tags*: they are recorded in each run's ``params`` (so report
code can label series) but never touch the configuration and never enter the
run's content hash.

``repetitions`` replicates every expanded point; repetition *k* runs with
seed ``seed + k``, so repeats are statistically independent.

Every concrete run carries a :func:`run_key` — a content hash over the
configuration fields it sets (and its scenario, if any) — which is how the
:class:`~repro.experiments.store.ResultStore` recognizes already-finished
points when a campaign is resumed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.config import Configuration
from repro.bench.metrics import DEFAULT_BUCKET
from repro.scenario import Scenario

class SpecError(ValueError):
    """An experiment spec is malformed (bad axis, unknown field, ...)."""


def _config_field_names() -> set:
    return {f.name for f in dataclasses.fields(Configuration)}


def run_key(config: Configuration, scenario: Optional[Scenario] = None,
            bucket: float = DEFAULT_BUCKET) -> str:
    """Content hash identifying one concrete run (config + fault schedule).

    The key is a prefix of the SHA-256 of the canonical JSON serialization of
    :meth:`Configuration.overrides` — the fields the run sets — so any field
    change produces a new key while labels/tags do not, and a field every
    run leaves at its default can be added or deleted without moving a key.
    The defaults themselves are pinned by ``tests/golden/config_defaults.json``:
    changing one changes what an unchanged key runs.  The timeline ``bucket``
    participates only for scenario runs (it shapes the recorded timeline).
    """
    payload: Dict[str, Any] = {"config": config.overrides()}
    if scenario is not None:
        payload["scenario"] = scenario.to_dict()
        payload["bucket"] = bucket
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunSpec:
    """One concrete run expanded from an :class:`ExperimentSpec`."""

    campaign: str
    index: int
    repetition: int
    #: The axis overrides that produced this run, including ``_`` tags.
    params: Dict[str, Any]
    config: Configuration
    scenario: Optional[Scenario] = None
    bucket: float = DEFAULT_BUCKET

    def __post_init__(self) -> None:
        if isinstance(self.config, dict):
            self.config = Configuration.from_dict(self.config)
        if isinstance(self.scenario, dict):
            self.scenario = Scenario.from_dict(self.scenario)

    @cached_property
    def run_id(self) -> str:
        """The content hash keying this run in a :class:`ResultStore`.

        Cached: the runner consults it several times per run (pending
        filter, record, bookkeeping), and each computation serializes and
        hashes the config's overrides (and scenario).
        """
        return run_key(self.config, self.scenario, self.bucket)

    def payload(self) -> Dict[str, Any]:
        """A picklable/JSON dict handed to campaign worker processes
        (``RunSpec(**payload)`` is this run again)."""
        return {
            "campaign": self.campaign,
            "index": self.index,
            "repetition": self.repetition,
            "params": self.params,
            "config": self.config.to_dict(),
            "scenario": None if self.scenario is None else self.scenario.to_dict(),
            "bucket": self.bucket,
        }

    def arguments(self) -> Tuple[Configuration, Optional[Scenario], float]:
        """What :func:`repro.bench.runner.run_experiment` is called with.

        ``bucket`` shapes the timeline of scenario runs and is part of their
        run key.  The key of a run without a scenario does not cover it
        (:func:`run_key`), so such a run is always bucketed at
        :data:`DEFAULT_BUCKET`: two specs that differ only in ``bucket`` must
        not store different bytes under one run id.
        """
        bucket = self.bucket if self.scenario is not None else DEFAULT_BUCKET
        return self.config, self.scenario, bucket

    def record(self, result) -> Dict[str, Any]:
        """The stored record of this run: its identity, then the result's
        :meth:`~repro.bench.runner.ExperimentResult.to_dict` (``config``,
        ``scenario`` when there is one, ``metrics``, ``consistent``,
        ``highest_view``, ``timeline``).  Every record is made here."""
        return {
            "run_id": self.run_id,
            "campaign": self.campaign,
            "index": self.index,
            "repetition": self.repetition,
            "params": self.params,
        } | result.to_dict()


@dataclass
class ExperimentSpec:
    """A declarative campaign: base configuration plus parameter axes."""

    name: str = "campaign"
    base: Configuration = field(default_factory=Configuration)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    points: List[Dict[str, Any]] = field(default_factory=list)
    scenario: Optional[Scenario] = None
    repetitions: int = 1
    #: Timeline bucket width for scenario runs (simulated seconds).
    bucket: float = DEFAULT_BUCKET

    def __post_init__(self) -> None:
        if isinstance(self.base, dict):
            self.base = Configuration.from_dict(self.base)
        if isinstance(self.scenario, dict):
            self.scenario = Scenario.from_dict(self.scenario)
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        problems: List[str] = []
        if not isinstance(self.base, Configuration):
            problems.append(f"base: expected a Configuration dict, got {type(self.base).__name__}")
        if not isinstance(self.scenario, (Scenario, type(None))):
            problems.append(f"scenario: expected a Scenario dict, got {type(self.scenario).__name__}")
        if type(self.repetitions) is not int or self.repetitions < 1:
            problems.append(f"repetitions: must be a positive integer, got {self.repetitions!r}")
        if (isinstance(self.bucket, bool) or not isinstance(self.bucket, (int, float))
                or not self.bucket > 0):
            problems.append(f"bucket: must be a positive number, got {self.bucket!r}")

        known = _config_field_names()

        def check_keys(origin: str, keys) -> None:
            for key in keys:
                if not (isinstance(key, str) and key.startswith("_")) and key not in known:
                    problems.append(
                        f"{origin}: {key!r} is not a Configuration field "
                        f"(tags must start with '_')"
                    )

        grid, points = self.grid, self.points
        if not isinstance(grid, dict):
            problems.append(f"grid: expected a dict of field -> values, got {type(grid).__name__}")
            grid = {}
        check_keys("grid", grid)
        for key, values in grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                problems.append(f"grid.{key}: expected a non-empty list")

        if not isinstance(points, list):
            problems.append(f"points: expected a list of override dicts, got {type(points).__name__}")
            points = []
        point_keys = set()
        for i, point in enumerate(points):
            if not isinstance(point, dict):
                problems.append(f"points[{i}]: expected a dict of overrides")
                continue
            check_keys(f"points[{i}]", point)
            point_keys.update(point)
        clash = point_keys & set(grid)
        if clash:
            problems.append(
                f"points/grid: the same field cannot be an axis and a "
                f"point override: {sorted(clash)}"
            )

        if problems:
            raise SpecError(
                f"invalid experiment spec {self.name!r}:\n  - " + "\n  - ".join(problems)
            )

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def expand(self) -> List[RunSpec]:
        """Expand the axes into the ordered list of concrete runs.

        Order is deterministic: explicit points (in list order) × grid
        combinations (itertools.product over the grid fields in insertion
        order) × repetitions.
        """
        combos = [
            dict(zip(self.grid, values))
            for values in itertools.product(*self.grid.values())
        ]
        runs: List[RunSpec] = []
        for point, combo in itertools.product(self.points or [{}], combos):
            overrides = {**point, **combo}
            tags = {k: v for k, v in overrides.items() if k.startswith("_")}
            fields = {k: v for k, v in overrides.items() if not k.startswith("_")}
            config = self.base.replace(**fields) if fields else self.base
            for rep in range(self.repetitions):
                params = {**fields, **tags}
                if self.repetitions > 1:
                    params["_repetition"] = rep
                runs.append(
                    RunSpec(
                        campaign=self.name,
                        index=len(runs),
                        repetition=rep,
                        params=params,
                        config=config.replace(seed=config.seed + rep) if rep else config,
                        scenario=self.scenario,
                        bucket=self.bucket,
                    )
                )
        return runs

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-compatible dict (omitting empty axes and defaults)."""
        data: Dict[str, Any] = {"name": self.name, "base": self.base.overrides()}
        if self.grid:
            data["grid"] = {k: list(v) for k, v in self.grid.items()}
        if self.points:
            data["points"] = [dict(p) for p in self.points]
        if self.scenario is not None:
            data["scenario"] = self.scenario.to_dict()
        if self.repetitions != 1:
            data["repetitions"] = self.repetitions
        if self.bucket != DEFAULT_BUCKET:
            data["bucket"] = self.bucket
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec serialized with :meth:`to_dict`.

        The keys are this class's field names and nothing else: a flat
        Configuration dict (or a misspelled key) would otherwise silently
        expand to the default configuration.
        """
        known = [f.name for f in dataclasses.fields(cls)]
        unknown = sorted(map(str, set(data) - set(known)))
        if unknown:
            raise SpecError(
                f"unknown spec keys: {', '.join(unknown)} "
                f"(expected {', '.join(known)}; "
                f"Configuration fields belong under 'base')"
            )
        return cls(**data)
