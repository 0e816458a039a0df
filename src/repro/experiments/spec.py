"""Declarative experiment campaigns: a spec that expands into concrete runs.

An :class:`ExperimentSpec` is the JSON-round-trippable description of a whole
measurement campaign — the paper's Table 2 and Figs. 8-15 are each one spec:
a base :class:`~repro.bench.config.Configuration` plus parameter axes that
expand into the cross product of concrete runs.  Three axis mechanisms cover
every grid in the evaluation:

``grid``
    ``{"field": [values...]}`` — the Cartesian product over every listed
    field (Fig. 9's protocols × block sizes, Table 2's arrival rates).
``zip``
    ``{"field": [values...]}`` — parallel lists advanced together, for
    parameters that vary jointly (Fig. 15's ``(view_timeout,
    propose_wait_after_tc)`` settings).
``points``
    an explicit list of override dicts, for irregular grids the product
    cannot express (Fig. 12's per-protocol cluster sizes, Fig. 9's missing
    OHS-400 point).

The three compose: each explicit point is crossed with each zip row and each
grid combination.  Keys starting with ``_`` are *tags*: they are recorded in
each run's ``params`` (so report code can label series) but never touch the
configuration and never enter the run's content hash.

``repetitions`` replicates every expanded point; the ``seed_policy`` decides
how: ``"increment"`` (default) gives repetition *k* seed ``seed + k`` for
statistically independent repeats, ``"fixed"`` reuses the same seed (useful
to measure the simulator's own determinism).

Every concrete run carries a :func:`run_key` — a content hash over its
configuration (and scenario, if any) — which is how the
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

SEED_POLICIES = ("increment", "fixed")


class SpecError(ValueError):
    """An experiment spec is malformed (bad axis, unknown field, ...)."""


def _config_field_names() -> set:
    return {f.name for f in dataclasses.fields(Configuration)}


def run_key(config: Configuration, scenario: Optional[Scenario] = None,
            bucket: float = DEFAULT_BUCKET, salt: str = "") -> str:
    """Content hash identifying one concrete run (config + fault schedule).

    The key is a prefix of the SHA-256 of the canonical JSON serialization,
    so any field change produces a new key while labels/tags do not.  The
    timeline ``bucket`` participates only for scenario runs (it shapes the
    recorded timeline).  ``salt`` distinguishes deliberately identical runs
    — the ``"fixed"`` seed policy salts each repetition so same-seed repeats
    execute (and are stored) separately instead of deduplicating to one.
    """
    payload: Dict[str, Any] = {"config": config.to_dict()}
    if scenario is not None:
        payload["scenario"] = scenario.to_dict()
        payload["bucket"] = bucket
    if salt:
        payload["salt"] = salt
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
    #: Distinguishes deliberately identical runs (fixed-seed repetitions).
    salt: str = ""

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
        hashes the whole config (and scenario).
        """
        return run_key(self.config, self.scenario, self.bucket, self.salt)

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
            "salt": self.salt,
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
    zip_axes: Dict[str, List[Any]] = field(default_factory=dict)
    points: List[Dict[str, Any]] = field(default_factory=list)
    scenario: Optional[Scenario] = None
    repetitions: int = 1
    seed_policy: str = "increment"
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
        if self.repetitions < 1:
            problems.append(f"repetitions: must be >= 1, got {self.repetitions}")
        if self.seed_policy not in SEED_POLICIES:
            problems.append(
                f"seed_policy: unknown policy {self.seed_policy!r}; "
                f"expected one of {', '.join(SEED_POLICIES)}"
            )
        if self.bucket <= 0:
            problems.append(f"bucket: must be positive, got {self.bucket}")

        known = _config_field_names()

        def check_keys(origin: str, keys) -> None:
            for key in keys:
                if not key.startswith("_") and key not in known:
                    problems.append(
                        f"{origin}: {key!r} is not a Configuration field "
                        f"(tags must start with '_')"
                    )

        check_keys("grid", self.grid)
        check_keys("zip", self.zip_axes)
        for i, point in enumerate(self.points):
            if not isinstance(point, dict):
                problems.append(f"points[{i}]: expected a dict of overrides")
                continue
            check_keys(f"points[{i}]", point)

        for origin, axes in (("grid", self.grid), ("zip", self.zip_axes)):
            for key, values in axes.items():
                if not isinstance(values, (list, tuple)) or not values:
                    problems.append(f"{origin}.{key}: expected a non-empty list")

        if self.zip_axes:
            lengths = {key: len(values) for key, values in self.zip_axes.items()}
            if len(set(lengths.values())) > 1:
                problems.append(f"zip: axes must have equal lengths, got {lengths}")

        overlap = set(self.grid) & set(self.zip_axes)
        if overlap:
            problems.append(
                f"grid/zip: the same field cannot be on both axes: {sorted(overlap)}"
            )
        point_keys = set().union(*(p.keys() for p in self.points if isinstance(p, dict))) if self.points else set()
        for origin, axis_keys in (("grid", set(self.grid)), ("zip", set(self.zip_axes))):
            clash = point_keys & axis_keys
            if clash:
                problems.append(
                    f"points/{origin}: the same field cannot be an axis and a "
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

        Order is deterministic: explicit points (in list order) × zip rows
        (in list order) × grid combinations (itertools.product over the grid
        fields in insertion order) × repetitions.
        """
        points = self.points or [{}]
        if self.zip_axes:
            keys = list(self.zip_axes)
            length = len(self.zip_axes[keys[0]])
            zip_rows = [
                {key: self.zip_axes[key][i] for key in keys} for i in range(length)
            ]
        else:
            zip_rows = [{}]
        grid_keys = list(self.grid)
        if grid_keys:
            grid_combos = [
                dict(zip(grid_keys, values))
                for values in itertools.product(*(self.grid[k] for k in grid_keys))
            ]
        else:
            grid_combos = [{}]

        runs: List[RunSpec] = []
        index = 0
        for point in points:
            for zip_row in zip_rows:
                for combo in grid_combos:
                    overrides = {**point, **zip_row, **combo}
                    tags = {k: v for k, v in overrides.items() if k.startswith("_")}
                    fields = {k: v for k, v in overrides.items() if not k.startswith("_")}
                    config = self.base.replace(**fields) if fields else self.base
                    for rep in range(self.repetitions):
                        rep_config = config
                        salt = ""
                        if rep and self.seed_policy == "increment":
                            rep_config = config.replace(seed=config.seed + rep)
                        elif rep and self.seed_policy == "fixed":
                            # Same-seed repeats are content-identical; salt
                            # the key so each one executes and is stored.
                            salt = f"repetition-{rep}"
                        params = {**fields, **tags}
                        if self.repetitions > 1:
                            params["_repetition"] = rep
                        runs.append(
                            RunSpec(
                                campaign=self.name,
                                index=index,
                                repetition=rep,
                                params=params,
                                config=rep_config,
                                scenario=self.scenario,
                                bucket=self.bucket,
                                salt=salt,
                            )
                        )
                        index += 1
        return runs

    def __len__(self) -> int:
        points = len(self.points) if self.points else 1
        zipped = len(next(iter(self.zip_axes.values()))) if self.zip_axes else 1
        grid = 1
        for values in self.grid.values():
            grid *= len(values)
        return points * zipped * grid * self.repetitions

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-compatible dict (omitting empty axes)."""
        data: Dict[str, Any] = {"name": self.name, "base": self.base.to_dict()}
        if self.grid:
            data["grid"] = {k: list(v) for k, v in self.grid.items()}
        if self.zip_axes:
            data["zip"] = {k: list(v) for k, v in self.zip_axes.items()}
        if self.points:
            data["points"] = [dict(p) for p in self.points]
        if self.scenario is not None:
            data["scenario"] = self.scenario.to_dict()
        if self.repetitions != 1:
            data["repetitions"] = self.repetitions
        if self.seed_policy != "increment":
            data["seed_policy"] = self.seed_policy
        if self.bucket != DEFAULT_BUCKET:
            data["bucket"] = self.bucket
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec serialized with :meth:`to_dict` (``zip`` alias ok).

        Unknown top-level keys are rejected — a flat Configuration dict (or
        a misspelled field) would otherwise silently expand to the default
        configuration.
        """
        if "spec" in data and isinstance(data["spec"], dict):
            data = data["spec"]
        known = {"name", "base", "config", "grid", "zip", "zip_axes",
                 "points", "scenario", "repetitions", "seed_policy", "bucket"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown spec keys: {', '.join(unknown)} "
                f"(expected {', '.join(sorted(known - {'config', 'zip_axes'}))}; "
                f"Configuration fields belong under 'base')"
            )
        return cls(
            name=data.get("name", "campaign"),
            base=data.get("base", data.get("config", {})),
            grid=data.get("grid", {}),
            zip_axes=data.get("zip", data.get("zip_axes", {})),
            points=data.get("points", []),
            scenario=data.get("scenario"),
            repetitions=data.get("repetitions", 1),
            seed_policy=data.get("seed_policy", "increment"),
            bucket=data.get("bucket", DEFAULT_BUCKET),
        )

    def to_json(self, **kwargs: Any) -> str:
        """The spec as a JSON string (``indent=2`` by default)."""
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
