"""Repetition-aware statistics over stored campaign records.

The paper's figures are comparisons of *repeated* runs: every point carries
an error bar across seeds.  This module is the statistics layer of the
analysis subsystem: it consumes the JSONL records a
:class:`~repro.experiments.store.ResultStore` holds (or the equivalent
in-memory :class:`~repro.experiments.runner.CampaignResult` records) and
collapses repetitions into aggregates — it never executes a simulation.

Grouping
--------
Repetitions of one logical point share every parameter except the
``_repetition`` tag (the ``increment`` seed policy varies the seed *through
the config*, not through the params).  :func:`aggregate_records` therefore
groups records by ``(campaign, params - {_repetition})`` and aggregates every
numeric metric within each group, preserving first-seen (= expansion) order.

Confidence intervals
--------------------
``ci95`` is the half-width of the two-sided 95% confidence interval of the
mean under Student's t distribution: ``t(n-1) * s / sqrt(n)`` with the
critical values tabulated below (stdlib only — no scipy).  With a single
sample the interval is degenerate (``ci95 = 0``).

Latency percentiles
-------------------
Records store per-run summaries, not raw samples, so percentiles cannot be
re-computed exactly across repetitions.  Two complementary views are given:
the per-run percentile treated as an ordinary sample (mean ± CI in
``metrics``), and a sample-count-weighted pooled estimate in ``pooled``
(runs that observed more committed replies weigh more).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: The params key marking a record as repetition k of its point.
REPETITION_TAG = "_repetition"

#: Latency metrics that get a sample-count-weighted pooled estimate.
POOLED_LATENCY_METRICS = ("mean_latency", "median_latency", "p99_latency")

#: Two-sided 95% critical values of Student's t, by degrees of freedom.
#: For df beyond the table the normal limit (1.96) applies.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}


def t_critical(df: int) -> float:
    """The two-sided 95% Student-t critical value for ``df`` degrees of
    freedom (conservative between tabulated rows; 1.96 beyond df=120)."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if df in _T95:
        return _T95[df]
    below = [d for d in _T95 if d < df]
    if not below:
        return _T95[1]
    if df > 120:
        return 1.96
    # Between tabulated rows, use the next-lower df's (larger, conservative)
    # critical value.
    return _T95[max(below)]


@dataclass(frozen=True)
class Aggregate:
    """Mean / spread / 95% CI of one metric across a group's repetitions."""

    n: int
    mean: float
    stddev: float
    #: Half-width of the two-sided 95% CI of the mean (0 when n == 1).
    ci95: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "Aggregate":
        """Aggregate a non-empty list of per-repetition samples."""
        if not values:
            raise ValueError("cannot aggregate zero samples")
        n = len(values)
        mean = sum(values) / n
        if n == 1:
            return cls(n=1, mean=mean, stddev=0.0, ci95=0.0,
                       minimum=values[0], maximum=values[0])
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        stddev = math.sqrt(variance)
        ci95 = t_critical(n - 1) * stddev / math.sqrt(n)
        return cls(n=n, mean=mean, stddev=stddev, ci95=ci95,
                   minimum=min(values), maximum=max(values))

    def scaled(self, factor: float) -> "Aggregate":
        """The same aggregate under a linear unit change (e.g. s -> ms)."""
        return Aggregate(
            n=self.n, mean=self.mean * factor, stddev=self.stddev * abs(factor),
            ci95=self.ci95 * abs(factor),
            minimum=self.minimum * factor, maximum=self.maximum * factor,
        )

    def to_dict(self) -> Dict[str, float]:
        return {"n": self.n, "mean": self.mean, "stddev": self.stddev,
                "ci95": self.ci95, "min": self.minimum, "max": self.maximum}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "Aggregate":
        return cls(n=int(data["n"]), mean=data["mean"], stddev=data["stddev"],
                   ci95=data["ci95"], minimum=data["min"], maximum=data["max"])


def group_params(record: Dict[str, Any]) -> Dict[str, Any]:
    """A record's params with the repetition marker stripped — the identity
    of the logical point the record is a repetition of."""
    return {k: v for k, v in record.get("params", {}).items() if k != REPETITION_TAG}


def _group_key(record: Dict[str, Any]) -> Tuple[str, str]:
    params = group_params(record)
    return (
        record.get("campaign", ""),
        json.dumps(params, sort_keys=True, separators=(",", ":"), default=str),
    )


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class GroupSummary:
    """All repetitions of one logical point, collapsed into aggregates."""

    campaign: str
    params: Dict[str, Any]
    n: int
    metrics: Dict[str, Aggregate]
    #: Sample-count-weighted pooled latency estimates (see module docs).
    pooled: Dict[str, float] = field(default_factory=dict)
    #: Pointwise-aggregated throughput timeline: (t, mean_tps, ci95) per
    #: bucket, present when every record in the group carried a timeline.
    timeline: List[Tuple[float, float, float]] = field(default_factory=list)
    #: True when every repetition passed the consistency check.
    consistent: bool = True

    def metric(self, name: str) -> Aggregate:
        """The named metric's aggregate (KeyError if the metric is unknown)."""
        return self.metrics[name]

    def label(self, skip: Iterable[str] = ()) -> str:
        """A compact human label for the group (its params)."""
        hidden = set(skip) | {REPETITION_TAG}
        parts = [f"{k.lstrip('_')}={v}" for k, v in self.params.items() if k not in hidden]
        return " ".join(parts) if parts else "-"

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "campaign": self.campaign,
            "params": dict(self.params),
            "n": self.n,
            "metrics": {name: agg.to_dict() for name, agg in self.metrics.items()},
            "consistent": self.consistent,
        }
        if self.pooled:
            data["pooled"] = dict(self.pooled)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GroupSummary":
        return cls(
            campaign=data.get("campaign", ""),
            params=dict(data.get("params", {})),
            n=int(data.get("n", 1)),
            metrics={name: Aggregate.from_dict(agg)
                     for name, agg in data.get("metrics", {}).items()},
            pooled=dict(data.get("pooled", {})),
            consistent=bool(data.get("consistent", True)),
        )


def _aggregate_timelines(timelines: List[List]) -> List[Tuple[float, float, float]]:
    """Pointwise mean ± CI across per-repetition timelines.

    Repetitions of one point share horizon and bucket width, so their
    timelines align bucket for bucket; ragged tails (a run whose last commit
    landed a bucket earlier) are cut to the shortest common length.
    """
    if not timelines or any(not t for t in timelines):
        return []
    length = min(len(t) for t in timelines)
    points = []
    for i in range(length):
        t = timelines[0][i][0]
        agg = Aggregate.from_samples([timeline[i][1] for timeline in timelines])
        points.append((t, agg.mean, agg.ci95))
    return points


def aggregate_records(
    records: Iterable[Dict[str, Any]],
    metrics: Optional[Sequence[str]] = None,
) -> List[GroupSummary]:
    """Group records by (campaign, params sans ``_repetition``) and collapse
    each group's repetitions into per-metric aggregates.

    ``metrics`` restricts which metric names are aggregated (default: every
    numeric, non-bool metric present in the group's first record).  Groups
    appear in first-seen order, which for campaign output is expansion order.
    """
    groups: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for record in records:
        groups.setdefault(_group_key(record), []).append(record)

    summaries: List[GroupSummary] = []
    for members in groups.values():
        first = members[0]
        names = list(metrics) if metrics is not None else [
            name for name, value in first.get("metrics", {}).items() if _is_numeric(value)
        ]
        aggregated = {
            name: Aggregate.from_samples(
                [float(m["metrics"][name]) for m in members if name in m.get("metrics", {})]
            )
            for name in names
            if any(name in m.get("metrics", {}) for m in members)
        }
        pooled: Dict[str, float] = {}
        weights = [int(m.get("metrics", {}).get("latency_samples", 0)) for m in members]
        if sum(weights) > 0:
            for name in POOLED_LATENCY_METRICS:
                if all(name in m.get("metrics", {}) for m in members):
                    pooled[name] = (
                        sum(w * float(m["metrics"][name]) for w, m in zip(weights, members))
                        / sum(weights)
                    )
        summaries.append(
            GroupSummary(
                campaign=first.get("campaign", ""),
                params=group_params(first),
                n=len(members),
                metrics=aggregated,
                pooled=pooled,
                timeline=_aggregate_timelines([m.get("timeline") or [] for m in members]),
                consistent=all(m.get("consistent", True) for m in members),
            )
        )
    return summaries


def aggregate_rows(
    rows: Sequence[Dict[str, Any]],
    keys: Sequence[str],
    metrics: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Collapse flat result rows (one per repetition) into one row per group.

    This is the row-level twin of :func:`aggregate_records`, used by the
    paper tables (``python -m repro paper --reps N``), whose rows are flat:
    rows sharing the values of ``keys`` are one group; every other float
    column (or the explicit ``metrics`` list) is collapsed to its mean, with
    a ``<column>_ci95`` companion column carrying the 95% CI half-width, and
    a ``reps`` column carrying the group size.  Boolean columns are ANDed
    across the group (one failing repetition must not be masked by the
    first's pass — e.g. a ``consistent`` flag); other non-float columns
    (labels) are carried through from the group's first row.
    """
    groups: Dict[Tuple, List[Dict[str, Any]]] = {}
    for row in rows:
        groups.setdefault(tuple(row.get(k) for k in keys), []).append(row)

    collapsed: List[Dict[str, Any]] = []
    for members in groups.values():
        first = members[0]
        if metrics is not None:
            names = [m for m in metrics if m in first]
        else:
            names = [c for c, v in first.items()
                     if c not in keys and isinstance(v, float) and not isinstance(v, bool)]
        out = dict(first)
        for column, value in first.items():
            if column not in keys and isinstance(value, bool):
                out[column] = all(bool(m.get(column, True)) for m in members)
        for name in names:
            samples = [float(m[name]) for m in members if name in m]
            if not samples:
                continue
            agg = Aggregate.from_samples(samples)
            out[name] = agg.mean
            out[f"{name}_ci95"] = agg.ci95
        out["reps"] = len(members)
        collapsed.append(out)
    return collapsed
