"""Regression reporting: freeze an aggregate baseline, compare later runs.

The perf/quality trajectory of this repo needs a memory: a *baseline* is the
aggregated summary of one campaign (per-group, per-metric mean ± 95% CI)
frozen as JSON.  A later campaign over the same grid is compared group by
group: a metric **regresses** when its new mean lands outside the wider of
the two confidence intervals (plus an optional relative tolerance for
unrepeated runs, whose CIs are degenerate).  The comparison is directionless
— a metric that *improved* outside its CI is also flagged, since for these
metrics (chain growth rate, block interval, consistency) any unexplained
movement means behaviour changed.

**Per-metric tolerances** (``tolerances={"mean_latency": 0.1}``) override
the global relative tolerance for metrics with different noise floors.

``python -m repro regress`` wires this up: ``--freeze`` writes the baseline,
a later invocation compares and exits non-zero when anything moved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.stats import Aggregate, GroupSummary

BASELINE_VERSION = 1

#: Metrics compared by default: the paper's headline comparison set.  The
#: bookkeeping counters (committed transactions, sync bytes, ...) scale with
#: run length and grid shape and would flag on every legitimate change.
DEFAULT_REGRESS_METRICS = (
    "throughput_tps",
    "mean_latency",
    "p99_latency",
    "chain_growth_rate",
    "block_interval",
)


class BaselineError(ValueError):
    """A baseline file is malformed or does not match the compared records."""


def freeze(
    summaries: Sequence[GroupSummary],
    metrics: Sequence[str] = DEFAULT_REGRESS_METRICS,
) -> Dict[str, Any]:
    """Freeze aggregated summaries into a JSON-compatible baseline dict."""
    groups = []
    for summary in summaries:
        kept = {name: agg.to_dict() for name, agg in summary.metrics.items()
                if name in metrics}
        groups.append({
            "campaign": summary.campaign,
            "params": dict(summary.params),
            "n": summary.n,
            "metrics": kept,
        })
    return {"version": BASELINE_VERSION, "metrics": list(metrics), "groups": groups}


def save_baseline(path: Union[str, Path], baseline: Dict[str, Any]) -> Path:
    """Write a baseline dict as pretty JSON; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return target


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and sanity-check a baseline written by :func:`save_baseline`."""
    target = Path(path)
    try:
        data = json.loads(target.read_text())
    except FileNotFoundError:
        raise BaselineError(f"no such baseline: {target}")
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{target} is not valid JSON: {exc}")
    if not isinstance(data, dict) or "groups" not in data:
        raise BaselineError(f"{target} is not a regression baseline (no 'groups')")
    return data


def _params_key(campaign: str, params: Dict[str, Any]) -> str:
    body = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return f"{campaign}:{body}"


@dataclass
class Finding:
    """One metric of one group, compared against its frozen baseline."""

    campaign: str
    params: Dict[str, Any]
    metric: str
    baseline: Aggregate
    current: Aggregate
    #: The movement the CIs (and tolerance) allowed without flagging.
    allowed: float
    regressed: bool

    @property
    def delta(self) -> float:
        return self.current.mean - self.baseline.mean

    def describe(self) -> str:
        label = " ".join(f"{k.lstrip('_')}={v}" for k, v in self.params.items()) or "-"
        direction = "rose" if self.delta > 0 else "fell"
        return (
            f"{self.campaign} [{label}] {self.metric}: "
            f"{self.baseline.mean:.4g} -> {self.current.mean:.4g} "
            f"({direction} by {abs(self.delta):.4g}, allowed ±{self.allowed:.4g})"
        )


@dataclass
class RegressionReport:
    """Outcome of comparing a campaign's aggregates against a baseline."""

    findings: List[Finding] = field(default_factory=list)
    #: Baseline groups with no counterpart in the compared records.
    missing: List[str] = field(default_factory=list)
    #: Compared groups that were not in the baseline (informational).
    unmatched: List[str] = field(default_factory=list)
    compared_groups: int = 0

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.regressed]

    @property
    def ok(self) -> bool:
        """True when nothing moved outside its CI and no group disappeared."""
        return not self.regressions and not self.missing

    def render(self) -> str:
        lines = [
            f"compared {self.compared_groups} group(s), "
            f"{len(self.findings)} metric(s): "
            f"{len(self.regressions)} outside their confidence interval"
        ]
        for finding in self.regressions:
            lines.append(f"  REGRESSED  {finding.describe()}")
        for key in self.missing:
            lines.append(f"  MISSING    baseline group not in records: {key}")
        for key in self.unmatched:
            lines.append(f"  new        group not in baseline (ignored): {key}")
        if self.ok:
            lines.append("ok: every compared metric within its confidence interval")
        return "\n".join(lines)


def compare(
    baseline: Dict[str, Any],
    summaries: Sequence[GroupSummary],
    metrics: Optional[Sequence[str]] = None,
    tolerance: float = 0.0,
    tolerances: Optional[Dict[str, float]] = None,
) -> RegressionReport:
    """Compare aggregated summaries against a frozen baseline.

    A metric is flagged when its mean moves beyond
    ``max(old ci95, new ci95, tol * |old mean|)`` where ``tol`` is the
    metric's entry in ``tolerances`` (falling back to the global
    ``tolerance``) — i.e. it moved outside both runs' 95% confidence
    intervals.  Tolerance is the relative slack that keeps
    single-repetition baselines (degenerate CIs) usable; leave it 0 for
    strict repeated-run comparisons.
    """
    chosen = list(metrics) if metrics is not None else list(
        baseline.get("metrics", DEFAULT_REGRESS_METRICS)
    )
    tolerances = tolerances or {}
    current = {_params_key(s.campaign, s.params): s for s in summaries}
    report = RegressionReport()
    seen = set()
    for group in baseline.get("groups", []):
        key = _params_key(group.get("campaign", ""), group.get("params", {}))
        seen.add(key)
        summary = current.get(key)
        if summary is None:
            report.missing.append(key)
            continue
        report.compared_groups += 1
        for name in chosen:
            frozen = group.get("metrics", {}).get(name)
            agg = summary.metrics.get(name)
            if frozen is None or agg is None:
                continue
            base = Aggregate.from_dict(frozen)
            tol = tolerances.get(name, tolerance)
            allowed = max(base.ci95, agg.ci95, tol * abs(base.mean))
            report.findings.append(
                Finding(
                    campaign=summary.campaign,
                    params=dict(summary.params),
                    metric=name,
                    baseline=base,
                    current=agg,
                    allowed=allowed,
                    regressed=abs(agg.mean - base.mean) > allowed,
                )
            )
    report.unmatched = [key for key in current if key not in seen]
    return report
