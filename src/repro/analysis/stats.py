"""Repetition-aware statistics: the one aggregation of the analysis layer.

The paper's figures are comparisons of *repeated* runs: every point carries
an error bar across seeds.  :func:`aggregate_rows` collapses flat rows, one
per repetition, into one row per point: the paper tables, ``python -m repro
report`` and the figures all go through it, so a mean or a CI reads the same
wherever it is printed or drawn.  It never executes a simulation.

Grouping
--------
A row's group is the values of the caller's key columns.  The paper tables
key on their label columns; a stored record's row
(:func:`repro.analysis.report.record_row`) keys on its campaign and params.
Repetitions of one logical point share every param except the
``_repetition`` tag (repetition *k* varies the seed *through the config*,
not through the params), which the row leaves out.

Confidence intervals
--------------------
``<column>_ci95`` is the half-width of the two-sided 95% confidence interval
of the mean under Student's t distribution: ``t(n-1) * s / sqrt(n)`` with the
critical values tabulated below (stdlib only — no scipy).  With a single
sample the interval is degenerate (``ci95 = 0``).  Records store per-run
percentile summaries, not raw samples, so a latency percentile is averaged
across repetitions like any other per-run number.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The params key marking a record as repetition k of its point.
REPETITION_TAG = "_repetition"

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


def _mean_ci95(samples: Sequence[float]) -> Tuple[float, float]:
    """The mean of a non-empty sample list and the half-width of its 95% CI
    (0 when there is a single sample)."""
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in samples) / (n - 1)
    return mean, t_critical(n - 1) * math.sqrt(variance) / math.sqrt(n)


def aggregate_rows(
    rows: Sequence[Dict[str, Any]],
    keys: Sequence[str],
    metrics: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Collapse flat result rows (one per repetition) into one row per group.

    Rows sharing the values of ``keys`` are one group, in first-seen order.
    Every other numeric column (or the explicit ``metrics`` list) is
    collapsed to its mean, with a ``<column>_ci95`` companion column carrying
    the 95% CI half-width, and a ``reps`` column carries the group size.
    Boolean columns are ANDed across the group (one failing repetition must
    not be masked by the first's pass — e.g. a ``consistent`` flag); other
    columns (labels) are carried through from the group's first row.
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
                     if c not in keys and isinstance(v, (int, float)) and not isinstance(v, bool)]
        out = dict(first)
        for column, value in first.items():
            if column not in keys and isinstance(value, bool):
                out[column] = all(bool(m.get(column, True)) for m in members)
        for name in names:
            samples = [float(m[name]) for m in members if name in m]
            if not samples:
                continue
            out[name], out[f"{name}_ci95"] = _mean_ci95(samples)
        out["reps"] = len(members)
        collapsed.append(out)
    return collapsed
