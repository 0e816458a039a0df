"""Comparison tables over aggregated campaign results.

This module owns *rendering*: the canonical fixed-width text table the CLI
and every paper table print (:func:`format_table`), plus GitHub-flavoured
markdown and CSV for reports that leave the terminal, and the cross-protocol
comparison table built from :class:`~repro.analysis.stats.GroupSummary`
aggregates (mean ± 95% CI per metric).

All three formats share one row model — a list of dicts plus an ordered
column list — so a table renders identically whichever way it leaves.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.analysis.stats import Aggregate, GroupSummary

FORMATS = ("text", "markdown", "csv")

#: The headline metrics of the paper's comparison tables, with the unit
#: scaling applied for display (latencies in milliseconds).
DEFAULT_REPORT_METRICS = (
    ("throughput_tps", "throughput_tps", 1.0),
    ("mean_latency", "mean_latency_ms", 1e3),
    ("p99_latency", "p99_latency_ms", 1e3),
    ("chain_growth_rate", "cgr", 1.0),
    ("block_interval", "block_interval", 1.0),
)


def format_cell(value: Any) -> str:
    """Render one table cell (None as '-', floats at two decimals)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_measure(agg: Aggregate, scale: float = 1.0) -> str:
    """Render one aggregate as ``mean ±ci`` (just the mean when n == 1)."""
    shown = agg.scaled(scale)
    if shown.n == 1:
        return f"{shown.mean:.2f}"
    return f"{shown.mean:.2f} ±{shown.ci95:.2f}"


def format_table(rows: List[Dict[str, Any]], columns: Iterable[str]) -> str:
    """Render rows as a fixed-width text table (header + one line per row).

    This is the one text-table renderer: every ``python -m repro``
    subcommand, the paper tables included, delegates to it.
    """
    columns = list(columns)
    widths = {
        c: max(len(c), *(len(format_cell(r.get(c))) for r in rows)) if rows else len(c)
        for c in columns
    }
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  ".join(format_cell(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def markdown_table(rows: List[Dict[str, Any]], columns: Iterable[str]) -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    columns = list(columns)
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(format_cell(row.get(c)) for c in columns) + " |")
    return "\n".join(lines)


def csv_table(rows: List[Dict[str, Any]], columns: Iterable[str]) -> str:
    """Render rows as CSV (raw values, not display-formatted)."""
    columns = list(columns)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(c) is None else row.get(c) for c in columns])
    return buffer.getvalue().rstrip("\n")


def render(rows: List[Dict[str, Any]], columns: Iterable[str], fmt: str = "text") -> str:
    """Render rows in the named format ("text", "markdown", or "csv")."""
    if fmt == "text":
        return format_table(rows, columns)
    if fmt == "markdown":
        return markdown_table(rows, columns)
    if fmt == "csv":
        return csv_table(rows, columns)
    raise ValueError(f"unknown table format {fmt!r}; expected one of {', '.join(FORMATS)}")


def summary_rows(
    summaries: Sequence[GroupSummary],
    metrics: Optional[Sequence] = None,
    raw: bool = False,
) -> List[Dict[str, Any]]:
    """One comparison row per group: params label + per-metric measures.

    ``metrics`` entries are either plain metric names or ``(metric, column,
    scale)`` triples; the default is the paper's headline set with latencies
    in milliseconds.  With ``raw=True`` the cells are plain mean values (for
    CSV post-processing) instead of formatted ``mean ±ci`` strings.
    """
    chosen = _normalize_metrics(metrics)
    rows = []
    for summary in summaries:
        row: Dict[str, Any] = {
            "campaign": summary.campaign or "-",
            "params": summary.label(),
            "reps": summary.n,
        }
        for metric, column, scale in chosen:
            agg = summary.metrics.get(metric)
            if agg is None:
                row[column] = None
            elif raw:
                row[column] = agg.mean * scale
                row[f"{column}_ci95"] = agg.ci95 * scale
            else:
                row[column] = format_measure(agg, scale)
        if not summary.consistent:
            row["consistent"] = False
        rows.append(row)
    return rows


def comparison_table(
    summaries: Sequence[GroupSummary],
    metrics: Optional[Sequence] = None,
    fmt: str = "text",
) -> str:
    """The cross-protocol comparison table (one row per aggregated group)."""
    raw = fmt == "csv"
    rows = summary_rows(summaries, metrics=metrics, raw=raw)
    columns = ["campaign", "params", "reps"]
    for _metric, column, _scale in _normalize_metrics(metrics):
        columns.append(column)
        if raw:
            columns.append(f"{column}_ci95")
    if any("consistent" in row for row in rows):
        columns.append("consistent")
    return render(rows, columns, fmt=fmt)


def _normalize_metrics(metrics: Optional[Sequence]) -> List:
    if metrics is None:
        return [list(triple) for triple in DEFAULT_REPORT_METRICS]
    chosen = []
    for entry in metrics:
        if isinstance(entry, str):
            chosen.append((entry, entry, 1.0))
        else:
            metric, column, scale = entry
            chosen.append((metric, column, scale))
    return chosen
