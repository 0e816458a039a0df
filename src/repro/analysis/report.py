"""Rows and tables: a stored record becomes a row once, a table picks columns.

This module owns the *row model* and its *rendering*.  A row is a flat dict:
:class:`Column` projects one value out of a campaign record (the paper
tables' columns), :func:`record_row` projects a whole stored record (its
campaign, its params, its numeric metrics and the :data:`HEADLINE_COLUMNS`),
and :func:`point_rows` collapses a record set's repetitions into one row per
logical point through :func:`~repro.analysis.stats.aggregate_rows`, the one
aggregation.  Every table then renders as fixed-width text
(:func:`format_table`, the one text-table renderer), GitHub-flavoured
markdown or CSV, so a table renders identically whichever way it leaves.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

from repro.analysis.stats import REPETITION_TAG, aggregate_rows

FORMATS = ("text", "markdown", "csv")


class Column(NamedTuple):
    """One projected column: where its value comes from in a campaign record
    (or, for the headline columns, in a run's metrics dict)."""

    header: str
    #: Dotted path into the record (``"metrics.mean_latency"``), or a
    #: function of the record for the genuinely derived columns.
    source: Union[str, Callable[[Dict[str, Any]], Any]]
    #: Display scaling of a path column (1e3 turns seconds into ms).
    scale: Optional[float] = None
    #: Projected for the claims but left out of the printed table.
    shown: bool = True

    def value(self, record: Dict[str, Any]) -> Any:
        if callable(self.source):
            return self.source(record)
        value: Any = record
        for part in self.source.split("."):
            value = value[part]
        return value if self.scale is None else value * self.scale


#: The headline metrics of a run, as paths into its metrics dict, with
#: latencies in milliseconds: what ``run``, ``deploy``, ``campaign`` and
#: ``report`` print.
HEADLINE_COLUMNS = (
    Column("throughput_tps", "throughput_tps"),
    Column("mean_latency_ms", "mean_latency", 1e3),
    Column("p99_latency_ms", "p99_latency", 1e3),
    Column("cgr", "chain_growth_rate"),
    Column("block_interval", "block_interval"),
    Column("committed_tx", "committed_transactions"),
)


def headline_row(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """The headline columns of one run's metrics dict (those it carries)."""
    return {c.header: c.value(metrics) for c in HEADLINE_COLUMNS if c.source in metrics}


def params_label(params: Dict[str, Any]) -> str:
    """A compact human label for a point: its params as ``k=v`` pairs."""
    if not params:
        return "-"
    return " ".join(f"{k.lstrip('_')}={v}" for k, v in params.items())


def record_row(record: Dict[str, Any]) -> Dict[str, Any]:
    """A stored campaign record as one flat row.

    The row carries the record's ``campaign``, its params (less the
    repetition tag) both as columns and as the ``params`` label, every
    numeric metric, the headline columns, and ``consistent``.  Config field
    names and metric names do not collide, so neither shadows the other.
    """
    params = {k: v for k, v in record.get("params", {}).items() if k != REPETITION_TAG}
    metrics = record.get("metrics", {})
    return {
        "campaign": record.get("campaign", ""),
        "params": params_label(params),
        **params,
        **{name: value for name, value in metrics.items()
           if isinstance(value, (int, float)) and not isinstance(value, bool)},
        **headline_row(metrics),
        "consistent": record.get("consistent", True),
    }


def point_rows(
    records: Iterable[Dict[str, Any]], metrics: Optional[Sequence[str]] = None
) -> List[Dict[str, Any]]:
    """One aggregated row per logical point of ``records``.

    Records are grouped by ``(campaign, params less the repetition tag)`` in
    first-seen (expansion) order; ``metrics`` restricts which columns are
    averaged (default: every numeric column that is not a param).
    """
    records = list(records)
    params = dict.fromkeys(
        k for record in records for k in record.get("params", {}) if k != REPETITION_TAG
    )
    return aggregate_rows([record_row(r) for r in records], keys=("campaign", *params),
                          metrics=metrics)


def format_cell(value: Any) -> str:
    """Render one table cell (None as '-', floats at two decimals)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


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
