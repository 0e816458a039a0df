"""Analysis: statistics, tables and figures over stored runs.

This subsystem closes the loop the campaign layer opened: campaigns produce
JSONL records (:mod:`repro.experiments`), and analysis turns those records
into the paper's deliverables — **without re-running a single simulation**.
There is one pipeline: records → rows → :func:`aggregate_rows` → table,
claims or chart.

* :mod:`repro.analysis.report` — the row model (:class:`Column`, the
  :data:`HEADLINE_COLUMNS`, :func:`record_row`, :func:`point_rows`) and the
  table renderers in text, markdown and CSV (the canonical renderer for the
  CLI and the paper tables);
* :mod:`repro.analysis.stats` — :func:`aggregate_rows`, which collapses
  repetitions into a mean and a ``<column>_ci95`` (Student-t, stdlib);
* :mod:`repro.analysis.figures` — aggregated rows as standalone SVG with
  error bars, pure stdlib (the paper's figures 8-15 and Table II are
  described by their entries in :mod:`repro.experiments.paper`).

Exposed on the facade as :func:`repro.api.aggregate` / :func:`repro.api.plot`
and on the command line as ``python -m repro report | plot``.
"""

from repro.analysis.figures import (
    ATTACK_PANELS,
    FigureDef,
    FigureError,
    RenderedFigure,
    compose_grid,
    figure_for_campaign,
    render_chart,
    render_figure,
    render_panels,
    render_store,
)
from repro.analysis.report import (
    HEADLINE_COLUMNS,
    Column,
    csv_table,
    format_cell,
    format_table,
    headline_row,
    markdown_table,
    params_label,
    point_rows,
    record_row,
    render,
)
from repro.analysis.stats import aggregate_rows, t_critical

__all__ = [
    "ATTACK_PANELS",
    "Column",
    "FigureDef",
    "FigureError",
    "HEADLINE_COLUMNS",
    "RenderedFigure",
    "aggregate_rows",
    "compose_grid",
    "csv_table",
    "figure_for_campaign",
    "format_cell",
    "format_table",
    "headline_row",
    "markdown_table",
    "params_label",
    "point_rows",
    "record_row",
    "render",
    "render_chart",
    "render_figure",
    "render_panels",
    "render_store",
    "t_critical",
]
