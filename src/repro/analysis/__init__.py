"""Analysis: statistics, tables and figures over stored runs.

This subsystem closes the loop the campaign layer opened: campaigns produce
JSONL records (:mod:`repro.experiments`), and analysis turns those records
into the paper's deliverables — **without re-running a single simulation**:

* :mod:`repro.analysis.stats` — group records by campaign/params and collapse
  repetitions into mean / stddev / 95% CI aggregates (Student-t, stdlib);
* :mod:`repro.analysis.report` — cross-protocol comparison tables in text,
  markdown, and CSV (also the canonical table renderer for the CLI and the
  paper tables);
* :mod:`repro.analysis.figures` — campaign records as standalone SVG with
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
    comparison_table,
    csv_table,
    format_cell,
    format_measure,
    format_table,
    markdown_table,
    render,
    summary_rows,
)
from repro.analysis.stats import (
    Aggregate,
    GroupSummary,
    aggregate_records,
    aggregate_rows,
    t_critical,
)

__all__ = [
    "ATTACK_PANELS",
    "Aggregate",
    "FigureDef",
    "FigureError",
    "GroupSummary",
    "RenderedFigure",
    "aggregate_records",
    "aggregate_rows",
    "comparison_table",
    "compose_grid",
    "csv_table",
    "figure_for_campaign",
    "format_cell",
    "format_measure",
    "format_table",
    "markdown_table",
    "render",
    "render_chart",
    "render_figure",
    "render_panels",
    "render_store",
    "summary_rows",
    "t_critical",
]
