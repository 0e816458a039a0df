"""Paper figures rendered as standalone SVG from stored campaign records.

The paper's evaluation is figures 8-15 plus Table II — every one a
cross-protocol comparison.  This module renders them from
:class:`~repro.experiments.store.ResultStore` records (or in-memory campaign
records) with 95%-CI error bars across repetitions, **without executing a
single simulation**: each record becomes a row
(:func:`repro.analysis.report.record_row`), the rows are aggregated like a
paper table's (:func:`repro.analysis.stats.aggregate_rows`), and the means
and CIs are drawn with a small pure-stdlib SVG line-chart kit (no matplotlib
— the container has none, and SVG text diffs cleanly in review).

Each :class:`FigureDef` names the campaign prefix it renders (``fig9`` for
any campaign called ``fig9*``), the chart axes, and how series are labelled
from the records' params.  The paper's figures are not listed here: each is
the ``figure`` of its entry in :mod:`repro.experiments.paper`, next to the
campaign whose records it draws, and :func:`known_figures` reads them off
that table.  Campaigns without a paper figure fall back to a generic
throughput chart, or to explicit ``x``/``y`` choices via the CLI (``python -m
repro plot --x concurrency --y throughput_tps``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.analysis.report import point_rows, record_row
from repro.analysis.stats import aggregate_rows

#: Okabe-Ito colorblind-safe palette (series cycle through it).
PALETTE = (
    "#0072B2",  # blue
    "#E69F00",  # orange
    "#009E73",  # green
    "#D55E00",  # vermillion
    "#CC79A7",  # purple
    "#56B4E9",  # sky
    "#F0E442",  # yellow
    "#000000",  # black
)

_FONT = "font-family=\"Helvetica,Arial,sans-serif\""


class FigureError(ValueError):
    """The records cannot be rendered with the requested figure definition."""


@dataclass(frozen=True)
class FigureDef:
    """How one paper figure maps stored records onto chart axes."""

    key: str
    title: str
    xlabel: str
    ylabel: str
    #: Row column giving a point's x value: a param (``"arrival_rate"``),
    #: or a metric to plot one measured metric against another
    #: (``"throughput_tps"``, the throughput/latency curves).
    x: str
    #: Row column giving a point's y value (error bars from its 95% CI).
    y: str
    #: Display scaling of the y metric (1e3 turns seconds into ms).
    y_scale: float = 1.0
    #: Params keys joined into the series label; ``None`` picks the first
    #: present of ``_series`` / ``_label`` / ``_arm`` / ``protocol``.
    series_keys: Optional[Tuple[str, ...]] = None
    #: Plot the per-record throughput timeline instead of one point per group:
    #: each (record, bucket) is a row with ``x="time"`` and ``y`` its Tx/s.
    timeline: bool = False
    #: Treat x values as category labels (evenly spaced, e.g. ablation arms).
    categorical: bool = False
    #: Extra ``(metric, ylabel, y_scale)`` panels.  When set, the figure
    #: renders as a grid of sub-charts sharing the x axis — one panel per
    #: entry — instead of the single ``y`` chart.  Panels whose metric is
    #: absent from every record are skipped (at least one must render).
    panels: Optional[Tuple[Tuple[str, str, float], ...]] = None


#: The four headline metrics of the attack figures (13 and 14).  The paper
#: plots one metric per figure; rendering all four as panels shows the whole
#: degradation profile — an attack that leaves throughput intact can still
#: stretch latency or stall chain growth.
ATTACK_PANELS: Tuple[Tuple[str, str, float], ...] = (
    ("throughput_tps", "throughput (Tx/s)", 1.0),
    ("mean_latency", "mean latency (ms)", 1e3),
    ("chain_growth_rate", "chain growth rate (blocks/s)", 1.0),
    ("block_interval", "block interval (s)", 1.0),
)

def known_figures() -> Dict[str, FigureDef]:
    """Every known figure by key: the paper table's.

    The table is imported here, not at module level: it sits above this
    module (its entries hold ``FigureDef`` objects) and only plotting needs it.
    """
    from repro.experiments.paper import ENTRIES

    return {entry.figure.key: entry.figure for entry in ENTRIES}


def _known_figure(key: str) -> FigureDef:
    known = known_figures()
    if key not in known:
        raise FigureError(f"unknown figure {key!r}; known: {', '.join(sorted(known))}")
    return known[key]


_GENERIC = FigureDef(
    key="generic",
    title="campaign", xlabel="group", ylabel="throughput (Tx/s)",
    x="", y="throughput_tps", categorical=True,
)


def figure_for_campaign(name: str) -> Optional[FigureDef]:
    """The figure whose key prefixes the campaign name, if any."""
    for key, fig in known_figures().items():
        if name.startswith(key):
            return fig
    return None


# ----------------------------------------------------------------------
# chart model
# ----------------------------------------------------------------------
@dataclass
class ChartPoint:
    x: float
    y: float
    err: float = 0.0


@dataclass
class ChartSeries:
    label: str
    points: List[ChartPoint] = field(default_factory=list)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _series_label(row: Dict[str, Any], keys: Optional[Tuple[str, ...]]) -> str:
    if keys is None:
        for candidate in ("_series", "_label", "_arm", "protocol"):
            if candidate in row:
                return str(row[candidate])
        return row["params"]
    present = [str(row[k]) for k in keys if k in row]
    return " ".join(present) if present else row["params"]


def _timeline_rows(records: Sequence[Dict[str, Any]], figure: FigureDef) -> List[Dict[str, Any]]:
    """One row per (record, bucket), aggregated over (series, time).

    Repetitions of one point share horizon and bucket width, so their
    timelines align bucket for bucket; each series is cut to its shortest
    timeline (a run whose last commit landed a bucket earlier), and a series
    with a record that has no timeline is left out.
    """
    rows = [record_row(record) for record in records]
    labels = [_series_label(row, figure.series_keys) for row in rows]
    timelines = [record.get("timeline") or [] for record in records]
    length: Dict[str, int] = {}
    for label, timeline in zip(labels, timelines):
        length[label] = min(length.get(label, len(timeline)), len(timeline))
    projected = [
        {**row, "series": label, "time": t, figure.y: tps}
        for row, label, timeline in zip(rows, labels, timelines)
        for t, tps in timeline[:length[label]]
    ]
    return aggregate_rows(projected, keys=("series", "time"), metrics=(figure.y,))


def build_series(
    rows: Sequence[Dict[str, Any]], figure: FigureDef
) -> Tuple[List[ChartSeries], List[str]]:
    """Turn aggregated rows into chart series per the figure definition.

    Returns ``(series, x_categories)`` — categories are empty for numeric x.
    Points keep first-seen (expansion) order within each series, which is
    what makes the throughput/latency curves trace the load sweep.
    """
    series: Dict[str, ChartSeries] = {}
    categories: List[str] = []
    skipped = 0
    for row in rows:
        y = row.get(figure.y)
        if not _is_number(y):
            skipped += 1
            continue
        if figure.categorical:
            category = str(row.get(figure.x, row["params"])) if figure.x else row["params"]
            if category not in categories:
                categories.append(category)
            x_value: float = float(categories.index(category))
            label = figure.ylabel if figure.key in ("ablation", "generic") else _series_label(row, figure.series_keys)
        else:
            raw = row.get(figure.x)
            if not _is_number(raw):
                skipped += 1
                continue
            x_value = float(raw)
            label = _series_label(row, figure.series_keys)
        series.setdefault(label, ChartSeries(label=label)).points.append(ChartPoint(
            x=x_value, y=y * figure.y_scale,
            err=row.get(f"{figure.y}_ci95", 0.0) * abs(figure.y_scale),
        ))
    if not series:
        raise FigureError(
            f"no plottable groups for figure {figure.key!r} "
            f"({skipped} group(s) lacked {figure.x!r}/{figure.y!r})"
        )
    return list(series.values()), categories


# ----------------------------------------------------------------------
# SVG rendering (pure stdlib)
# ----------------------------------------------------------------------
def _escape(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] (classic nice-number steps)."""
    if hi <= lo:
        hi = lo + (abs(lo) or 1.0)
    span = hi - lo
    raw = span / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = next(m * magnitude for m in (1.0, 2.0, 2.5, 5.0, 10.0) if m * magnitude >= raw)
    first = math.floor(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


def _tick_label(value: float) -> str:
    if value == int(value) and abs(value) < 1e7:
        return str(int(value))
    return f"{value:g}"


def render_chart(
    series: Sequence[ChartSeries],
    title: str,
    xlabel: str,
    ylabel: str,
    x_categories: Sequence[str] = (),
    width: int = 720,
    height: int = 440,
) -> str:
    """Render chart series as a standalone SVG document (error bars + legend)."""
    if not series or all(not s.points for s in series):
        raise FigureError("nothing to render: every series is empty")
    height = max(height, 140 + 18 * len(series))

    xs = [p.x for s in series for p in s.points]
    ys_lo = [p.y - p.err for s in series for p in s.points]
    ys_hi = [p.y + p.err for s in series for p in s.points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys_lo)), max(ys_hi)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) or 1.0)

    left, right, top, bottom = 72, 200, 48, 64
    plot_w, plot_h = width - left - right, height - top - bottom
    if x_categories:
        x_ticks = list(range(len(x_categories)))
        x_lo, x_hi = -0.5, len(x_categories) - 0.5
    else:
        pad = 0.04 * (x_hi - x_lo)
        x_lo, x_hi = x_lo - pad, x_hi + pad
        x_ticks = [t for t in _nice_ticks(x_lo, x_hi) if x_lo <= t <= x_hi]
    y_ticks = [t for t in _nice_ticks(y_lo, y_hi) if y_lo <= t <= y_hi * 1.001]
    y_hi = max(y_hi, y_ticks[-1] if y_ticks else y_hi)

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" {_FONT} font-size="15" font-weight="bold">'
        f"{_escape(title)}</text>",
    ]

    # gridlines + axes + tick labels
    for t in y_ticks:
        y = sy(t)
        out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{left - 8}" y="{y + 4:.1f}" {_FONT} font-size="11" '
                   f'text-anchor="end">{_escape(_tick_label(t))}</text>')
    if x_categories:
        for i, name in enumerate(x_categories):
            x = sx(float(i))
            shown = name if len(name) <= 20 else name[:19] + "…"
            out.append(
                f'<text x="{x:.1f}" y="{top + plot_h + 14}" {_FONT} font-size="10" '
                f'text-anchor="end" transform="rotate(-20 {x:.1f} {top + plot_h + 14})">'
                f"{_escape(shown)}</text>"
            )
    else:
        for t in x_ticks:
            x = sx(t)
            out.append(f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
                       f'y2="{top + plot_h + 4}" stroke="#333333" stroke-width="1"/>')
            out.append(f'<text x="{x:.1f}" y="{top + plot_h + 17}" {_FONT} font-size="11" '
                       f'text-anchor="middle">{_escape(_tick_label(t))}</text>')
    out.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
               f'stroke="#333333" stroke-width="1.2"/>')
    out.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
               f'y2="{top + plot_h}" stroke="#333333" stroke-width="1.2"/>')
    out.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 14}" {_FONT} '
               f'font-size="12" text-anchor="middle">{_escape(xlabel)}</text>')
    out.append(f'<text x="20" y="{top + plot_h / 2:.1f}" {_FONT} font-size="12" '
               f'text-anchor="middle" transform="rotate(-90 20 {top + plot_h / 2:.1f})">'
               f"{_escape(ylabel)}</text>")

    # series: error band/bars, line, markers
    dense_cutoff = 30
    for index, line in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        points = line.points
        if not points:
            continue
        dense = len(points) > dense_cutoff
        if dense and any(p.err > 0 for p in points):
            upper = " ".join(f"{sx(p.x):.1f},{sy(p.y + p.err):.1f}" for p in points)
            lower = " ".join(f"{sx(p.x):.1f},{sy(p.y - p.err):.1f}" for p in reversed(points))
            out.append(f'<polygon points="{upper} {lower}" fill="{color}" '
                       f'fill-opacity="0.15" stroke="none"/>')
        if len(points) > 1:
            path = " ".join(f"{sx(p.x):.1f},{sy(p.y):.1f}" for p in points)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       f'stroke-width="1.8"/>')
        for p in points:
            x, y = sx(p.x), sy(p.y)
            if p.err > 0 and not dense:
                y0, y1 = sy(p.y - p.err), sy(p.y + p.err)
                out.append(f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y1:.1f}" '
                           f'stroke="{color}" stroke-width="1.2"/>')
                for cap in (y0, y1):
                    out.append(f'<line x1="{x - 3:.1f}" y1="{cap:.1f}" x2="{x + 3:.1f}" '
                               f'y2="{cap:.1f}" stroke="{color}" stroke-width="1.2"/>')
            if not dense:
                out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>')

    # legend
    legend_x = left + plot_w + 16
    for index, line in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        y = top + 8 + index * 18
        out.append(f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 18}" y2="{y}" '
                   f'stroke="{color}" stroke-width="2.5"/>')
        out.append(f'<text x="{legend_x + 24}" y="{y + 4}" {_FONT} font-size="11">'
                   f"{_escape(line.label)}</text>")

    out.append("</svg>")
    return "\n".join(out)


# ----------------------------------------------------------------------
# multi-panel composition
# ----------------------------------------------------------------------
_SVG_SIZE = re.compile(r'width="(\d+)" height="(\d+)"')


def compose_grid(
    cells: Sequence[str], title: str = "", columns: int = 2
) -> str:
    """Compose standalone SVG documents into one grid figure.

    Each cell keeps its own coordinate system: the documents are embedded
    as nested ``<svg x= y=>`` elements, so a cell's internal layout (axes,
    legend) is untouched.  Rows are as tall as their tallest cell, columns
    as wide as the widest cell, and an optional title banner sits on top.
    """
    if not cells:
        raise FigureError("nothing to compose: no panel cells")
    columns = max(1, min(columns, len(cells)))
    sizes = []
    for cell in cells:
        match = _SVG_SIZE.search(cell)
        if match is None:
            raise FigureError("panel cell is not a sized SVG document")
        sizes.append((int(match.group(1)), int(match.group(2))))

    rows = [list(range(i, min(i + columns, len(cells)))) for i in range(0, len(cells), columns)]
    col_w = [
        max((sizes[i][0] for row in rows for i in row[c:c + 1]), default=0)
        for c in range(columns)
    ]
    row_h = [max(sizes[i][1] for i in row) for row in rows]
    banner = 36 if title else 0
    width = sum(col_w)
    height = banner + sum(row_h)

    out: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="24" {_FONT} font-size="16" '
            f'font-weight="bold" text-anchor="middle">{_escape(title)}</text>'
        )
    y = banner
    for row, h in zip(rows, row_h):
        x = 0
        for column, i in enumerate(row):
            # Nested <svg> accepts x/y placement; the cell's own width,
            # height, and viewBox keep its internal layout intact.
            out.append(cells[i].replace("<svg ", f'<svg x="{x}" y="{y}" ', 1))
            x += col_w[column]
        y += h
    out.append("</svg>")
    return "\n".join(out)


def render_panels(
    rows: Sequence[Dict[str, Any]],
    figure: FigureDef,
    title: str,
    columns: int = 2,
) -> str:
    """Render a paneled figure: one sub-chart per ``figure.panels`` entry.

    Panels whose metric no record carries are skipped silently (older
    stores may predate a metric); if *every* panel is empty the error
    from the last panel propagates, naming what was missing.
    """
    if not figure.panels:
        raise FigureError(f"figure {figure.key!r} defines no panels")
    cells: List[str] = []
    error: Optional[FigureError] = None
    for metric, ylabel, scale in figure.panels:
        sub = replace(figure, y=metric, ylabel=ylabel, y_scale=scale, panels=None)
        try:
            series, categories = build_series(rows, sub)
        except FigureError as exc:
            error = exc
            continue
        cells.append(
            render_chart(
                series,
                title=ylabel,
                xlabel=figure.xlabel,
                ylabel=ylabel,
                x_categories=categories,
                width=600,
                height=380,
            )
        )
    if not cells:
        raise error if error is not None else FigureError("no panels rendered")
    return compose_grid(cells, title=title, columns=columns)


# ----------------------------------------------------------------------
# trace view-timeline (repro.obs)
# ----------------------------------------------------------------------
#: View-span fill by outcome (Okabe-Ito members for the two active states).
_OUTCOME_FILL = {
    "committed": "#009E73",  # green
    "timeout": "#D55E00",    # vermillion
    "idle": "#bbbbbb",       # grey
}


def render_view_timeline(trace_records: Sequence, width: int = 860) -> str:
    """Render trace records as a per-replica lane chart (standalone SVG).

    One horizontal lane per replica; each view the replica entered is a
    rectangle coloured by its outcome (committed / timeout / idle), commit
    events are tick markers on the lane, and scenario fault events are
    dashed vertical rules across every lane, labelled at the top.  Input is
    a sequence of :class:`repro.obs.TraceRecord`, e.g. ``Tracer.records()``
    or the rows of a parsed JSONL trace.
    """
    from repro.obs.export import view_spans

    records = list(trace_records)
    if not records:
        raise FigureError("nothing to render: the trace is empty")
    spans = view_spans(records)
    faults = [r for r in records if r.category == "fault"]
    commits: Dict[str, List[float]] = {}
    for record in records:
        if record.category == "commit":
            commits.setdefault(record.replica, []).append(record.t)
    lanes = sorted(set(spans) | set(commits))
    if not lanes:
        # A trace of only faults/net records still gets a (single-lane) axis.
        lanes = sorted({r.replica for r in records})
    t_lo = min(r.t for r in records)
    t_hi = max(r.t for r in records)
    if t_hi <= t_lo:
        t_hi = t_lo + 1e-6

    lane_h, lane_gap = 26, 10
    left, right, top, bottom = 84, 24, 56, 84
    plot_w = width - left - right
    plot_h = len(lanes) * (lane_h + lane_gap) - lane_gap
    height = top + plot_h + bottom

    def sx(t: float) -> float:
        return left + (t - t_lo) / (t_hi - t_lo) * plot_w

    out: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" {_FONT} font-size="15" font-weight="bold">'
        "View timeline — per-replica views by outcome</text>",
    ]

    lane_y = {
        replica: top + i * (lane_h + lane_gap) for i, replica in enumerate(lanes)
    }
    for replica, y in lane_y.items():
        out.append(
            f'<text x="{left - 8}" y="{y + lane_h / 2 + 4:.1f}" {_FONT} '
            f'font-size="11" text-anchor="end">{_escape(replica)}</text>'
        )
        out.append(
            f'<rect x="{left}" y="{y}" width="{plot_w}" height="{lane_h}" '
            f'fill="#f4f4f4" stroke="none"/>'
        )
        for span in spans.get(replica, ()):
            x0, x1 = sx(span["start"]), sx(span["end"])
            fill = _OUTCOME_FILL.get(span["outcome"], "#bbbbbb")
            out.append(
                f'<rect x="{x0:.1f}" y="{y + 1}" width="{max(x1 - x0, 0.8):.1f}" '
                f'height="{lane_h - 2}" fill="{fill}" fill-opacity="0.85" '
                f'stroke="white" stroke-width="0.5">'
                f"<title>view {span['view']}: {span['outcome']}</title></rect>"
            )
        for t in commits.get(replica, ()):
            x = sx(t)
            out.append(
                f'<line x1="{x:.1f}" y1="{y + 2}" x2="{x:.1f}" y2="{y + lane_h - 2}" '
                f'stroke="#000000" stroke-width="1.4"/>'
            )

    for fault in faults:
        x = sx(fault.t)
        out.append(
            f'<line x1="{x:.1f}" y1="{top - 6}" x2="{x:.1f}" y2="{top + plot_h + 6}" '
            f'stroke="#CC79A7" stroke-width="1.4" stroke-dasharray="4,3"/>'
        )
        label = fault.kind if fault.replica == "cluster" else f"{fault.kind} {fault.replica}"
        out.append(
            f'<text x="{x + 3:.1f}" y="{top - 10}" {_FONT} font-size="10" '
            f'fill="#CC79A7">{_escape(label)}</text>'
        )

    axis_y = top + plot_h + 8
    out.append(
        f'<line x1="{left}" y1="{axis_y}" x2="{left + plot_w}" y2="{axis_y}" '
        f'stroke="#333333" stroke-width="1.2"/>'
    )
    for t in _nice_ticks(t_lo, t_hi):
        if t < t_lo or t > t_hi:
            continue
        x = sx(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" y2="{axis_y + 4}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{axis_y + 17}" {_FONT} font-size="11" '
            f'text-anchor="middle">{_escape(_tick_label(t))}</text>'
        )
    out.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 36}" {_FONT} '
        f'font-size="12" text-anchor="middle">time (s)</text>'
    )

    legend_items = [
        ("committed", _OUTCOME_FILL["committed"]),
        ("timeout", _OUTCOME_FILL["timeout"]),
        ("idle", _OUTCOME_FILL["idle"]),
    ]
    x = left
    y = height - 16
    for label, color in legend_items:
        out.append(f'<rect x="{x}" y="{y - 9}" width="12" height="10" fill="{color}"/>')
        out.append(f'<text x="{x + 16}" y="{y}" {_FONT} font-size="11">{label}</text>')
        x += 100
    out.append(f'<line x1="{x}" y1="{y - 8}" x2="{x}" y2="{y}" stroke="#000000" stroke-width="1.4"/>')
    out.append(f'<text x="{x + 6}" y="{y}" {_FONT} font-size="11">commit</text>')
    x += 100
    out.append(
        f'<line x1="{x}" y1="{y - 8}" x2="{x}" y2="{y}" stroke="#CC79A7" '
        f'stroke-width="1.4" stroke-dasharray="4,3"/>'
    )
    out.append(f'<text x="{x + 6}" y="{y}" {_FONT} font-size="11">fault</text>')

    out.append("</svg>")
    return "\n".join(out)


# ----------------------------------------------------------------------
# high-level entry points
# ----------------------------------------------------------------------
def render_figure(
    records: Iterable[Dict[str, Any]],
    figure: Optional[Union[FigureDef, str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render one campaign's records as an SVG figure.

    ``figure`` may be a :class:`FigureDef`, a figure key (``"fig9"``), or
    ``None`` to resolve from the records' campaign name (generic fallback
    when nothing matches).  Records are aggregated first, so repetitions
    become 95%-CI error bars; no simulation is ever executed.
    """
    records = list(records)
    if not records:
        raise FigureError("no records to render")
    if isinstance(figure, str):
        figure = _known_figure(figure)
    campaign = records[0].get("campaign", "")
    if figure is None:
        figure = figure_for_campaign(campaign) or replace(_GENERIC, title=campaign or "campaign")
    rows = _timeline_rows(records, figure) if figure.timeline else point_rows(records)
    shown_title = (
        title or f"{figure.title} — {campaign}"
        if campaign and campaign != figure.title
        else (title or figure.title)
    )
    if figure.panels:
        return render_panels(rows, figure, title=shown_title)
    series, categories = build_series(rows, figure)
    return render_chart(
        series,
        title=shown_title,
        xlabel=figure.xlabel,
        ylabel=figure.ylabel,
        x_categories=categories,
    )


class RenderedFigure(NamedTuple):
    """One SVG written by :func:`render_store`."""

    path: Path
    #: The campaign whose records it draws ("" for an unnamed campaign).
    campaign: str
    #: The key of the figure it was drawn as ("generic" for the fallback).
    figure: str
    #: How many stored records it draws.
    records: int


def render_store(
    store,
    out_dir: Union[str, Path],
    campaigns: Optional[Sequence[str]] = None,
    figure: Optional[Union[FigureDef, str]] = None,
) -> List[RenderedFigure]:
    """Render every (selected) campaign in a result store to ``out_dir``.

    Returns one :class:`RenderedFigure` per campaign with plottable records.
    ``figure`` forces one definition for every selected campaign; by default
    each campaign resolves through :func:`figure_for_campaign`.  A bad
    campaign or figure name raises :class:`FigureError` before anything is
    written.
    """
    names = list(dict.fromkeys(record.get("campaign", "") for record in store))
    if campaigns:
        missing = [c for c in campaigns if c not in names]
        if missing:
            raise FigureError(
                f"campaign(s) not in store: {', '.join(missing)} "
                f"(stored: {', '.join(names) or 'none'})"
            )
        names = list(campaigns)
    if isinstance(figure, str):
        figure = _known_figure(figure)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[RenderedFigure] = []
    for name in names:
        records = store.records(campaign=name)
        drawn = figure or figure_for_campaign(name) or replace(_GENERIC, title=name or "campaign")
        path = out / f"{name or 'campaign'}.svg"
        path.write_text(render_figure(records, figure=drawn) + "\n")
        written.append(RenderedFigure(path, name, drawn.key, len(records)))
    return written
