"""Trace export: deterministic JSONL, Chrome/Perfetto JSON, text, SVG.

Four serialisations of a :class:`repro.obs.trace.Tracer`'s records, chosen
by name through :func:`write_trace` (the table is :data:`SINKS`; for any
other format, walk ``Tracer.records()`` — plain named tuples — yourself):

``jsonl``
    One header object followed by one compact JSON array per record —
    ``[t, replica, category, kind, view, payload]``.  Output is
    byte-deterministic (sorted keys, fixed separators, no timestamps or
    environment data), which is what the same-seed determinism test and the
    fuzz violation artifacts rely on.  :func:`parse_jsonl` /
    :func:`validate_jsonl` read it back, rejecting unknown categories and
    malformed rows with :class:`TraceFormatError`.

``perfetto``
    Chrome trace-event format JSON, loadable in Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing``: each replica is a
    process track, each view is a complete ("X") slice coloured by outcome,
    votes/commits/QCs are instant ("i") events on the replica's track, and
    scenario fault events are global instants.

``text``
    A plain-text timeline, one line per record, for terminal reading.

``svg``
    The per-replica view-timeline lane chart from
    :func:`repro.analysis.figures.render_view_timeline` (imported lazily —
    figures also consumes :func:`view_spans` from here).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.obs.trace import CATEGORY_BITS, TraceRecord

#: Format version stamped into the JSONL header.
TRACE_FORMAT_VERSION = 1

#: json.dumps options shared by every serialisation: canonical key order and
#: no whitespace, so identical records always serialise to identical bytes.
_DUMPS = dict(sort_keys=True, separators=(",", ":"))


class TraceFormatError(ValueError):
    """A trace file (or record stream) violates the trace schema."""


def _prepare(path: Union[str, Path]) -> Path:
    """Resolve a sink's output path, creating missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def jsonl_lines(records: Sequence[TraceRecord]) -> List[str]:
    """The JSONL serialisation as a list of lines (no trailing newlines)."""
    replicas = sorted({record.replica for record in records})
    categories = sorted({record.category for record in records})
    header = {
        "repro_trace": TRACE_FORMAT_VERSION,
        "records": len(records),
        "replicas": replicas,
        "categories": categories,
    }
    lines = [json.dumps(header, **_DUMPS)]
    for record in records:
        lines.append(json.dumps(list(record), **_DUMPS))
    return lines


def write_jsonl(records: Sequence[TraceRecord], path: Union[str, Path]) -> Path:
    """Write the deterministic JSONL dump; returns the path."""
    path = _prepare(path)
    path.write_text("\n".join(jsonl_lines(records)) + "\n", encoding="utf-8")
    return path


def parse_jsonl(
    text: str,
) -> Tuple[Dict[str, Any], List[TraceRecord]]:
    """Parse a JSONL trace back into ``(header, records)``.

    Raises :class:`TraceFormatError` on malformed JSON, a missing or
    mismatched header, unknown categories, or ill-typed record rows.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceFormatError("empty trace file (missing header line)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or "repro_trace" not in header:
        raise TraceFormatError("first line is not a repro_trace header object")
    if header["repro_trace"] != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {header['repro_trace']!r} "
            f"(this reader supports {TRACE_FORMAT_VERSION})"
        )
    records: List[TraceRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: not valid JSON: {exc}") from exc
        if not isinstance(row, list) or len(row) != 6:
            raise TraceFormatError(
                f"line {lineno}: expected a 6-element record array, got {row!r}"
            )
        t, replica, category, kind, view, payload = row
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            raise TraceFormatError(f"line {lineno}: timestamp must be a number")
        if not isinstance(replica, str) or not isinstance(kind, str):
            raise TraceFormatError(f"line {lineno}: replica and kind must be strings")
        if category not in CATEGORY_BITS:
            raise TraceFormatError(
                f"line {lineno}: unknown trace category {category!r}"
            )
        if not isinstance(view, int) or isinstance(view, bool):
            raise TraceFormatError(f"line {lineno}: view must be an integer")
        if payload is not None and not isinstance(payload, dict):
            raise TraceFormatError(f"line {lineno}: payload must be an object or null")
        records.append(TraceRecord(float(t), replica, category, kind, view, payload))
    declared = header.get("records")
    if declared is not None and declared != len(records):
        raise TraceFormatError(
            f"header declares {declared} records but file contains {len(records)}"
        )
    return header, records


def validate_jsonl(path: Union[str, Path]) -> Tuple[Dict[str, Any], List[TraceRecord]]:
    """Parse-and-validate a JSONL trace file (the ``trace`` CLI's default)."""
    return parse_jsonl(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# view spans (shared by the Perfetto export and the SVG timeline figure)
# ----------------------------------------------------------------------
def view_spans(records: Sequence[TraceRecord]) -> Dict[str, List[Dict[str, Any]]]:
    """Fold per-replica view-entry records into ``[start, end)`` spans.

    Each span is ``{"view", "start", "end", "outcome"}`` with outcome
    ``"committed"`` (the replica committed a block during the span),
    ``"timeout"`` (a local timeout fired in that view), or ``"idle"``.
    A span ends when the replica enters its next view; the last span ends
    at the trace's final timestamp.  Ring-buffer wraparound only drops the
    oldest records, so spans stay well-formed — a replica whose view entry
    was evicted simply starts its first span at its first surviving record.
    """
    if not records:
        return {}
    end_of_trace = max(record.t for record in records)
    spans: Dict[str, List[Dict[str, Any]]] = {}
    open_spans: Dict[str, Dict[str, Any]] = {}
    for record in records:
        replica = record.replica
        if record.category == "view" and record.kind == "enter":
            previous = open_spans.get(replica)
            if previous is not None:
                previous["end"] = record.t
            span = {
                "view": record.view,
                "start": record.t,
                "end": end_of_trace,
                "outcome": "idle",
            }
            open_spans[replica] = span
            spans.setdefault(replica, []).append(span)
            continue
        span = open_spans.get(replica)
        if span is None:
            # Wraparound (or a replica traced from mid-view): synthesise a
            # span from the first surviving record so markers still land on
            # a lane.
            span = {
                "view": record.view,
                "start": record.t,
                "end": end_of_trace,
                "outcome": "idle",
            }
            open_spans[replica] = span
            spans.setdefault(replica, []).append(span)
        if record.category == "commit":
            span["outcome"] = "committed"
        elif record.category == "timeout" and span["outcome"] != "committed":
            span["outcome"] = "timeout"
    return spans


# ----------------------------------------------------------------------
# Chrome trace-event / Perfetto
# ----------------------------------------------------------------------
def _micros(t: float) -> float:
    return t * 1e6


def to_chrome_trace(records: Sequence[TraceRecord]) -> Dict[str, Any]:
    """Build a Chrome trace-event format document (Perfetto-loadable)."""
    events: List[Dict[str, Any]] = []
    replicas = sorted({record.replica for record in records})
    pids = {replica: pid for pid, replica in enumerate(replicas, start=1)}
    for replica in replicas:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pids[replica],
                "tid": 0,
                "ts": 0,
                "args": {"name": replica},
            }
        )
    # Views as complete slices on each replica's track.
    for replica, spans in sorted(view_spans(records).items()):
        pid = pids[replica]
        for span in spans:
            events.append(
                {
                    "ph": "X",
                    "name": f"view {span['view']}",
                    "cat": "view",
                    "pid": pid,
                    "tid": 0,
                    "ts": _micros(span["start"]),
                    "dur": max(_micros(span["end"] - span["start"]), 1.0),
                    "args": {"view": span["view"], "outcome": span["outcome"]},
                }
            )
    for record in records:
        category = record.category
        if category == "view":
            continue
        event: Dict[str, Any] = {
            "ph": "i",
            "name": f"{category}:{record.kind}",
            "cat": category,
            "ts": _micros(record.t),
            "s": "t",
            "args": {"view": record.view},
        }
        if record.payload:
            event["args"].update(record.payload)
        if category == "fault":
            # Scenario events affect the whole cluster: global scope, drawn
            # across every track.
            event["s"] = "g"
            event["pid"] = pids.get(record.replica, 0)
            event["tid"] = 0
        else:
            event["pid"] = pids.get(record.replica, 0)
            event["tid"] = 0
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    records: Sequence[TraceRecord], path: Union[str, Path]
) -> Path:
    path = _prepare(path)
    path.write_text(json.dumps(to_chrome_trace(records), **_DUMPS), encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# plain-text timeline
# ----------------------------------------------------------------------
def to_text(records: Sequence[TraceRecord]) -> str:
    """One line per record: aligned columns, payload as compact JSON."""
    lines = []
    for record in records:
        payload = (
            " " + json.dumps(record.payload, **_DUMPS) if record.payload else ""
        )
        lines.append(
            f"{record.t:12.6f}  {record.replica:<10} "
            f"v{record.view:<5} {record.category:<10} {record.kind}{payload}"
        )
    return "\n".join(lines)


def write_text(records: Sequence[TraceRecord], path: Union[str, Path]) -> Path:
    path = _prepare(path)
    path.write_text(to_text(records) + ("\n" if records else ""), encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# SVG view-timeline (delegates to the figures layer)
# ----------------------------------------------------------------------
def write_svg_timeline(
    records: Sequence[TraceRecord], path: Union[str, Path]
) -> Path:
    from repro.analysis.figures import render_view_timeline

    path = _prepare(path)
    path.write_text(render_view_timeline(records), encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# the formats by name
# ----------------------------------------------------------------------
#: Export format name -> writer ``(records, path) -> Path``.
SINKS = {
    "jsonl": write_jsonl,
    "perfetto": write_chrome_trace,
    "text": write_text,
    "svg": write_svg_timeline,
}


def write_trace(
    records: Sequence[TraceRecord], path: Union[str, Path], sink: str = "jsonl"
) -> Path:
    """Write ``records`` to ``path`` in the named format; returns the path."""
    if sink not in SINKS:
        raise ValueError(f"unknown trace format {sink!r}; known: {', '.join(SINKS)}")
    return SINKS[sink](records, path)


# ----------------------------------------------------------------------
# summary (used by the `trace` CLI subcommand)
# ----------------------------------------------------------------------
def summarize(records: Sequence[TraceRecord]) -> Dict[str, Any]:
    """Deterministic per-category / per-replica record counts and time span."""
    by_category: Dict[str, int] = {}
    by_replica: Dict[str, int] = {}
    for record in records:
        by_category[record.category] = by_category.get(record.category, 0) + 1
        by_replica[record.replica] = by_replica.get(record.replica, 0) + 1
    return {
        "records": len(records),
        "replicas": {name: by_replica[name] for name in sorted(by_replica)},
        "categories": {name: by_category[name] for name in sorted(by_category)},
        "t_min": min((record.t for record in records), default=0.0),
        "t_max": max((record.t for record in records), default=0.0),
    }
