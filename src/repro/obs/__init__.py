"""Observability: protocol-aware tracing and trace export.

See ``docs/OBSERVABILITY.md`` for the guided tour.  The short version::

    from repro import api
    from repro.bench.config import Configuration

    traced = api.trace(Configuration(num_nodes=4, runtime=1.0, seed=7))
    traced.save("run.trace.jsonl")              # deterministic JSONL
    traced.save("run.perfetto.json", "perfetto")  # open in ui.perfetto.dev
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.obs.export import write_trace
from repro.obs.trace import (
    ACTIVE,
    ALL_CATEGORIES,
    CATEGORY_BITS,
    CATEGORY_NAMES,
    DEFAULT_CAPACITY,
    EventStream,
    TraceRecord,
    Tracer,
    category_mask,
    install,
    tracing,
    uninstall,
)

__all__ = [
    "ALL_CATEGORIES",
    "CATEGORY_BITS",
    "CATEGORY_NAMES",
    "DEFAULT_CAPACITY",
    "EventStream",
    "TraceRecord",
    "TracedRun",
    "Tracer",
    "category_mask",
    "install",
    "tracing",
    "uninstall",
    "write_trace",
]


@dataclass
class TracedRun:
    """A run result bundled with the tracer that observed it.

    Returned by :func:`repro.api.trace`; ``result`` is whatever the
    underlying runner produced (an ``ExperimentResult``).
    """

    result: Any
    tracer: Tracer
    _records: Optional[List[TraceRecord]] = field(default=None, repr=False)

    def records(self) -> List[TraceRecord]:
        if self._records is None:
            self._records = self.tracer.records()
        return self._records

    def save(self, path: Union[str, Path], sink: str = "jsonl") -> Path:
        """Export the trace in a :data:`~repro.obs.export.SINKS` format; returns the path."""
        return write_trace(self.records(), path, sink)
