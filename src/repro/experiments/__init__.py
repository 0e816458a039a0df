"""Campaigns: declarative experiment grids, parallel execution, persistence.

The campaign layer is how whole evaluation sections are run (the paper's
Table 2 and Figs. 8-15 are each one campaign):

* :class:`ExperimentSpec` — a JSON-round-trippable description of a grid of
  runs: base configuration + ``grid``/``points`` axes + optional
  scenario + repetitions (:mod:`repro.experiments.spec`);
* :class:`CampaignRunner` — executes the expanded runs serially or across N
  worker processes with bit-identical records either way
  (:mod:`repro.experiments.runner`);
* :class:`ResultStore` — one JSONL record per completed run, keyed by a
  content hash, so re-running a campaign skips finished points
  (:mod:`repro.experiments.store`);
* the paper's evaluation as one table of such campaigns, with the row
  projections, figures and claims that go with them
  (:mod:`repro.experiments.paper`, imported on demand);
* the ``python -m repro`` CLI (:mod:`repro.experiments.cli`).

See ``docs/EXPERIMENTS.md`` for the JSON schemas and CLI walkthrough.
"""

from repro.experiments.runner import (
    CampaignProgress,
    CampaignResult,
    CampaignRunner,
    execute_payload,
)
from repro.experiments.spec import (
    DEFAULT_BUCKET,
    ExperimentSpec,
    RunSpec,
    SpecError,
    run_key,
)
from repro.experiments.store import (
    ResultStore,
    StoreError,
    TruncatedRecordWarning,
    encode_record,
)

__all__ = [
    "DEFAULT_BUCKET",
    "CampaignProgress",
    "CampaignResult",
    "CampaignRunner",
    "ExperimentSpec",
    "ResultStore",
    "RunSpec",
    "SpecError",
    "StoreError",
    "TruncatedRecordWarning",
    "encode_record",
    "execute_payload",
    "run_key",
]
