"""The fuzz campaign driver: execute, check, persist, shrink, replay.

:func:`run_fuzz` is the engine behind ``python -m repro fuzz``: it walks the
first ``budget`` generated cases of a seed, executes each through the
ordinary run path (:mod:`repro.bench.runner`), and audits the finished
cluster with every registered invariant oracle.  Three properties make
campaigns practical:

* **Byte-reproducible** — each case executes through the exact
  :meth:`RunSpec.payload` round-trip ordinary campaigns use, and the stored
  record has the same schema, so re-running a seed appends byte-identical
  JSONL lines (``tests/test_fuzz.py`` pins this).
* **Resumable** — passing cases are persisted to a
  :class:`~repro.experiments.store.ResultStore` under their content hash;
  a re-run with the same store skips them.  Violating cases are *never*
  stored — they must stay loud on every run.
* **Replayable** — a violation dumps a self-contained scenario JSON (and a
  shrunken ``-min`` variant); :func:`replay` re-executes such an artifact
  and reports whether the violation still fires.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.bench.config import Configuration
from repro.bench.runner import build_cluster, fingerprint, run_cluster
from repro.experiments.spec import RunSpec
from repro.experiments.store import ResultStore
from repro.fuzz.generator import FuzzCase, generate_case
from repro.fuzz.invariants import (
    OracleContext,
    Violation,
    check_invariants,
)
from repro.scenario import Scenario


@dataclass
class CaseOutcome:
    """One executed case: its record, and any invariant violations."""

    case: FuzzCase
    record: Dict[str, Any]
    violations: List[Violation] = field(default_factory=list)
    #: Consistency hash of the configured-honest replicas' common committed
    #: prefix (:func:`repro.bench.runner.fingerprint`) — the determinism
    #: witness: same case, same fingerprint, always.
    fingerprint: str = ""
    #: Paths of the artifacts written for a violating case (if any).
    artifact: Optional[str] = None
    shrunk_artifact: Optional[str] = None
    #: Path of the violating run's event trace (JSONL), captured by
    #: re-executing the case under a fresh tracer.
    trace_artifact: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def execute_case(
    case: FuzzCase, oracles: Optional[List[str]] = None
) -> CaseOutcome:
    """Run one case and audit the finished cluster with the oracles.

    The configuration and scenario go through the same payload round-trip
    as :func:`repro.experiments.runner.execute_payload`, so the returned
    record is byte-identical to what an ordinary campaign would store for
    the same point.
    """
    run = RunSpec(**case.run_spec().payload())
    config, scenario, bucket = run.arguments()
    cluster = build_cluster(config, scenario)
    result = run_cluster(cluster, bucket)
    ctx = OracleContext(cluster=cluster, result=result, case=case)
    outcome = CaseOutcome(
        case=case,
        record=run.record(result),
        violations=check_invariants(ctx, oracles),
        fingerprint=fingerprint(cluster),
    )
    # The oracles and the fingerprint have read it; nobody will again.
    cluster.dismantle()
    return outcome


def audit(
    config: Configuration,
    scenario: Optional[Scenario] = None,
    oracles: Optional[List[str]] = None,
) -> CaseOutcome:
    """Run one hand-built configuration through the full oracle audit.

    The conformance-matrix tests (and the docs' extension walkthrough) use
    this to ask "does protocol P survive attack A?" without generating
    cases.  The conditional liveness oracle is skipped — there is no
    generator metadata to bound the fault schedule.
    """
    case = FuzzCase(
        seed=0,
        index=0,
        config=config,
        scenario=scenario if scenario is not None else Scenario(name="audit"),
        liveness_eligible=False,
    )
    return execute_case(case, oracles)


@dataclass
class FuzzReport:
    """Summary of one fuzz campaign invocation."""

    seed: int
    budget: int
    executed: int = 0
    skipped: int = 0
    #: Outcomes of the violating cases only (passing cases are summarized
    #: by the counters; their full records live in the store).
    failures: List[CaseOutcome] = field(default_factory=list)
    #: How many cases ran each protocol, by registered name.
    protocols: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def violations(self) -> List[Violation]:
        return [v for outcome in self.failures for v in outcome.violations]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "executed": self.executed,
            "skipped": self.skipped,
            "protocols": dict(sorted(self.protocols.items())),
            "violations": [
                {
                    "run_id": outcome.case.run_id,
                    "index": outcome.case.index,
                    "violations": [v.to_dict() for v in outcome.violations],
                    "artifact": outcome.artifact,
                    "shrunk_artifact": outcome.shrunk_artifact,
                    "trace_artifact": outcome.trace_artifact,
                }
                for outcome in self.failures
            ],
        }


def capture_trace(
    directory: str, case: FuzzCase, oracles: Optional[List[str]] = None
) -> str:
    """Re-execute a violating case under a fresh tracer and dump its trace.

    The campaign itself runs untraced (tracing must never be a precondition
    for finding a bug), so the violating case is executed a second time —
    cases are deterministic, the replay reproduces the same run — with a
    :class:`repro.obs.Tracer` installed, and the full event trace lands
    next to the replay artifact as ``violation-<run_id>-trace.jsonl``.
    Any tracer the caller had installed is restored afterwards.
    """
    from repro.obs import trace as obs_trace
    from repro.obs.export import write_jsonl

    os.makedirs(directory, exist_ok=True)
    with obs_trace.tracing() as tracer:
        execute_case(case, oracles)
    path = os.path.join(directory, f"violation-{case.run_id}-trace.jsonl")
    write_jsonl(tracer.records(), path)
    return path


def write_artifact(
    directory: str, outcome: CaseOutcome, suffix: str = ""
) -> str:
    """Dump a violating case as a self-contained, replayable JSON file."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"violation-{outcome.case.run_id}{suffix}.json"
    )
    document = {
        "fuzz": {
            "seed": outcome.case.seed,
            "index": outcome.case.index,
            "run_id": outcome.case.run_id,
        },
        "violations": [v.to_dict() for v in outcome.violations],
        "trace_artifact": outcome.trace_artifact,
        "case": outcome.case.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def replay(source: Union[str, Dict[str, Any]]) -> CaseOutcome:
    """Re-execute a violation artifact (path or parsed dict).

    Accepts both the artifact document (``{"fuzz": ..., "case": {...}}``)
    and a bare serialized case.  Returns the fresh :class:`CaseOutcome` —
    callers check ``outcome.violations`` to confirm the bug still fires.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            source = json.load(handle)
    data = source.get("case", source)
    return execute_case(FuzzCase.from_dict(data))


def run_fuzz(
    budget: int = 50,
    seed: int = 0,
    store: Optional[Union[ResultStore, str, os.PathLike]] = None,
    artifacts: Optional[str] = None,
    shrink: bool = True,
    oracles: Optional[List[str]] = None,
    progress=None,
) -> FuzzReport:
    """Execute the first ``budget`` generated cases of campaign ``seed``.

    This is ``api.fuzz`` and ``python -m repro fuzz``.  Each case is an
    ordinary configuration plus a bounded fault/Byzantine timeline, audited
    with the registered invariant oracles (or only the named ``oracles``).
    Same seed, same cases: re-running appends byte-identical records.
    Passing cases append their campaign record to ``store`` (when given) and
    are skipped on re-runs; violating cases write replayable artifacts to
    ``artifacts`` (default: next to the store; re-execute one with
    :func:`replay`) and, unless ``shrink`` is disabled, a greedily minimized
    ``-min`` variant.  ``progress`` is an optional callable receiving each
    :class:`CaseOutcome` as it completes.
    """
    from repro.fuzz.shrink import shrink_case  # local: avoid an import cycle

    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    if artifacts is None and store is not None:
        artifacts = os.path.join(store.root, "artifacts")

    report = FuzzReport(seed=seed, budget=budget)
    for index in range(budget):
        case = generate_case(seed, index)
        report.protocols[case.config.protocol] = (
            report.protocols.get(case.config.protocol, 0) + 1
        )
        if store is not None and case.run_id in store:
            report.skipped += 1
            continue
        outcome = execute_case(case, oracles)
        report.executed += 1
        if outcome.ok:
            if store is not None:
                store.add(outcome.record)
        else:
            if artifacts is not None:
                # Trace first so the replay artifact can point at it.
                outcome.trace_artifact = capture_trace(artifacts, case, oracles)
                outcome.artifact = write_artifact(artifacts, outcome)
            if shrink:
                fired = sorted({v.oracle for v in outcome.violations})
                shrunk = shrink_case(case, oracles=fired)
                if artifacts is not None:
                    outcome.shrunk_artifact = write_artifact(
                        artifacts, shrunk.outcome, suffix="-min"
                    )
            report.failures.append(outcome)
        if progress is not None:
            progress(outcome)
    return report
