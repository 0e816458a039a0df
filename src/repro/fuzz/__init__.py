"""Adversarial scenario fuzzer: generated fault/Byzantine campaigns with
safety invariants, replayable violation artifacts, and greedy shrinking.

Entry points:

* :func:`run_fuzz` — ``python -m repro fuzz`` / ``api.fuzz()``: execute a
  budget of generated cases, audit each with the invariant oracles, persist
  passing records, dump + shrink violations.
* :func:`generate_case` / :func:`generate_cases` — the pure seeded
  generator (same ``(seed, index)`` → byte-identical case, forever).
* :func:`audit` — oracle-check one hand-built configuration (the
  protocol×attack conformance tests are built on this).
* :func:`replay` — re-execute a dumped violation artifact.
* :func:`register_oracle` — add a custom invariant oracle (see
  ``docs/EXTENDING.md``).
"""

from repro.fuzz.generator import (
    EPISODE_KINDS,
    FuzzCase,
    generate_case,
    generate_cases,
)
from repro.fuzz.harness import (
    CaseOutcome,
    FuzzReport,
    audit,
    execute_case,
    replay,
    run_fuzz,
    write_artifact,
)
from repro.fuzz.invariants import (
    ORACLES,
    OracleContext,
    Violation,
    check_invariants,
    register_oracle,
)
from repro.fuzz.shrink import ShrinkResult, shrink_case

__all__ = [
    "CaseOutcome",
    "EPISODE_KINDS",
    "FuzzCase",
    "FuzzReport",
    "ORACLES",
    "OracleContext",
    "ShrinkResult",
    "Violation",
    "audit",
    "check_invariants",
    "execute_case",
    "generate_case",
    "generate_cases",
    "register_oracle",
    "replay",
    "run_fuzz",
    "shrink_case",
    "write_artifact",
]
