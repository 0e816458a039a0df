"""Post-run invariant oracles: what "the protocol stayed correct" means.

Each oracle is a function from an :class:`OracleContext` (the finished
cluster with all per-replica state, the run's
:class:`~repro.bench.runner.ExperimentResult`, and — for generated cases —
the :class:`~repro.fuzz.generator.FuzzCase` metadata) to a list of
human-readable problem strings.  Oracles are an extension point, registered
exactly like protocols and strategies::

    @register_oracle("no-empty-batches")
    def no_empty_batches(ctx):
        return [f"{r.node_id} proposed an empty block"
                for r in ctx.honest_replicas() if ...]

The built-ins check the paper's safety claims from three angles plus a
conditional liveness claim:

* **agreement** — no two honest replicas commit conflicting chains: the
  consistency hash of the common committed prefix must match pairwise, and
  no honest replica may have counted a local safety violation (a conflicting
  commit attempt raises inside the forest).
* **certified-safety** — no view certifies two different blocks anywhere in
  the honest replicas' collective view of the chain; with intersecting
  quorums, two QCs in one view require an honest double-vote.
* **dedup** — no transaction appears twice in one replica's committed chain
  (the executor's dedup would mask the double-apply; the chain itself must
  already be duplicate-free).
* **liveness** — commits resume after the last scheduled fault heals.  Only
  applies to cases the generator marked eligible: benign-fault cases (no
  Byzantine replica — a rotating silent leader can legitimately zero a
  chained protocol's throughput) whose faults all heal early enough to
  leave a demanded-commit window.  Hand-built audits skip it.

Oracles never *prove* correctness — they are falsifiers.  The negative
control in ``tests/test_fuzz_negative.py`` demonstrates they can actually
fail: an equivocating static leader over a sub-``2f+1`` quorum threshold
trips **agreement** (and usually **certified-safety**) reproducibly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.plugins import Registry

#: The invariant-oracle extension point.  Values are callables taking an
#: :class:`OracleContext` and returning a list of problem strings.
ORACLES: Registry[Callable[["OracleContext"], List[str]]] = Registry("invariant oracle")


def register_oracle(name: str) -> Callable:
    """Decorator registering an invariant oracle under ``name``."""
    return ORACLES.register(name)


@dataclass
class Violation:
    """One oracle failure: which invariant broke and how."""

    oracle: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "detail": self.detail}


@dataclass
class OracleContext:
    """Everything an oracle may inspect after a run."""

    #: The finished cluster, with every replica's forest/stats/executor live.
    cluster: Any
    #: The run's :class:`~repro.bench.runner.ExperimentResult`.
    result: Any
    #: Generator metadata (:class:`~repro.fuzz.generator.FuzzCase`); ``None``
    #: for hand-built audits, which disables the conditional liveness oracle.
    case: Optional[Any] = None

    def honest_replicas(self) -> List[Any]:
        """Replicas that are honest *now*: configured honest and never
        converted to a Byzantine strategy by a ``set-byzantine`` event
        (stricter than the cluster's own, configuration-only, definition)."""
        byzantine = set(self.cluster.config.byzantine_ids())
        return [
            replica
            for replica in self.cluster.replicas.values()
            if replica.node_id not in byzantine and type(replica).strategy == "honest"
        ]


def check_invariants(
    ctx: OracleContext, oracles: Optional[List[str]] = None
) -> List[Violation]:
    """Run the named oracles (default: all registered) over a finished run."""
    names = oracles if oracles is not None else ORACLES.available()
    violations: List[Violation] = []
    for name in names:
        for detail in ORACLES.get(name)(ctx):
            violations.append(Violation(oracle=name, detail=detail))
    return violations


# ----------------------------------------------------------------------
# built-in oracles
# ----------------------------------------------------------------------
@register_oracle("agreement")
def agreement(ctx: OracleContext) -> List[str]:
    """No two honest replicas commit conflicting chains."""
    problems: List[str] = []
    honest = ctx.honest_replicas()
    if len(honest) < 2:
        return problems
    for replica in honest:
        if replica.stats.safety_violations:
            problems.append(
                f"{replica.node_id} recorded {replica.stats.safety_violations} "
                f"conflicting-commit attempt(s) in its forest"
            )
    common = min(r.forest.committed_height for r in honest)
    hashes = {r.node_id: r.forest.consistency_hash(common) for r in honest}
    if len(set(hashes.values())) > 1:
        groups: Dict[str, List[str]] = {}
        for node_id, chain_hash in hashes.items():
            groups.setdefault(chain_hash[:12], []).append(node_id)
        split = "; ".join(
            f"{'/'.join(sorted(ids))} -> {h}" for h, ids in sorted(groups.items())
        )
        problems.append(
            f"honest replicas committed divergent chains at height {common}: {split}"
        )
    return problems


@register_oracle("certified-safety")
def certified_safety(ctx: OracleContext) -> List[str]:
    """No view certifies two different blocks across the honest replicas."""
    by_view: Dict[int, Dict[str, List[str]]] = {}
    for replica in ctx.honest_replicas():
        for vertex in replica.forest.certified_vertices():
            qc = vertex.qc
            if qc is None:
                continue
            holders = by_view.setdefault(qc.view, {}).setdefault(qc.block_id, [])
            holders.append(replica.node_id)
    problems: List[str] = []
    for view in sorted(by_view):
        blocks = by_view[view]
        if len(blocks) > 1:
            detail = "; ".join(
                f"{block_id[:12]} (seen by {'/'.join(sorted(set(ids)))})"
                for block_id, ids in sorted(blocks.items())
            )
            problems.append(f"view {view} certified {len(blocks)} blocks: {detail}")
    return problems


@register_oracle("dedup")
def dedup(ctx: OracleContext) -> List[str]:
    """No transaction is committed twice in any honest replica's chain."""
    problems: List[str] = []
    for replica in ctx.honest_replicas():
        counts = Counter(replica.forest.committed_transactions())
        duplicated = [txid for txid, n in counts.items() if n > 1]
        if duplicated:
            sample = ", ".join(sorted(duplicated)[:3])
            problems.append(
                f"{replica.node_id} committed {len(duplicated)} transaction(s) "
                f"more than once (e.g. {sample})"
            )
    return problems


@register_oracle("liveness")
def liveness(ctx: OracleContext) -> List[str]:
    """Commits resume after the last transient fault heals.

    Conditional: only generated cases the generator marked eligible apply —
    benign-fault schedules (no Byzantine replicas) whose faults all heal
    early enough to leave a demanded-commit window before the clients stop.
    The check itself is black-box: the observer's throughput timeline must
    show at least one committed transaction after ``quiet_after + grace``.
    """
    from repro.experiments.spec import DEFAULT_BUCKET

    case = ctx.case
    if case is None or not getattr(case, "liveness_eligible", False):
        return []
    resume_after = case.quiet_after + case.liveness_grace
    # Clients stop submitting at warmup+runtime, so commits legitimately
    # drain during cooldown — only demand commits while load is offered.
    stop = case.config.warmup + case.config.runtime
    committed_after = sum(
        tps
        for t, tps in ctx.result.timeline
        # Bucket [t, t+width) overlaps the demanded window.
        if t + DEFAULT_BUCKET > resume_after and t < stop and tps > 0
    )
    if committed_after > 0:
        return []
    return [
        f"no transaction committed between t={resume_after:.2f} (last fault "
        f"healed at {case.quiet_after:.2f} + {case.liveness_grace:.2f} grace) "
        f"and the end of offered load t={stop:.2f}, despite every transient "
        f"fault having healed"
    ]
