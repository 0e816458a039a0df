"""Campaign execution: run every expanded point, serially or in parallel.

:class:`CampaignRunner` takes an :class:`~repro.experiments.spec.ExperimentSpec`,
expands it, skips points already present in the optional
:class:`~repro.experiments.store.ResultStore`, and executes the rest —
either in-process or across N worker processes via
``concurrent.futures.ProcessPoolExecutor`` (stdlib only).  Each simulation
is an isolated discrete-event run fully determined by its configuration and
seed, so the per-run records are **bit-identical** whichever way they were
executed (the stored JSONL lines are identical modulo ordering).  Each
record is appended to the store the moment its run completes, so an
interrupted campaign keeps every finished point and resumes from there.

Worker processes import this module fresh under the ``spawn`` start method,
which re-registers every *built-in* protocol/strategy/client; custom plugins
registered at runtime exist only in the parent, so campaigns that use them
should run with ``workers=1`` (or ensure the registering module is imported
on worker startup).  Under the default ``fork`` start method on Linux the
parent's registries are inherited and custom plugins work everywhere.
"""

from __future__ import annotations

import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.bench.runner import run_experiment
from repro.experiments.spec import ExperimentSpec, RunSpec
from repro.experiments.store import ResultStore

__all__ = [
    "CampaignProgress",
    "CampaignResult",
    "CampaignRunner",
    "execute_payload",
]


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one expanded point (as a :meth:`RunSpec.payload` dict).

    This is the function worker processes execute; it only touches the
    payload dict and returns a plain JSON-compatible record, so it pickles
    cleanly in both directions.
    """
    run = RunSpec(**payload)
    return run.record(run_experiment(*run.arguments()))


@dataclass
class CampaignResult:
    """Outcome of one campaign: per-run records plus execution bookkeeping."""

    spec: ExperimentSpec
    #: One record per expanded run, in expansion order.  Records served from
    #: the store are re-labelled with the current expansion's index/params.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Number of simulations actually executed this time.
    executed: int = 0
    #: Number of points served from the result store without running.
    skipped: int = 0
    #: Number of in-spec duplicate points folded into another run's record
    #: (identical content hash within one expansion — executed once).
    deduplicated: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def metric(self, name: str) -> List[float]:
        """The named metric across every record, in expansion order."""
        return [record["metrics"][name] for record in self.records]


class CampaignProgress:
    """Live progress/ETA reporter for :class:`CampaignRunner`.

    The runner calls :meth:`start` when a run is submitted and
    :meth:`finish` when it completes; each ``finish`` emits one status line
    (through ``emit``, default: print to stderr) with points done/total, the
    rolling completion rate over the last ``window`` finishes, the ETA it
    implies, and a straggler flag for any in-flight run older than
    ``straggler_factor`` × the median completed duration.
    """

    def __init__(
        self,
        total: int,
        emit: Optional[Callable[[str], None]] = None,
        window: int = 10,
        straggler_factor: float = 4.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if total < 0:
            raise ValueError(f"total must be non-negative, got {total}")
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.total = total
        self.window = window
        self.straggler_factor = straggler_factor
        self.clock = clock
        self.emit = emit if emit is not None else self._default_emit
        self.done = 0
        self.in_flight: Dict[str, float] = {}
        #: Wall seconds of every completed run that was started here.
        self.durations: List[float] = []
        self._recent: List[float] = []  # completion times, last `window` kept

    @staticmethod
    def _default_emit(line: str) -> None:
        print(line, file=sys.stderr)

    def start(self, run_id: str) -> None:
        self.in_flight[run_id] = self.clock()

    def finish(self, run_id: str) -> None:
        now = self.clock()
        started = self.in_flight.pop(run_id, None)
        if started is not None:
            self.durations.append(now - started)
        self.done += 1
        self._recent.append(now)
        if len(self._recent) > self.window:
            del self._recent[0]
        self.emit(self.render(now))

    def rate(self) -> float:
        """Completions/s over the rolling window (0.0 until two finishes)."""
        if len(self._recent) < 2:
            return 0.0
        span = self._recent[-1] - self._recent[0]
        if span <= 0:
            return 0.0
        return (len(self._recent) - 1) / span

    def eta_seconds(self) -> Optional[float]:
        rate = self.rate()
        if rate <= 0:
            return None
        return (self.total - self.done) / rate

    def stragglers(self, now: Optional[float] = None) -> List[str]:
        """In-flight run ids older than factor × median completed duration."""
        if not self.durations:
            return []
        if now is None:
            now = self.clock()
        threshold = self.straggler_factor * statistics.median(self.durations)
        return sorted(
            run_id
            for run_id, started in self.in_flight.items()
            if now - started > threshold
        )

    def render(self, now: Optional[float] = None) -> str:
        if now is None:
            now = self.clock()
        parts = [f"campaign: {self.done}/{self.total} done"]
        rate = self.rate()
        if rate > 0:
            parts.append(f"{rate:.2f} runs/s")
            parts.append(f"eta {self.eta_seconds():.0f}s")
        stragglers = self.stragglers(now)
        if stragglers:
            parts.append(f"stragglers: {','.join(stragglers)}")
        return " | ".join(parts)


class CampaignRunner:
    """Expands a spec and executes its pending points, optionally in parallel."""

    def __init__(
        self,
        spec: ExperimentSpec,
        workers: int = 1,
        store: Optional[Union[ResultStore, str]] = None,
        force: bool = False,
        progress: Optional[Any] = None,
    ) -> None:
        self.spec = spec
        self.workers = max(1, int(workers))
        if store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store)
        #: Re-run and re-record points even when the store already has them.
        self.force = force
        #: Live progress reporter (:class:`CampaignProgress` or any
        #: object with ``start(run_id)``/``finish(run_id)`` and a ``total``
        #: attribute).  ``True`` builds a default reporter printing to stderr.
        self.progress = progress

    def run(self) -> CampaignResult:
        """Execute the campaign and return every record in expansion order."""
        runs = self.spec.expand()
        pending: List[RunSpec] = []
        reused: Dict[str, Dict[str, Any]] = {}
        seen: set = set()
        for run in runs:
            run_id = run.run_id
            if run_id in seen or run_id in reused:
                continue
            if self.store is not None and not self.force and run_id in self.store:
                reused[run_id] = self.store.get(run_id)
            else:
                seen.add(run_id)
                pending.append(run)

        fresh = self._execute(pending)
        if self.store is not None:
            # Fold any superseded lines (forced re-runs) back to one
            # record per run; a no-op for ordinary campaigns.
            self.store.compact()

        records: List[Dict[str, Any]] = []
        for run in runs:
            base = fresh.get(run.run_id) or reused[run.run_id]
            records.append(
                {
                    **base,
                    "campaign": run.campaign,
                    "index": run.index,
                    "repetition": run.repetition,
                    "params": run.params,
                }
            )
        # Only true store hits count as skipped; in-spec duplicate points
        # deduplicate to one execution but were never stored.
        skipped = sum(1 for run in runs if run.run_id in reused)
        return CampaignResult(
            spec=self.spec,
            records=records,
            executed=len(pending),
            skipped=skipped,
            deduplicated=len(runs) - len(pending) - skipped,
        )

    def _make_progress(self, total: int) -> Optional[Any]:
        if self.progress is None or self.progress is False:
            return None
        if self.progress is True:
            return CampaignProgress(total)
        reporter = self.progress
        reporter.total = total
        return reporter

    def _execute(self, pending: List[RunSpec]) -> Dict[str, Dict[str, Any]]:
        results: Dict[str, Dict[str, Any]] = {}
        reporter = self._make_progress(len(pending))

        def completed(record: Dict[str, Any]) -> None:
            # Persist immediately: an interrupted (or partially failed)
            # campaign keeps every run that finished before the failure.
            results[record["run_id"]] = record
            if self.store is not None:
                self.store.add(record)
            if reporter is not None:
                reporter.finish(record["run_id"])

        if self.workers > 1 and len(pending) > 1:
            failure: Optional[BaseException] = None
            with ProcessPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
                futures = []
                for run in pending:
                    # Submission = start for progress purposes: queued points
                    # age like running ones, so the straggler flag also
                    # catches a run starved behind a slow sibling.
                    if reporter is not None:
                        reporter.start(run.run_id)
                    futures.append(pool.submit(execute_payload, run.payload()))
                for future in as_completed(futures):
                    # One failing run must not discard its siblings: the
                    # pool runs them to completion anyway, so collect and
                    # persist every success before re-raising the first
                    # failure (parity with serial interruption semantics).
                    try:
                        completed(future.result())
                    except Exception as exc:  # noqa: BLE001 - re-raised below
                        if failure is None:
                            failure = exc
            if failure is not None:
                raise failure
        else:
            for run in pending:
                if reporter is not None:
                    reporter.start(run.run_id)
                completed(execute_payload(run.payload()))
        return results
