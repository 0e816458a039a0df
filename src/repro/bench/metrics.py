"""Metrics: throughput, latency, chain growth rate, and block interval.

The collector subscribes to the cluster's event stream
(:class:`repro.obs.trace.EventStream`); :meth:`MetricsCollector.on_event`
accumulates

* from the *observer replica* (an honest replica designated by the runner)
  the blocks added to its forest, committed, and forked, and any safety
  violation — every replica announces these, the observer's are kept;
* from every *client* the latency of committed replies, request timeouts
  and rejections;
* from *every* replica its sync and checkpoint activity: the interesting
  syncers are recovered or partition-healed replicas, rarely the observer.
  These are whole-run totals — catch-up typically happens outside the
  measurement window, and windowing it away would hide exactly the traffic
  the fault scenarios are about.

From these the collector derives the four metrics of §IV-B:

* **throughput** — committed transactions per second inside the measurement
  window;
* **latency** — client-observed commit latency (mean and percentiles);
* **chain growth rate (CGR)** — the fraction of blocks appended to the chain
  that end up committed, which isolates the damage done by forks from the
  damage done by timeouts;
* **block interval (BI)** — the average number of views between a block's
  proposal view and the view in which the observer commits it.

The metrics are a pure function of the stream: replaying a retained trace's
records into a fresh collector reproduces the live run's summary.
"""

from __future__ import annotations

import dataclasses
import statistics
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.trace import CHECKPOINT, CLIENT, COMMIT, FAULT, SYNC

#: Width of the throughput-timeline buckets a run records (seconds of run
#: time) unless its caller asks for another.
DEFAULT_BUCKET = 0.5


def timeline_mean(timeline, start: float, end: float) -> float:
    """Average Tx/s of the timeline buckets within ``[start, end)``.

    Works on both in-memory ``[(t, tps), ...]`` timelines and the
    ``[[t, tps], ...]`` lists found in stored campaign records.
    """
    values = [tps for t, tps in timeline if start <= t < end]
    if not values:
        return 0.0
    return sum(values) / len(values)


class LatencySamples:
    """Commit latencies as ``(t, latency)`` pairs, packed in two columns.

    A sample costs two doubles, 16 bytes, where a list of tuples costs about
    112: one is kept per committed reply, so this is most of what a long run
    holds.  Iterating yields the pairs in arrival order; ``len()`` and truth
    count them.
    """

    __slots__ = ("times", "values")

    def __init__(self) -> None:
        self.times = array("d")
        self.values = array("d")

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return zip(self.times, self.values)


@dataclass
class CommittedBlockRecord:
    """One committed block as seen by the observer replica."""

    block_id: str
    proposal_view: int
    commit_view: int
    height: int
    num_transactions: int
    committed_at: float


@dataclass
class RunMetrics:
    """Summary of one experiment run."""

    throughput_tps: float
    mean_latency: float
    median_latency: float
    p99_latency: float
    chain_growth_rate: float
    block_interval: float
    committed_transactions: int
    committed_blocks: int
    blocks_added: int
    blocks_forked: int
    safety_violations: int
    latency_samples: int
    #: Block-fetch activity across the whole cluster and run (not windowed).
    sync_rounds: int = 0
    sync_blocks_fetched: int = 0
    sync_bytes_fetched: int = 0
    #: Checkpoint activity across the whole cluster and run (not windowed;
    #: see :mod:`repro.checkpoint`).  ``peak_forest_blocks`` is the largest
    #: per-replica forest observed at a checkpoint — the bounded-memory
    #: claim is that it stays O(checkpoint_interval) on long runs.
    #: ``snapshot_bytes_fetched`` sums every SnapshotResponse received, each
    #: carrying a checkpoint (there is no negative answer to count).
    checkpoints_taken: int = 0
    snapshots_installed: int = 0
    blocks_truncated: int = 0
    snapshot_bytes_fetched: int = 0
    peak_forest_blocks: int = 0

    def to_dict(self) -> Dict[str, float]:
        """JSON-compatible dict: the serialization the campaign
        :class:`ResultStore` records."""
        return dataclasses.asdict(self)


class MetricsCollector:
    """Accumulates announced events and computes the run metrics."""

    #: Categories :meth:`on_event` consumes.  None of them is announced per
    #: message, so an untraced run keeps every per-message site masked off.
    mask = COMMIT | FAULT | SYNC | CHECKPOINT | CLIENT

    def __init__(
        self,
        window_start: float = 0.0,
        window_end: Optional[float] = None,
        observer: Optional[str] = None,
    ) -> None:
        self.window_start = window_start
        self.window_end = window_end
        #: The replica whose chain events count (None: every replica's, for
        #: a stream that holds one replica only).
        self.observer = observer
        self.latencies = LatencySamples()
        self.rejections: List[float] = []
        self.timeouts: List[float] = []
        self.committed_blocks: List[CommittedBlockRecord] = []
        self.blocks_added: List[Tuple[float, int]] = []
        self.blocks_forked: List[Tuple[float, int]] = []
        self.safety_violations = 0
        # Sync and checkpoint activity is never windowed or attributed, so
        # plain counters suffice (per-replica detail lives in each manager's
        # stats object).
        self.sync_rounds = 0
        self.sync_blocks_fetched = 0
        self.sync_bytes_fetched = 0
        self.checkpoints_taken = 0
        self.snapshots_installed = 0
        self.blocks_truncated = 0
        self.snapshot_bytes_fetched = 0
        self.peak_forest_blocks = 0

    def on_event(self, t, who, category, kind, view, payload=None) -> None:
        """Consume one announced event (``Tracer.emit``'s signature).

        Client kinds first: the commit reply is the one event announced per
        transaction.  Kinds the collector has no use for fall through.
        """
        if category == CLIENT:
            if kind == "commit-reply":
                latencies = self.latencies
                latencies.times.append(t)
                latencies.values.append(payload["latency"])
            elif kind == "request-timeout":
                self.timeouts.append(t)
            elif kind == "rejected":
                self.rejections.append(t)
        elif category == COMMIT:
            if self.observer not in (None, who):
                return
            if kind == "commit":
                self.committed_blocks.append(
                    CommittedBlockRecord(
                        block_id=payload["block"],
                        proposal_view=view,
                        commit_view=payload["commit_view"],
                        height=payload["height"],
                        num_transactions=payload["txs"],
                        committed_at=t,
                    )
                )
            elif kind == "block-added":
                self.blocks_added.append((t, view))
            elif kind == "block-forked":
                self.blocks_forked.append((t, view))
        elif category == SYNC:
            if kind == "fetch-round":
                self.sync_rounds += 1
            elif kind == "fetched":
                # Response bytes count whether or not the blocks were new.
                self.sync_blocks_fetched += payload["blocks"]
                self.sync_bytes_fetched += payload["bytes"]
        elif category == CHECKPOINT:
            if kind == "checkpoint":
                self.checkpoints_taken += 1
                self.blocks_truncated += payload["truncated"]
            elif kind == "forest-peak":
                self.peak_forest_blocks = max(self.peak_forest_blocks, payload["blocks"])
            elif kind == "snapshot-response":
                # Counted whether or not it installs: stale duplicates are
                # real traffic too.  Every response carries a checkpoint.
                self.snapshot_bytes_fetched += payload["bytes"]
            elif kind == "snapshot-install":
                self.snapshots_installed += 1
        elif category == FAULT:
            if kind == "safety-violation" and self.observer in (None, who):
                self.safety_violations += 1

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    def _in_window(self, timestamp: float) -> bool:
        if timestamp < self.window_start:
            return False
        if self.window_end is not None and timestamp > self.window_end:
            return False
        return True

    def _window_length(self, fallback_end: float) -> float:
        end = self.window_end if self.window_end is not None else fallback_end
        return max(end - self.window_start, 1e-9)

    def throughput(self) -> float:
        """Committed transactions per second within the window."""
        in_window = [r for r in self.committed_blocks if self._in_window(r.committed_at)]
        total = sum(r.num_transactions for r in in_window)
        last = max((r.committed_at for r in self.committed_blocks), default=self.window_start)
        return total / self._window_length(last)

    def _window_latencies(self) -> List[float]:
        """Client latencies within the window, in arrival order.

        One pass with :meth:`_in_window`'s test inline: there is one sample
        per committed transaction.
        """
        latencies = self.latencies
        start = self.window_start
        end = self.window_end if self.window_end is not None else float("inf")
        return [lat for t, lat in zip(latencies.times, latencies.values) if start <= t <= end]

    def latency_stats(self) -> Tuple[float, float, float]:
        """(mean, median, p99) of client latencies within the window."""
        return _latency_stats(self._window_latencies())

    def chain_growth_rate(self) -> float:
        """Committed blocks / blocks appended to the chain, within the window."""
        added = [t for t, _view in self.blocks_added if self._in_window(t)]
        if not added:
            return 0.0
        committed = [r for r in self.committed_blocks if self._in_window(r.committed_at)]
        return min(1.0, len(committed) / len(added))

    def block_interval(self) -> float:
        """Mean number of views from a block's proposal to its commit."""
        intervals = [
            r.commit_view - r.proposal_view
            for r in self.committed_blocks
            if self._in_window(r.committed_at)
        ]
        if not intervals:
            return 0.0
        return statistics.fmean(intervals)

    def throughput_timeline(self, bucket: float = DEFAULT_BUCKET, end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Committed Tx/s per time bucket — used by the responsiveness figure."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        last_commit = max((r.committed_at for r in self.committed_blocks), default=0.0)
        horizon = end if end is not None else last_commit
        if horizon <= 0:
            return []
        buckets: Dict[int, int] = {}
        for record in self.committed_blocks:
            index = int(record.committed_at // bucket)
            buckets[index] = buckets.get(index, 0) + record.num_transactions
        points = []
        for index in range(int(horizon // bucket) + 1):
            points.append((index * bucket, buckets.get(index, 0) / bucket))
        return points

    def summarize(self) -> RunMetrics:
        """Compute the standard summary of the run."""
        latencies = self._window_latencies()
        mean, median, p99 = _latency_stats(latencies)
        in_window_commits = [r for r in self.committed_blocks if self._in_window(r.committed_at)]
        return RunMetrics(
            throughput_tps=self.throughput(),
            mean_latency=mean,
            median_latency=median,
            p99_latency=p99,
            chain_growth_rate=self.chain_growth_rate(),
            block_interval=self.block_interval(),
            committed_transactions=sum(r.num_transactions for r in in_window_commits),
            committed_blocks=len(in_window_commits),
            blocks_added=sum(1 for t, _ in self.blocks_added if self._in_window(t)),
            blocks_forked=sum(1 for t, _ in self.blocks_forked if self._in_window(t)),
            safety_violations=self.safety_violations,
            latency_samples=len(latencies),
            sync_rounds=self.sync_rounds,
            sync_blocks_fetched=self.sync_blocks_fetched,
            sync_bytes_fetched=self.sync_bytes_fetched,
            checkpoints_taken=self.checkpoints_taken,
            snapshots_installed=self.snapshots_installed,
            blocks_truncated=self.blocks_truncated,
            snapshot_bytes_fetched=self.snapshot_bytes_fetched,
            peak_forest_blocks=self.peak_forest_blocks,
        )


def _latency_stats(latencies: List[float]) -> Tuple[float, float, float]:
    """(mean, median, p99) of ``latencies``; zeros when there are none."""
    if not latencies:
        return (0.0, 0.0, 0.0)
    samples = sorted(latencies)
    mean = statistics.fmean(samples)
    median = samples[len(samples) // 2]
    p99 = samples[min(len(samples) - 1, int(0.99 * len(samples)))]
    return (mean, median, p99)
