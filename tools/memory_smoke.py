#!/usr/bin/env python3
"""Long-run memory smoke test: bounded forests, unchanged committed metrics.

Runs a 60-second-simulated-time experiment twice — checkpointing off and on
(``checkpoint_interval=50``) — and asserts the bounded-memory contract of
:mod:`repro.checkpoint`:

* every committed-throughput/latency metric is **bit-identical** between the
  two runs (checkpointing must be invisible to consensus);
* with checkpointing on, the peak per-replica forest stays below a fixed
  bound of O(checkpoint interval), while the baseline's forest grows with
  the committed chain;
* the scheduler's event heap stays compact (cancelled pacemaker timers are
  lazily swept and a client arms one request deadline however many requests
  it has outstanding, so the heap tracks live timers, not view-change or
  request history);
* the replica's reply-routing state stays bounded: its mempool, which holds
  each admitted transaction until commit and so is whom the replica answers,
  queues at most its capacity and has at most an in-flight tail of blocks'
  worth proposed, and the replied-txid dedup holds at most its per-client
  floor-plus-window entries, however many transactions committed;
* the vote and timeout trackers stay bounded: ``Replica._commit`` calls
  ``prune_below(committed view)`` on both, so entries track the in-flight
  view window, not the thousands of views the run enters;
* the metrics collector keeps raw samples only — one entry per client
  outcome or per observer block, which is what the metrics are computed
  from — and no other container (nothing keyed by view).

Before either long run (``ru_maxrss`` is a high-water mark), a first stage
runs one 2-second point eight times back to back through ``api.run`` with the
cyclic collector disabled, and asserts that the process holds as many
GC-tracked objects, and has touched as much memory, after run 8 as after
run 2: a dropped cluster is freed by reference counting
(``Cluster.dismantle``), so a new reference cycle through a run's heap — or a
per-transaction ``__dict__`` — shows up here as growth per run.

Exits non-zero on any violation.  CI runs this as the ``memory-smoke`` job;
run it locally with ``python tools/memory_smoke.py``.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import api  # noqa: E402
from repro.bench.config import Configuration  # noqa: E402
from repro.bench.metrics import LatencySamples  # noqa: E402
from repro.bench.runner import build_cluster  # noqa: E402
from repro.executor.kvstore import DEFAULT_DEDUP_WINDOW  # noqa: E402

#: Simulated seconds of the measured run.
HORIZON = 60.0
#: Commits between checkpoints in the checkpointed run.
INTERVAL = 50
#: Peak forest bound: the retained window is [checkpoint, head], so one
#: interval plus the uncommitted in-flight tail.
FOREST_BOUND = 2 * INTERVAL + 16
#: Uncommitted blocks above the committed head (the in-flight tail above).
#: A transaction a replica proposed stays in its mempool's proposed set until
#: its block commits (``mark_committed``) or forks (``_recycle_forks``
#: requeues it), so the set holds at most ``block_size`` per block of this
#: tail: the bound checked is ``IN_FLIGHT_BLOCKS * block_size``.  The pending
#: queue is capped by ``mempool_capacity`` at admission; only a fork recycled
#: into a full pool can exceed it, and one client's 10 outstanding requests
#: never fill the default 1 000 entries.
IN_FLIGHT_BLOCKS = 16
#: Vote/timeout tracker bound: entries live only for views at or above the
#: last committed view (``prune_below``), so a generous multiple of the
#: in-flight view window — thousands of views pass through either tracker
#: over the run.
TRACKER_BOUND = 64
#: Scheduler heap bound, in live timers: a view timer per replica, a request
#: deadline per client, one hop in flight per outstanding request and one
#: broadcast per replica (4 + 1 + 10 + 16) — doubled, since cancelled view
#: timers stay until they outnumber the rest, and never under the 64 entries
#: below which the scheduler does not compact.
HEAP_BOUND = 64

#: Back-to-back stage: runs of the same point, and how far run 8 may sit
#: above run 2 (run 1 still loads modules and fills first-use caches).
BACK_TO_BACK_RUNS = 8
BACK_TO_BACK_TOLERANCE = 0.05

#: The only containers the collector may hold: its raw samples.
COLLECTOR_SAMPLES = {
    "latencies", "rejections", "timeouts",
    "committed_blocks", "blocks_added", "blocks_forked",
}

#: RunMetrics fields that must be bit-identical between the two runs.
COMMITTED_FIELDS = [
    "throughput_tps",
    "mean_latency",
    "median_latency",
    "p99_latency",
    "chain_growth_rate",
    "block_interval",
    "committed_transactions",
    "committed_blocks",
    "blocks_added",
    "blocks_forked",
    "safety_violations",
    "latency_samples",
]


def run_once(checkpoint_interval: int):
    config = Configuration(
        num_nodes=4,
        block_size=20,
        concurrency=10,
        num_clients=1,
        cost_profile="fast",
        view_timeout=0.03,
        election="hash",
        request_timeout=0.3,
        seed=9,
        warmup=0.0,
        runtime=HORIZON,
        cooldown=0.0,
        checkpoint_interval=checkpoint_interval,
    )
    cluster = build_cluster(config)
    started = time.perf_counter()
    cluster.start()
    cluster.run()
    wall = time.perf_counter() - started
    return cluster, wall


def back_to_back() -> List[str]:
    """Run one 2-s point eight times with the collector off; flat or a failure."""
    config = dict(
        num_nodes=4, block_size=400, concurrency=200, num_clients=2, payload_size=128,
        cost_profile="standard", view_timeout=0.5, request_timeout=5.0,
        mempool_capacity=4000, seed=9, warmup=0.0, runtime=2.0, cooldown=0.0,
    )
    readings = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(BACK_TO_BACK_RUNS):
            committed = api.run(config).metrics.committed_transactions
            readings.append((
                len(gc.get_objects()),
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ))
    finally:
        gc.enable()
    (objects_2, rss_2), (objects_8, rss_8) = readings[1], readings[-1]
    print(
        f"  back to back, collector off, {committed} transactions a run: "
        f"GC-tracked objects {objects_2} after run 2, {objects_8} after run "
        f"{BACK_TO_BACK_RUNS}; ru_maxrss {rss_2:.1f} MB, {rss_8:.1f} MB"
    )
    failures = []
    if committed < 1000:
        failures.append(f"back-to-back point committed only {committed} transactions")
    for what, early, late in (("GC-tracked objects", objects_2, objects_8),
                              ("ru_maxrss (MB)", rss_2, rss_8)):
        if late > early * (1 + BACK_TO_BACK_TOLERANCE):
            failures.append(
                f"{what} grew from {early:.0f} after run 2 to {late:.0f} after run "
                f"{BACK_TO_BACK_RUNS} with the cyclic collector off: something a "
                "finished run allocates is only reclaimable by a collection "
                "(a new reference cycle, or an object that outlives Cluster.dismantle)"
            )
    return failures


def main() -> int:
    print(f"memory smoke: {HORIZON:.0f}s simulated, checkpoint_interval={INTERVAL}")
    failures = back_to_back()
    baseline, base_wall = run_once(0)
    print(f"  baseline run (checkpointing off): {base_wall:.1f}s wall")
    checked, ck_wall = run_once(INTERVAL)
    print(f"  checkpointed run:                 {ck_wall:.1f}s wall")

    base_metrics = baseline.metrics.summarize()
    ck_metrics = checked.metrics.summarize()
    for field in COMMITTED_FIELDS:
        base_value = getattr(base_metrics, field)
        ck_value = getattr(ck_metrics, field)
        if base_value != ck_value:
            failures.append(
                f"metric {field} diverged: baseline {base_value!r} vs "
                f"checkpointed {ck_value!r}"
            )

    base_forest = len(baseline.replicas["r0"].forest)
    committed = baseline.replicas["r0"].forest.committed_height
    print(f"  committed blocks: {committed}")
    print(f"  baseline forest blocks (r0): {base_forest}")
    print(
        f"  checkpointed peak forest blocks: {ck_metrics.peak_forest_blocks} "
        f"(bound {FOREST_BOUND}); {ck_metrics.checkpoints_taken} checkpoints, "
        f"{ck_metrics.blocks_truncated} blocks truncated"
    )
    if ck_metrics.checkpoints_taken == 0:
        failures.append("no checkpoints were taken")
    if ck_metrics.peak_forest_blocks > FOREST_BOUND:
        failures.append(
            f"peak forest {ck_metrics.peak_forest_blocks} exceeds bound {FOREST_BOUND}"
        )
    if base_forest <= FOREST_BOUND:
        failures.append(
            f"baseline forest ({base_forest} blocks) never outgrew the bound; "
            "the smoke run is too short to prove anything"
        )
    if not checked.consistency_check():
        failures.append("checkpointed run failed the consistency check")
    if not baseline.consistency_check():
        failures.append("baseline run failed the consistency check")

    # Reply-routing bounds: the run commits far more transactions than
    # either structure may retain, so these only hold if commits release
    # mempool entries and the dedup's eviction works.
    committed_tx = base_metrics.committed_transactions
    num_clients = baseline.config.num_clients
    replied_bound = num_clients * (1 + DEFAULT_DEDUP_WINDOW)
    if committed_tx <= replied_bound:
        failures.append(
            f"only {committed_tx} transactions committed (bound {replied_bound}); "
            "the smoke run is too short to exercise reply-state eviction"
        )
    for label, cluster in (("baseline", baseline), ("checkpointed", checked)):
        held = {
            name for name, value in vars(cluster.metrics).items()
            if isinstance(value, (list, dict, set, tuple, LatencySamples))
        }
        if held != COLLECTOR_SAMPLES:
            failures.append(
                f"{label} collector holds containers {sorted(held ^ COLLECTOR_SAMPLES)} "
                "beside its raw samples; it may keep no per-view state"
            )
        proposed_bound = IN_FLIGHT_BLOCKS * cluster.config.block_size
        for replica in cluster.replicas.values():
            mempool = replica.mempool
            pending, proposed = len(mempool._pending_ids), len(mempool._proposed_ids)
            replied = replica._replied_txids.entry_count()
            if pending > mempool.capacity:
                failures.append(
                    f"{label} {replica.node_id}: mempool queues {pending} "
                    f"transactions (capacity {mempool.capacity})"
                )
            if proposed > proposed_bound:
                failures.append(
                    f"{label} {replica.node_id}: mempool holds {proposed} proposed "
                    f"transactions (bound {proposed_bound}); a committed or forked "
                    "block's transactions were not released"
                )
            if replied > replied_bound:
                failures.append(
                    f"{label} {replica.node_id}: replied-txid dedup holds "
                    f"{replied} entries (bound {replied_bound})"
                )
            votes_held = len(replica.quorum._pending) + len(replica.quorum._certified)
            timeout_tracker = replica.pacemaker.timeout_tracker
            timeouts_held = (
                len(timeout_tracker._pending) + len(timeout_tracker._certified)
            )
            if votes_held > TRACKER_BOUND:
                failures.append(
                    f"{label} {replica.node_id}: quorum tracker holds "
                    f"{votes_held} entries (bound {TRACKER_BOUND}); "
                    "prune_below is not keeping up"
                )
            if timeouts_held > TRACKER_BOUND:
                failures.append(
                    f"{label} {replica.node_id}: timeout tracker holds "
                    f"{timeouts_held} entries (bound {TRACKER_BOUND}); "
                    "prune_below is not keeping up"
                )
    r0 = baseline.replicas["r0"]
    print(
        f"  reply routing (r0): {len(r0.mempool._pending_ids)} pending and "
        f"{len(r0.mempool._proposed_ids)} proposed in the mempool "
        f"(bounds {r0.mempool.capacity}, {IN_FLIGHT_BLOCKS * baseline.config.block_size}), "
        f"{r0._replied_txids.entry_count()} "
        f"replied entries (bound {replied_bound}), "
        f"{committed_tx} transactions committed"
    )
    print(
        f"  trackers (r0): {len(r0.quorum._pending) + len(r0.quorum._certified)} "
        f"vote entries, "
        f"{len(r0.pacemaker.timeout_tracker._pending) + len(r0.pacemaker.timeout_tracker._certified)} "
        f"timeout entries (bound {TRACKER_BOUND})"
    )

    for label, cluster in (("baseline", baseline), ("checkpointed", checked)):
        scheduler = cluster.scheduler
        print(
            f"  {label} scheduler heap: {scheduler.pending_events} pending "
            f"(bound {HEAP_BOUND}; {scheduler.cancelled_pending} cancelled), "
            f"{scheduler.compactions} compactions, "
            f"{scheduler.processed_events} events processed"
        )
        # Views entered and requests sent number in the tens of thousands
        # over the run; none of either may linger.
        if scheduler.pending_events > HEAP_BOUND:
            failures.append(
                f"{label} scheduler heap holds {scheduler.pending_events} "
                f"entries (bound {HEAP_BOUND}: cancelled-timer compaction is not "
                "working, or something posts an entry per request again)"
            )

    if failures:
        print("FAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("OK: back-to-back runs flat, forests bounded, reply routing bounded, "
          "committed metrics bit-identical, heap compact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
