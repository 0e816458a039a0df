"""The instrumentation seam: one event stream, the collector and the tracer its consumers.

* ``RunMetrics`` is a pure function of the stream: a retained trace replayed
  into a fresh collector reproduces the live run's summary and timeline;
* a tracer's category mask cannot starve the aggregator, and the tracer
  retains only what its mask selects;
* the numbers are the ones the previous, two-channel wiring produced
  (goldens captured at the parent commit of the refactoring).  The six
  ``faulty/*`` entries were re-captured when recovery became one catch-up
  protocol: a recovered replica's first ``BlockRequest`` now leaves at once
  instead of after a ``SnapshotRequest`` round trip, which moves every fault
  case's timeline.  The ``steady/*`` entries never recover and are the
  originals.  Every ``record_digest`` was re-captured when four block-fetch
  switches left ``Configuration`` (a record carries its config), and again
  when the ``client`` field left it and a run id came to hash only the
  fields a run sets; the metrics, views, fingerprints and work counts did
  not move either time;
* the work each of those runs does is pinned exactly: scheduler events,
  messages sent per kind, bytes sent, sign and verify calls.
"""

import hashlib
import json
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.bench.metrics import MetricsCollector
from repro.bench.runner import Cluster
from repro.crypto.keys import KeyPair
from repro.obs.trace import CATEGORY_BITS, EventStream, Tracer, tracing

GOLDEN = Path(__file__).parent / "golden" / "perf_quick_records.json"

FAST = dict(
    num_nodes=4, block_size=20, concurrency=10, num_clients=2,
    cost_profile="fast", view_timeout=0.03, runtime=0.6, warmup=0.1, cooldown=0.1, seed=5,
)
#: Crash -> recover far enough behind that the catch-up is a snapshot install.
SNAPSHOT_CASE = (
    dict(FAST, election="hash", request_timeout=0.3, checkpoint_interval=5,
         warmup=0.0, runtime=3.0, cooldown=0.0),
    {"events": [{"kind": "crash-replica", "at": 0.4, "replica": "last"},
                {"kind": "recover-replica", "at": 2.0, "replica": "last"}]},
)


class TestEventStream:
    def test_wants_is_the_union_and_each_subscriber_hears_its_own_mask(self):
        stream = EventStream()
        assert stream.wants == 0
        first, second = [], []
        stream.subscribe(lambda *event: first.append(event), 0b011)
        # A lone subscriber is called directly (no fan-out frame).
        assert stream.emit.__name__ == "<lambda>"
        stream.subscribe(lambda *event: second.append(event), 0b110)
        assert stream.wants == 0b111
        for category in (0b001, 0b010, 0b100):
            stream.emit(0.5, "r0", category, "kind", 3, None)
        assert [event[2] for event in first] == [0b001, 0b010]
        assert [event[2] for event in second] == [0b010, 0b100]
        assert first[1] == second[0] == (0.5, "r0", 0b010, "kind", 3, None)


class TestPureFunctionOfTheStream:
    @pytest.mark.parametrize("config, scenario", [
        (dict(FAST, protocol="hotstuff"), None),
        (dict(FAST, protocol="2chainhs"), None),
        (dict(FAST, protocol="streamlet"), None),
        SNAPSHOT_CASE,
    ], ids=["hotstuff", "2chainhs", "streamlet", "crash-recover-snapshot"])
    def test_replaying_the_trace_reproduces_the_metrics(self, config, scenario):
        with tracing(capacity=1 << 20) as tracer:
            cluster = api.build(config, scenario)
            cluster.start()
            cluster.run()
        assert tracer.records_evicted == 0
        live = cluster.metrics
        summary = live.summarize()
        assert summary.committed_blocks > 0 and summary.latency_samples > 0
        if scenario is not None:
            assert summary.snapshots_installed >= 1 and summary.sync_rounds >= 1

        replayed = MetricsCollector(live.window_start, live.window_end, observer=live.observer)
        for r in tracer.records():
            replayed.on_event(r.t, r.replica, CATEGORY_BITS[r.category], r.kind, r.view, r.payload)
        assert replayed.summarize().to_dict() == summary.to_dict()
        assert replayed.throughput_timeline() == live.throughput_timeline()
        assert (replayed.timeouts, replayed.rejections) == (live.timeouts, live.rejections)


class TestMaskCannotStarveTheAggregator:
    CONFIG = dict(FAST, runtime=0.3)

    @settings(max_examples=8, deadline=None)
    @given(st.one_of(
        st.sampled_from([("vote",), ("net",), ("view", "proposal", "qc", "timeout")]),
        st.sets(st.sampled_from(sorted(CATEGORY_BITS)), min_size=1).map(sorted).map(tuple),
    ))
    def test_any_category_subset_leaves_run_metrics_unchanged(self, subset):
        untraced = api.run(self.CONFIG)
        with tracing(categories=subset) as tracer:
            traced = api.run(self.CONFIG)
        assert traced.metrics.to_dict() == untraced.metrics.to_dict()
        assert traced.timeline == untraced.timeline
        assert {r.category for r in tracer.records()} <= set(subset)
        assert untraced.metrics.committed_transactions > 0

    def test_every_selected_kind_is_retained(self):
        tracer = Tracer(categories=("net", "proposal", "client"))
        net, proposal, client, vote = (
            CATEGORY_BITS[name] for name in ("net", "proposal", "client", "vote"))
        tracer.emit(0.0, "r0", net, "hop", 0, {"delay": 0.001})
        tracer.emit(1.0, "r0", proposal, "queue-depth", 1, {"depth": 3.0})
        tracer.emit(2.0, "c0", client, "commit-reply", 1, {"replica": "r0", "latency": 0.02})
        tracer.emit(3.0, "r0", vote, "vote", 1)  # outside the mask
        # No kind is special: whatever the mask selects is a record.
        assert [(r.category, r.kind) for r in tracer.records()] == [
            ("net", "hop"), ("proposal", "queue-depth"), ("client", "commit-reply")]
        assert tracer.records_emitted == 3


# ----------------------------------------------------------------------
# same numbers as the two-channel wiring
# ----------------------------------------------------------------------
def _digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


def _steady_config(protocol: str, num_nodes: int, seed: int) -> dict:
    """One point of the repo benchmark's ``sim_steady`` workload at its quick size."""
    return {"protocol": protocol, "num_nodes": num_nodes, "seed": seed,
            "block_size": 400, "payload_size": 128, "num_clients": 2, "concurrency": 400,
            "cost_profile": "standard", "base_delay_mean": 0.25e-3,
            "base_delay_stddev": 0.05e-3, "bandwidth_bps": 125_000_000.0,
            "view_timeout": 0.5, "request_timeout": 5.0, "mempool_capacity": 4000,
            "runtime": 0.25, "warmup": 0.2, "cooldown": 0.5}


def _faulty_case(protocol: str, rate: float, seed: int):
    """One case of ``sim_faulty`` at its quick size: a single fault cycle."""
    fluctuation = {"kind": "network-fluctuation", "duration": 0.5,
                   "min_delay": 0.005, "max_delay": 0.05}
    # One cycle from the end of warm-up, summed the way the benchmark sums it.
    start, crash_s, fluct_s, isolate_s = 0.2, 0.5, 0.5, 0.4
    events = [
        {"kind": "crash-replica", "at": start, "replica": "r5"},
        {"kind": "recover-replica", "at": start + crash_s, "replica": "r5"},
        {**fluctuation, "at": start + crash_s},
        {"kind": "partition", "at": start + crash_s + fluct_s, "duration": isolate_s,
         "groups": [["r4"], ["r0", "r1", "r2", "r3", "r5", "r6"]]},
        {**fluctuation, "at": start + crash_s + fluct_s + isolate_s},
    ]
    config = {"protocol": protocol, "arrival_rate": rate, "seed": seed,
              "block_size": 400, "payload_size": 128, "num_clients": 2,
              "num_nodes": 7, "byzantine_nodes": 1, "strategy": "forking",
              "election": "hash", "checkpoint_interval": 50, "cost_profile": "standard",
              "view_timeout": 0.2, "request_timeout": 2.0, "mempool_capacity": 20000,
              "runtime": 2.0, "warmup": 0.2, "cooldown": 2.2}
    return config, {"name": "perf-fault-cycles", "events": events}


STEADY_POINTS = [("hotstuff", 4), ("2chainhs", 4), ("streamlet", 4), ("hotstuff", 16)]
FAULTY_POINTS = [("hotstuff", 400.0), ("2chainhs", 400.0), ("streamlet", 150.0)]
SEEDS = [1, 2]

#: Golden key -> the call that runs that quick point.
QUICK_POINTS = {
    **{f"steady/{protocol}-n{num_nodes}/seed{seed}":
       partial(api.run, _steady_config(protocol, num_nodes, seed))
       for protocol, num_nodes in STEADY_POINTS for seed in SEEDS},
    **{f"faulty/{protocol}/seed{seed}": partial(api.audit, *_faulty_case(protocol, rate, seed))
       for protocol, rate in FAULTY_POINTS for seed in SEEDS},
}


def _counted(run):
    """``run()`` and the work counts of its one ``Cluster.run``.

    The counters are read as the run returns, before the cluster is
    dismantled; signs and verifies are counted from the start of ``run()``.
    """
    calls = Counter()
    counts = []
    original_run, mac, verify_tag = Cluster.run, KeyPair.mac, KeyPair.verify_tag

    def counted_mac(keypair, message):
        calls["mac"] += 1
        return mac(keypair, message)

    def counted_verify_tag(keypair, message, tag):
        calls["verify_tag"] += 1
        return verify_tag(keypair, message, tag)

    def counted_run(cluster, until=None):
        original_run(cluster, until)
        stats = cluster.network.stats
        counts.append({
            "events": cluster.scheduler.processed_events,
            "messages": dict(stats.per_type_counts),
            "bytes": stats.bytes_sent,
            # A verify recomputes the tag through ``mac``.
            "signs": calls["mac"] - calls["verify_tag"],
            "verifies": calls["verify_tag"],
        })

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cluster, "run", counted_run)
        patch.setattr(KeyPair, "mac", counted_mac)
        patch.setattr(KeyPair, "verify_tag", counted_verify_tag)
        result = run()
    (only,) = counts
    return result, only


@pytest.fixture(scope="module")
def quick_run():
    """Runs each quick point once for every test that reads it: ``(result, counts)`` by key."""
    runs = {}

    def run(key):
        if key not in runs:
            runs[key] = _counted(QUICK_POINTS[key])
        return runs[key]

    return run


def _as_golden(counts) -> str:
    """``counts`` as the golden file holds it inside an entry, ready to paste."""
    text = json.dumps(counts, indent=1, sort_keys=True).replace("\n", "\n  ")
    return f'  "counts": {text},'


class TestSameNumbers:
    """Byte-identical records and exact work counts on the benchmark's simulated configurations."""

    golden = json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("protocol, num_nodes", STEADY_POINTS)
    def test_steady_points(self, quick_run, protocol, num_nodes, seed):
        key = f"steady/{protocol}-n{num_nodes}/seed{seed}"
        record = quick_run(key)[0].to_dict()
        expected = self.golden[key]
        assert record["metrics"] == expected["metrics"]
        assert record["highest_view"] == expected["highest_view"]
        assert _digest(record) == expected["record_digest"]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("protocol, rate", FAULTY_POINTS)
    def test_faulty_cases(self, quick_run, protocol, rate, seed):
        key = f"faulty/{protocol}/seed{seed}"
        outcome = quick_run(key)[0]
        expected = self.golden[key]
        assert outcome.record["metrics"] == expected["metrics"]
        assert outcome.fingerprint == expected["fingerprint"]
        assert _digest(outcome.record) == expected["record_digest"]

    @pytest.mark.parametrize("key", sorted(QUICK_POINTS))
    def test_work_counts(self, quick_run, key):
        counts = quick_run(key)[1]
        assert counts == self.golden[key]["counts"], (
            f"the work counts of {key} moved; if the change means to move them, "
            f"replace the entry's counts in {GOLDEN.name} with\n{_as_golden(counts)}"
        )
