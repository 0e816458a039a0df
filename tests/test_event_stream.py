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
  originals.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.bench.metrics import MetricsCollector
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

    def test_histogram_kinds_are_aggregated_not_retained(self):
        tracer = Tracer(capacity=4)
        net, client = CATEGORY_BITS["net"], CATEGORY_BITS["client"]
        for i in range(10):
            tracer.emit(float(i), "r0", net, "hop", 0, {"delay": 0.001})
        tracer.emit(10.0, "c0", client, "commit-reply", 0, {"replica": "r0", "latency": 0.02})
        assert tracer.metrics.histogram("r0", "hop_delay").count == 10
        assert tracer.metrics.histogram("c0", "request_to_commit").count == 1
        # Only the commit reply took a ring-buffer slot.
        assert [r.kind for r in tracer.records()] == ["commit-reply"]
        assert tracer.records_evicted == 0


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


class TestSameNumbers:
    """Byte-identical records on the benchmark's simulated configurations."""

    golden = json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("protocol, num_nodes", [
        ("hotstuff", 4), ("2chainhs", 4), ("streamlet", 4), ("hotstuff", 16)])
    def test_steady_points(self, protocol, num_nodes, seed):
        record = api.run(_steady_config(protocol, num_nodes, seed)).to_dict()
        expected = self.golden[f"steady/{protocol}-n{num_nodes}/seed{seed}"]
        assert record["metrics"] == expected["metrics"]
        assert record["highest_view"] == expected["highest_view"]
        assert _digest(record) == expected["record_digest"]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("protocol, rate", [
        ("hotstuff", 400.0), ("2chainhs", 400.0), ("streamlet", 150.0)])
    def test_faulty_cases(self, protocol, rate, seed):
        outcome = api.audit(*_faulty_case(protocol, rate, seed))
        expected = self.golden[f"faulty/{protocol}/seed{seed}"]
        assert outcome.record["metrics"] == expected["metrics"]
        assert outcome.fingerprint == expected["fingerprint"]
        assert _digest(outcome.record) == expected["record_digest"]
