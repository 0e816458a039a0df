"""One path from a Configuration to a stored record.

``tests/golden/run_path_records.json`` holds ``sha256(encode_record(record))``
— the store's own serialisation — for records first captured at the parent
commit of the refactoring that folded three run functions, three result types
and four record literals into ``run_experiment`` / ``ExperimentResult`` /
``RunSpec.record``.  ``python tests/test_run_path.py`` prints the document
(that is how it was captured; it uses only names both commits have).

Every digest was re-captured when four block-fetch switches left
``Configuration``: a record carries its config and a run id that hashes it, so
each digest moved, and each new one is the old record with those four keys
deleted from ``config`` and its ``run_id`` recomputed.  Nothing the runs did
changed.  They were re-captured once more when a run id came to hash only
``Configuration.overrides()`` and the ``client`` field left: each new digest
is the old record without ``config["client"]`` and with its ``run_id``
recomputed over the fields that differ from their defaults.
"""

import gc
import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from repro import api
from repro.bench.metrics import timeline_mean
from repro.bench.runner import ExperimentResult
from repro.experiments import ExperimentSpec, encode_record
from repro.experiments import paper
from repro.fuzz import run_fuzz

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "run_path_records.json"
SMOKE = ROOT / "examples" / "campaigns" / "smoke.json"

#: The hand-built audited case: a crash/recover under a delay fluctuation.
AUDIT_CONFIG = dict(
    protocol="2chainhs", num_nodes=4, block_size=20, concurrency=8, num_clients=2,
    cost_profile="fast", election="hash", view_timeout=0.05, request_timeout=0.2,
    runtime=0.8, warmup=0.1, cooldown=0.1, seed=11,
)
AUDIT_SCENARIO = {"name": "crash-under-fluctuation", "events": [
    {"kind": "network-fluctuation", "at": 0.2, "duration": 0.3,
     "min_delay": 0.002, "max_delay": 0.01},
    {"kind": "crash-replica", "at": 0.3, "replica": "last"},
    {"kind": "recover-replica", "at": 0.6, "replica": "last"},
]}


def digest(record) -> str:
    return hashlib.sha256(encode_record(record).encode("utf-8")).hexdigest()


def smoke_spec() -> ExperimentSpec:
    return ExperimentSpec.from_dict(api.read_json(SMOKE))


def fig15_spec() -> ExperimentSpec:
    (entry,) = paper.select("fig15_responsiveness")
    return entry.spec("ci")


def bucketed_specs() -> list:
    """A non-default ``bucket`` on a scenario spec and on a plain one: it
    shapes the first one's timelines and is ignored by the second's."""
    return [
        ExperimentSpec(name="bucketed", base=AUDIT_CONFIG, scenario=AUDIT_SCENARIO, bucket=0.2),
        ExperimentSpec(name="bucketed-plain", base=AUDIT_CONFIG, bucket=0.2),
    ]


def fuzz_lines(directory) -> list:
    """The JSONL lines ``run_fuzz(budget=10, seed=0)`` appends to a fresh store."""
    report = run_fuzz(budget=10, seed=0, store=str(directory))
    assert report.ok and report.executed == 10
    return (Path(directory) / "results.jsonl").read_text().splitlines()


def capture() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        lines = fuzz_lines(directory)
    return {
        "smoke": [digest(r) for r in api.campaign(smoke_spec(), workers=1).records],
        "fig15_responsiveness": [
            digest(r) for r in api.campaign(fig15_spec(), workers=1).records
        ],
        "fuzz_seed0_budget10": [
            hashlib.sha256(line.encode("utf-8")).hexdigest() for line in lines
        ],
        "audit": digest(api.audit(AUDIT_CONFIG, AUDIT_SCENARIO).record),
        "bucketed": [digest(api.campaign(spec).records[0]) for spec in bucketed_specs()],
    }


class TestSameBytesAsTheParent:
    golden = json.loads(GOLDEN.read_text())

    def test_fig15_scenario_campaign(self):
        records = api.campaign(fig15_spec(), workers=1).records
        assert all(record["scenario"]["name"] == "responsiveness" for record in records)
        assert [digest(r) for r in records] == self.golden["fig15_responsiveness"]

    def test_bucket_shapes_scenario_timelines_only(self):
        with_scenario, plain = (api.campaign(spec).records[0] for spec in bucketed_specs())
        assert [digest(with_scenario), digest(plain)] == self.golden["bucketed"]
        assert [t for t, _tps in with_scenario["timeline"]][:3] == [0.0, 0.2, 0.4]
        assert [t for t, _tps in plain["timeline"]] == [0.0, 0.5, 1.0]

    def test_fuzz_appends_the_same_lines(self, tmp_path):
        lines = fuzz_lines(tmp_path)
        assert [hashlib.sha256(line.encode("utf-8")).hexdigest() for line in lines] == (
            self.golden["fuzz_seed0_budget10"])


class TestEveryDoorGivesTheSameBytes:
    """Campaign (serial or in workers), audit and a bare run followed by
    ``RunSpec.record`` are one path: identical ``encode_record`` strings."""

    golden = json.loads(GOLDEN.read_text())

    def test_plain_points(self):
        spec = smoke_spec()
        records = api.campaign(spec, workers=1).records
        serial = [encode_record(r) for r in records]
        parallel = [encode_record(r) for r in api.campaign(spec, workers=2).records]
        direct = [encode_record(run.record(api.run(run.config))) for run in spec.expand()]
        assert serial == parallel == direct
        assert [digest(r) for r in records] == self.golden["smoke"]
        assert all("scenario" not in record for record in records)

    def test_scenario_point(self):
        audited = api.audit(AUDIT_CONFIG, AUDIT_SCENARIO)
        assert audited.ok
        run = audited.case.run_spec()
        # The same point as a campaign (plus a sibling, so workers=2 really
        # goes through the process pool).
        spec = ExperimentSpec(name=run.campaign, base=run.config, scenario=run.scenario,
                              points=[run.params, {**run.params, "seed": run.config.seed + 1}])
        doors = {
            "audit": audited.record,
            "workers=1": api.campaign(spec, workers=1).records[0],
            "workers=2": api.campaign(spec, workers=2).records[0],
            "run + record": run.record(api.run(run.config, run.scenario, run.bucket)),
        }
        assert len({encode_record(record) for record in doors.values()}) == 1, list(doors)
        assert digest(audited.record) == self.golden["audit"]
        assert audited.record["scenario"] == run.scenario.to_dict()


class TestOneResultType:
    @pytest.mark.parametrize("scenario", [None, AUDIT_SCENARIO], ids=["plain", "scenario"])
    def test_result_round_trips_through_its_dict(self, scenario):
        result = api.run(AUDIT_CONFIG, scenario, bucket=0.25)
        assert type(result) is ExperimentResult
        data = json.loads(json.dumps(result.to_dict()))
        assert ("scenario" in data) == (scenario is not None)
        clone = ExperimentResult.from_dict(data)
        assert clone == result
        assert clone.to_dict() == result.to_dict()

    def test_mean_throughput_is_the_timeline_mean(self):
        result = api.run(AUDIT_CONFIG, AUDIT_SCENARIO, bucket=0.1)
        for window in [(0.0, 0.3), (0.3, 0.6), (0.6, 1.0), (5.0, 6.0)]:
            assert result.mean_throughput(*window) == timeline_mean(result.timeline, *window)
        assert result.mean_throughput(0.0, 0.3) > 0


class TestAFinishedRunIsFreedByReferenceCounting:
    """``api.run`` and ``api.audit`` build a cluster, run it and drop it: they
    cut its cycles first, so nothing of the run waits for a full pass of the
    cyclic collector (19 947 objects did, 4 572 of them transactions, before
    ``Cluster.dismantle``)."""

    @staticmethod
    def unreachable_after(call):
        """What only the cyclic collector can reclaim once ``call`` returned."""
        call()  # lazy imports and first-use caches are not the run's garbage
        gc.collect()
        gc.disable()
        try:
            outcome = call()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            return outcome, Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    @pytest.mark.parametrize("scenario", [None, AUDIT_SCENARIO], ids=["plain", "scenario"])
    def test_api_run(self, scenario):
        result, left = self.unreachable_after(lambda: api.run(AUDIT_CONFIG, scenario))
        assert result.metrics.committed_transactions > 100
        assert sum(left.values()) < 1000, left.most_common(5)
        assert not {"Transaction", "Block", "Vertex"} & set(left)

    def test_api_audit(self):
        outcome, left = self.unreachable_after(lambda: api.audit(AUDIT_CONFIG, AUDIT_SCENARIO))
        assert outcome.ok and outcome.fingerprint
        assert sum(left.values()) < 1000, left.most_common(5)
        assert not {"Transaction", "Block", "Vertex"} & set(left)

    def test_a_kept_cluster_is_left_whole(self):
        """Teardown happens only where the cluster is dropped: what
        ``api.build`` hands out is the caller's to start, run and read."""
        cluster = api.build(AUDIT_CONFIG, AUDIT_SCENARIO)
        cluster.start()
        cluster.run()
        assert cluster.consistency_check()
        for replica in cluster.replicas.values():
            assert replica.forest.committed_height > 10
            assert replica.kvstore.operations_applied > 100
            assert replica.stats.blocks_committed == replica.forest.committed_height
            assert len(replica.mempool) >= 0 and replica.pacemaker.current_view > 10
        assert cluster.scheduler.processed_events > 1000
        assert cluster.network.stats.messages_delivered > 1000
        assert sum(client.replies_committed for client in cluster.clients) > 100
        assert cluster.metrics.summarize().committed_transactions > 100


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1))
