"""Tests for the campaign layer: specs, stores, runners, serialization.

The fast configurations here mirror the other integration tests (tiny
blocks, sub-second horizons, the microsecond cost profile) so a whole
campaign runs in a few seconds.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import api
from repro.bench.config import Configuration
from repro.bench.metrics import timeline_mean
from repro.bench.runner import run_experiment
from repro.experiments import (
    CampaignRunner,
    ExperimentSpec,
    ResultStore,
    SpecError,
    StoreError,
    TruncatedRecordWarning,
    encode_record,
    run_key,
)
from repro.experiments.cli import main as cli_main

FAST = dict(
    block_size=20,
    runtime=0.5,
    warmup=0.1,
    cooldown=0.1,
    concurrency=8,
    num_clients=1,
    cost_profile="fast",
    view_timeout=0.05,
    request_timeout=0.2,
)

BASE = Configuration(**FAST)


class TestSpecExpansion:
    def test_grid_is_cartesian_product_in_insertion_order(self):
        spec = ExperimentSpec(
            base=BASE, grid={"protocol": ["hotstuff", "2chainhs"], "block_size": [20, 40]}
        )
        runs = spec.expand()
        assert len(runs) == 4
        combos = [(r.config.protocol, r.config.block_size) for r in runs]
        assert combos == [("hotstuff", 20), ("hotstuff", 40), ("2chainhs", 20), ("2chainhs", 40)]
        assert [r.index for r in runs] == [0, 1, 2, 3]

    def test_points_cross_grid(self):
        # A point's fields vary together: (view_timeout, payload_size) pairs.
        spec = ExperimentSpec(
            base=BASE,
            points=[{"view_timeout": 0.05, "payload_size": 0},
                    {"view_timeout": 0.1, "payload_size": 64}],
            grid={"protocol": ["hotstuff", "2chainhs"]},
        )
        runs = spec.expand()
        assert [(r.config.view_timeout, r.config.payload_size, r.config.protocol)
                for r in runs] == [
            (0.05, 0, "hotstuff"), (0.05, 0, "2chainhs"),
            (0.1, 64, "hotstuff"), (0.1, 64, "2chainhs"),
        ]
        assert [r.index for r in runs] == [0, 1, 2, 3]

    def test_tags_are_recorded_but_never_touch_the_config(self):
        spec = ExperimentSpec(base=BASE, points=[{"_series": "HS", "protocol": "hotstuff"}])
        (run,) = spec.expand()
        assert run.params == {"protocol": "hotstuff", "_series": "HS"}
        assert run.config == BASE.replace(protocol="hotstuff")

    def test_repetitions_increment_seed_by_default(self):
        spec = ExperimentSpec(base=BASE.replace(seed=10), repetitions=3)
        runs = spec.expand()
        assert [r.config.seed for r in runs] == [10, 11, 12]
        assert [r.params["_repetition"] for r in runs] == [0, 1, 2]

    def test_unknown_config_field_rejected(self):
        with pytest.raises(SpecError, match="not a Configuration field"):
            ExperimentSpec(base=BASE, grid={"blocksize": [1]})

    def test_overlapping_axes_rejected(self):
        with pytest.raises(SpecError, match="point override"):
            ExperimentSpec(
                base=BASE, grid={"block_size": [1]}, points=[{"block_size": 2}]
            )

    @pytest.mark.parametrize("key, value", [
        ("grid", [1, 2]),
        ("grid", {"block_size": []}),
        ("points", "ab"),
        ("points", [1]),
        ("repetitions", "3"),
        ("repetitions", 2.5),
        ("repetitions", True),
        ("repetitions", 0),
        ("bucket", "x"),
        ("bucket", True),
        ("bucket", 0),
        ("base", [1]),
        ("scenario", "crash"),
    ])
    def test_malformed_spec_is_a_spec_error_naming_the_key(self, key, value):
        with pytest.raises(SpecError) as error:
            ExperimentSpec.from_dict({"base": dict(FAST), key: value})
        (problem,) = str(error.value).splitlines()[1:]
        assert problem.startswith(f"  - {key}")


class TestSpecSerialization:
    def test_round_trip_through_json(self):
        spec = ExperimentSpec(
            name="trip",
            base=BASE,
            grid={"protocol": ["hotstuff", "2chainhs"]},
            points=[{"_tag": "a", "block_size": 20}],
            scenario={"events": [{"kind": "crash-replica", "at": 0.3, "replica": "last"}]},
            repetitions=2,
            bucket=0.2,
        )
        # The base is written as the fields it sets.
        assert spec.to_dict()["base"] == FAST
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert [r.run_id for r in clone.expand()] == [r.run_id for r in spec.expand()]

    @pytest.mark.parametrize("key, value", [
        ("zip", {"block_size": [20, 40]}),
        ("zip_axes", {"block_size": [20, 40]}),
        ("config", dict(FAST)),
        ("seed_policy", "fixed"),
        ("spec", {"name": "w", "base": dict(FAST)}),
    ])
    def test_removed_keys_are_refused(self, key, value):
        # A spec's keys are its field names; no alias, wrapper or second
        # axis kind is read.
        with pytest.raises(SpecError, match=f"unknown spec keys: {key} "):
            ExperimentSpec.from_dict({"name": "w", key: value})

    def test_from_dict_accepts_exactly_the_field_names(self):
        spec = ExperimentSpec(name="all", base=BASE, grid={"protocol": ["hotstuff"]},
                              points=[{"block_size": 20}], scenario={"events": []},
                              repetitions=2, bucket=0.2)
        data = {f.name: getattr(spec, f.name) for f in dataclasses.fields(ExperimentSpec)}
        assert ExperimentSpec.from_dict(data) == spec

    def test_from_dict_rejects_unknown_top_level_keys(self):
        # A flat Configuration dict must not silently become the default
        # spec; it fails naming the stray keys.
        with pytest.raises(SpecError, match="unknown spec keys.*protocol"):
            ExperimentSpec.from_dict({"protocol": "2chainhs", "block_size": 999})
        with pytest.raises(SpecError, match="repetiton"):
            ExperimentSpec.from_dict({"base": dict(FAST), "repetiton": 3})

    def test_grid_helper_builds_a_spec(self):
        spec = api.grid(dict(FAST), name="g", protocol=["hotstuff"], block_size=[20, 40])
        assert isinstance(spec, ExperimentSpec)
        assert len(spec.expand()) == 2
        assert spec.name == "g"

    def test_grid_helper_rejects_scalar_axis_values(self):
        with pytest.raises(TypeError, match="must be a list"):
            api.grid(dict(FAST), protocol="hotstuff")
        with pytest.raises(TypeError, match="must be a list"):
            api.grid(dict(FAST), block_size=400)


#: A valid value other than the default, for every Configuration field.
OTHER_VALUES = dict(
    protocol="2chainhs", num_nodes=7, byzantine_nodes=1, strategy="forking", master="r0",
    election="hash", block_size=100, mempool_capacity=2000, payload_size=64, num_clients=1,
    concurrency=20, arrival_rate=100.0, request_timeout=0.5, base_delay_mean=1e-3,
    base_delay_stddev=0.0, extra_delay_mean=1e-3, extra_delay_stddev=1e-4,
    bandwidth_bps=1e9, quorum_threshold=3, view_timeout=0.2, propose_wait_after_tc=0.01,
    runtime=2.0, warmup=0.0, cooldown=0.0, checkpoint_interval=10, seed=2,
    cost_profile="fast", mode="deploy", signing="ed25519",
)
DEFAULTS_GOLDEN = Path(__file__).parent / "golden" / "config_defaults.json"


class TestRunKey:
    def test_key_depends_on_config_content_only(self):
        a = run_key(BASE.replace(seed=1))
        assert a == run_key(Configuration(**FAST).replace(seed=1))
        assert a != run_key(BASE.replace(seed=2))

    def test_scenario_changes_the_key(self):
        from repro.scenario import Scenario

        scenario = Scenario(events=[{"kind": "crash-replica", "at": 0.3, "replica": "last"}])
        assert run_key(BASE) != run_key(BASE, scenario)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Configuration)])
    def test_a_field_at_its_default_is_not_hashed(self, field):
        default = Configuration()
        assert run_key(Configuration(**{field: getattr(default, field)})) == run_key(default)
        other = Configuration(**{field: OTHER_VALUES[field]}).validate()
        assert other.overrides() == {field: OTHER_VALUES[field]}
        assert run_key(other) != run_key(default)

    @pytest.mark.parametrize("field, given, stored", [
        ("view_timeout", 1, 1.0), ("arrival_rate", 0, 0.0), ("runtime", 3, 3.0),
    ])
    def test_an_int_for_a_float_field_is_one_run(self, field, given, stored):
        built = [Configuration(**{field: given}), Configuration.from_dict({field: given}),
                 Configuration().replace(**{field: given})]
        assert {run_key(config) for config in built} == {run_key(Configuration(**{field: stored}))}
        assert all(getattr(config, field).__class__ is float for config in built)

    def test_overrides_rebuild_every_paper_configuration(self):
        from repro.experiments import paper

        configs = [run.config for entry in paper.ENTRIES for run in entry.spec("ci").expand()]
        assert configs and all(Configuration.from_dict(c.overrides()) == c for c in configs)

    def test_the_defaults_are_pinned(self):
        # A key does not cover the defaults, so changing one changes what an
        # unchanged key runs: stores written before the change are stale.
        assert json.loads(DEFAULTS_GOLDEN.read_text()) == Configuration().to_dict()


class TestResultStore:
    def test_add_get_contains_persist(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        record = {"run_id": "abc", "campaign": "c", "metrics": {"throughput_tps": 1.0}}
        store.add(record)
        assert "abc" in store
        assert len(store) == 1
        assert store.get("abc") == record
        reloaded = ResultStore(tmp_path / "s")
        assert reloaded.get("abc") == record
        assert reloaded.keys() == ["abc"]

    def test_records_filter_by_campaign(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.add({"run_id": "a", "campaign": "x"})
        store.add({"run_id": "b", "campaign": "y"})
        assert [r["run_id"] for r in store.records("x")] == ["a"]

    def test_rejects_record_without_run_id(self, tmp_path):
        with pytest.raises(StoreError, match="run_id"):
            ResultStore(tmp_path / "s").add({"campaign": "c"})

    def test_rejects_corrupt_file(self, tmp_path):
        # Corruption anywhere but the final line is not a crash signature
        # (killed workers only ever truncate the tail) and still refuses
        # the store.
        root = tmp_path / "s"
        root.mkdir()
        (root / "results.jsonl").write_text('not json\n{"run_id": "ok"}\n')
        with pytest.raises(StoreError, match="not valid JSON"):
            ResultStore(root)

    def test_truncated_final_line_is_skipped_with_warning(self, tmp_path):
        # A worker killed mid-append leaves a partial last line: loading
        # keeps every complete record, warns, and compact() heals the file.
        store = ResultStore(tmp_path / "s")
        store.add({"run_id": "aaa", "v": 1})
        store.add({"run_id": "bbb", "v": 2})
        with store.path.open("a") as handle:
            handle.write('{"run_id": "ccc", "v":')  # killed mid-write
        with pytest.warns(TruncatedRecordWarning, match="truncated final record"):
            reopened = ResultStore(tmp_path / "s")
        assert reopened.keys() == ["aaa", "bbb"]
        assert "ccc" not in reopened
        reopened.compact()
        assert len(reopened.path.read_text().splitlines()) == 2
        # The healed file reloads silently.
        assert ResultStore(tmp_path / "s").keys() == ["aaa", "bbb"]

    def test_add_after_truncated_tail_never_fuses_lines(self, tmp_path):
        # Appending onto a tail that lost its newline would fuse the new
        # record with the remnant; the first add() must rewrite instead, so
        # a crash *before* compact() still leaves a loadable file.
        store = ResultStore(tmp_path / "s")
        store.add({"run_id": "aaa"})
        with store.path.open("a") as handle:
            handle.write('{"run_id": "bbb", "v":')  # killed mid-write
        with pytest.warns(TruncatedRecordWarning):
            reopened = ResultStore(tmp_path / "s")
        reopened.add({"run_id": "ccc"})
        # No compact() ran: the file must already be clean.
        assert ResultStore(tmp_path / "s").keys() == ["aaa", "ccc"]
        lines = reopened.path.read_text().splitlines()
        assert lines == [encode_record({"run_id": "aaa"}),
                         encode_record({"run_id": "ccc"})]

    def test_add_after_terminated_junk_tail_rewrites_too(self, tmp_path):
        # A corrupt final line *with* its newline must equally not be
        # stranded mid-file by a later append.
        store = ResultStore(tmp_path / "s")
        store.add({"run_id": "aaa"})
        with store.path.open("a") as handle:
            handle.write("junk tail\n")
        with pytest.warns(TruncatedRecordWarning):
            reopened = ResultStore(tmp_path / "s")
        reopened.add({"run_id": "ccc"})
        assert ResultStore(tmp_path / "s").keys() == ["aaa", "ccc"]

    def test_resume_re_executes_the_truncated_point(self, tmp_path):
        # End to end: a campaign's store loses its final record to a crash
        # mid-write; resuming re-executes exactly that point and the store
        # ends up whole again.
        spec = ExperimentSpec(base=BASE, grid={"block_size": [20, 40]})
        store_dir = tmp_path / "s"
        first = CampaignRunner(spec, store=ResultStore(store_dir)).run()
        assert first.executed == 2
        path = store_dir / "results.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        with pytest.warns(TruncatedRecordWarning):
            resumed_store = ResultStore(store_dir)
        resumed = CampaignRunner(spec, store=resumed_store).run()
        assert resumed.executed == 1
        assert resumed.skipped == 1
        assert resumed.records == first.records
        # The re-executed record was re-appended; the file is whole again.
        clean = ResultStore(store_dir)
        assert sorted(clean.keys()) == sorted(first.records[i]["run_id"] for i in range(2))

    def test_superseding_add_is_append_and_compact_folds_it(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.add({"run_id": "abc", "v": 1})
        store.add({"run_id": "abc", "v": 2})
        # Append-only on disk (last write wins in memory) until compacted.
        assert len(store.path.read_text().splitlines()) == 2
        assert len(store) == 1
        assert store.get("abc")["v"] == 2
        store.compact()
        assert len(store.path.read_text().splitlines()) == 1
        # Reopening never writes: superseded lines stay on disk, folded
        # in memory with last-write-wins, until the next compact().
        store.add({"run_id": "abc", "v": 3})
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened.path.read_text().splitlines()) == 2
        assert len(reopened) == 1
        assert reopened.get("abc")["v"] == 3
        reopened.compact()
        assert len(reopened.path.read_text().splitlines()) == 1

    def test_opening_a_missing_store_creates_nothing(self, tmp_path):
        root = tmp_path / "nope"
        store = ResultStore(root)
        assert len(store) == 0
        assert not root.exists()
        # The directory appears on the first write.
        store.add({"run_id": "abc"})
        assert root.is_dir()


class TestCampaignRunner:
    def _spec(self, name="campaign"):
        return ExperimentSpec(
            name=name,
            base=BASE,
            grid={"protocol": ["hotstuff", "2chainhs"], "block_size": [20, 40]},
        )

    def test_serial_records_match_run_experiment(self):
        result = CampaignRunner(self._spec()).run()
        assert result.executed == 4 and result.skipped == 0
        record = result.records[0]
        direct = run_experiment(Configuration.from_dict(record["config"]))
        assert record["metrics"] == direct.metrics.to_dict()
        assert record["consistent"] == direct.consistent
        assert record["highest_view"] == direct.highest_view

    def test_parallel_records_are_bit_identical_to_serial(self, tmp_path):
        serial = CampaignRunner(self._spec(), workers=1, store=tmp_path / "a").run()
        parallel = CampaignRunner(self._spec(), workers=4, store=tmp_path / "b").run()
        # The returned records are identical byte for byte and in order;
        # the stored files are identical modulo line ordering (parallel
        # campaigns persist each run the moment it completes).
        assert [encode_record(r) for r in serial.records] == [
            encode_record(r) for r in parallel.records
        ]
        lines_a = sorted((tmp_path / "a" / "results.jsonl").read_text().splitlines())
        lines_b = sorted((tmp_path / "b" / "results.jsonl").read_text().splitlines())
        assert lines_a == lines_b

    def test_interrupted_campaign_keeps_finished_runs(self, tmp_path):
        # The second point fails config validation inside the run; the
        # first point must already be persisted when the failure surfaces.
        spec = ExperimentSpec(
            base=BASE,
            points=[{"protocol": "hotstuff"}, {"protocol": "pbft"}],
        )
        store = tmp_path / "s"
        with pytest.raises(Exception, match="unknown protocol"):
            CampaignRunner(spec, store=store).run()
        survivors = ResultStore(store)
        assert len(survivors) == 1
        assert survivors.records()[0]["config"]["protocol"] == "hotstuff"

    def test_parallel_failure_persists_surviving_siblings(self, tmp_path):
        # With workers, a failing point must not discard the siblings the
        # pool ran to completion anyway: they are stored before the first
        # failure is re-raised.
        spec = ExperimentSpec(
            base=BASE,
            points=[
                {"protocol": "hotstuff"},
                {"protocol": "pbft"},
                {"protocol": "2chainhs"},
            ],
        )
        store = tmp_path / "s"
        with pytest.raises(Exception, match="unknown protocol"):
            CampaignRunner(spec, workers=2, store=store).run()
        survivors = {r["config"]["protocol"] for r in ResultStore(store).records()}
        assert survivors == {"hotstuff", "2chainhs"}

    def test_resume_executes_zero_runs(self, tmp_path):
        store = tmp_path / "s"
        first = CampaignRunner(self._spec(), store=store).run()
        resumed = CampaignRunner(self._spec(), workers=2, store=store).run()
        assert resumed.executed == 0
        assert resumed.skipped == 4
        assert [encode_record(r) for r in resumed.records] == [
            encode_record(r) for r in first.records
        ]
        # Nothing was appended to the store by the resumed campaign.
        assert len(ResultStore(store)) == 4

    def test_force_reruns_stored_points_without_duplicating_records(self, tmp_path):
        store = tmp_path / "s"
        CampaignRunner(self._spec(), store=store).run()
        forced = CampaignRunner(self._spec(), store=store, force=True).run()
        assert forced.executed == 4
        # Forced records replace the stored ones: still one record per run.
        assert len(ResultStore(store)) == 4

    def test_reused_records_are_relabelled_with_the_current_campaign(self, tmp_path):
        store = tmp_path / "s"
        CampaignRunner(self._spec("first"), store=store).run()
        reused = CampaignRunner(self._spec("second"), store=store).run()
        assert reused.executed == 0
        assert all(r["campaign"] == "second" for r in reused.records)

    def test_identical_points_execute_once(self):
        spec = ExperimentSpec(
            base=BASE,
            points=[{"_arm": "a", "protocol": "2chainhs"}, {"_arm": "b", "protocol": "2chainhs"}],
        )
        result = CampaignRunner(spec).run()
        assert result.executed == 1
        # The duplicate was deduplicated, not served from any store.
        assert result.skipped == 0
        assert result.deduplicated == 1
        assert len(result.records) == 2
        assert result.records[0]["metrics"] == result.records[1]["metrics"]
        assert result.records[0]["params"]["_arm"] == "a"
        assert result.records[1]["params"]["_arm"] == "b"

    def test_scenario_campaign_records_timeline(self):
        spec = ExperimentSpec(
            base=BASE,
            grid={"protocol": ["hotstuff"]},
            scenario={"events": [{"kind": "crash-replica", "at": 0.3, "replica": "last"}]},
        )
        (record,) = CampaignRunner(spec).run().records
        assert record["scenario"]["events"][0]["kind"] == "crash-replica"
        assert record["timeline"]
        assert record["consistent"]
        assert timeline_mean(record["timeline"], 0.0, 0.7) >= 0.0

    def test_api_campaign_accepts_dict_spec_and_path(self, tmp_path):
        spec_dict = {"name": "d", "base": dict(FAST), "grid": {"block_size": [20]}}
        from_dict = api.campaign(spec_dict)
        assert len(from_dict.records) == 1
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict))
        from_path = api.campaign(str(path))
        assert encode_record(from_path.records[0]) == encode_record(from_dict.records[0])
        with pytest.raises(TypeError, match="expected ExperimentSpec"):
            api.campaign(42)

    def test_campaign_result_metric_helper(self):
        spec = ExperimentSpec(base=BASE, grid={"block_size": [20, 40]})
        result = CampaignRunner(spec).run()
        assert result.metric("throughput_tps") == [
            r["metrics"]["throughput_tps"] for r in result.records
        ]
        assert len(result) == 2


class TestSweepOnCampaign:
    """A load sweep is a one-axis ``points`` campaign, from a file or from Python."""

    SPEC = ExperimentSpec(
        name="saturation-sweep", base=BASE,
        points=[{"concurrency": 4, "arrival_rate": 0.0}, {"concurrency": 8, "arrival_rate": 0.0}],
    )

    def test_points_file_runs_the_direct_points(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.SPEC.to_dict()))
        assert cli_main(["campaign", str(path), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["params"] for r in records] == self.SPEC.points
        assert [r["run_id"] for r in records] == [run.run_id for run in self.SPEC.expand()]
        direct = run_experiment(BASE.replace(concurrency=4, arrival_rate=0.0))
        assert records[0]["metrics"]["throughput_tps"] == direct.metrics.throughput_tps
        assert records[0]["metrics"]["mean_latency"] == direct.metrics.mean_latency

    def test_sweep_with_store_resumes(self, tmp_path):
        first = api.campaign(self.SPEC, store=tmp_path / "s")
        again = api.campaign(self.SPEC, workers=2, store=tmp_path / "s")
        assert (first.executed, again.executed, again.skipped) == (2, 0, 2)
        assert first.records == again.records
        assert len(ResultStore(tmp_path / "s")) == 2


class TestSerializationRoundTrips:
    def test_configuration_json_round_trip_reproduces_metrics(self):
        config = Configuration(protocol="2chainhs", seed=7, **FAST)
        clone = Configuration.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone == config
        assert run_experiment(clone).metrics == run_experiment(config).metrics
