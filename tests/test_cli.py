"""Tests for the ``python -m repro`` command line (in-process via cli.main)."""

import json
from pathlib import Path

import pytest

from repro import api
from repro.analysis import figure_for_campaign
from repro.bench.config import Configuration, ConfigurationError
from repro.experiments import ExperimentSpec, run_key
from repro.experiments.cli import main
from repro.experiments.store import ResultStore, TruncatedRecordWarning

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST = {
    "protocol": "hotstuff",
    "block_size": 20,
    "runtime": 0.5,
    "warmup": 0.1,
    "cooldown": 0.1,
    "concurrency": 8,
    "num_clients": 1,
    "cost_profile": "fast",
    "view_timeout": 0.05,
    "request_timeout": 0.2,
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"config": FAST}))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-smoke",
                "base": FAST,
                "grid": {"protocol": ["hotstuff", "2chainhs"], "block_size": [20, 40]},
            }
        )
    )
    return str(path)


class TestRun:
    def test_run_prints_metrics_table(self, config_file, capsys):
        assert main(["run", config_file]) == 0
        out = capsys.readouterr().out
        assert "throughput_tps" in out
        assert "consistent" in out

    def test_run_json_output(self, config_file, capsys):
        assert main(["run", config_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["throughput_tps"] > 0
        assert data["consistent"] is True

    def test_run_with_scenario_file(self, config_file, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps({"events": [{"kind": "crash-replica", "at": 0.3, "replica": "last"}]})
        )
        assert main(["run", config_file, "--scenario", str(scenario), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["consistent"] is True

    def test_run_invalid_config_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"protocol": "pbft"}))
        assert main(["run", str(path)]) == 1
        assert "unknown protocol" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err == f"error: no such file: {tmp_path / 'nope.json'}\n"

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["run", str(path)]) == 1
        assert "is not valid JSON" in capsys.readouterr().err

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        # A typo must not quietly run the default 4 replicas.
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"config": {**FAST, "num_node": 7, "blok_size": 5}}))
        assert main(["run", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "blok_size, num_node" in line


CRASH = {"events": [{"kind": "crash-replica", "at": 0.3, "replica": "last"}]}


def assert_one_error_line(stderr: str, *names: str) -> None:
    """A configuration error is one ``error:`` line, not a traceback."""
    (line,) = stderr.splitlines()
    assert line.startswith("error: ") and "mode='deploy'" in line
    assert all(name in line for name in names)


class TestScenarioOnADeployment:
    """Scenarios are model-only: asking for one in deploy mode is a
    configuration error on every path, serial or in a worker process."""

    def test_run_reports_a_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "deploy_scenario.json"
        path.write_text(json.dumps({"config": {**FAST, "mode": "deploy"}, "scenario": CRASH}))
        assert main(["run", str(path)]) == 1
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_campaign_reports_a_configuration_error(self, workers, tmp_path, capsys):
        path = tmp_path / "deploy_scenario_spec.json"
        path.write_text(json.dumps({"base": {**FAST, "mode": "deploy"}, "scenario": CRASH,
                                    "grid": {"block_size": [20, 40]}}))
        assert main(["campaign", str(path), "-w", workers]) == 1
        assert_one_error_line(capsys.readouterr().err)


#: Table I's network knobs, each at a value other than its default.
NETWORK_KNOBS = {"extra_delay_mean": 0.005, "extra_delay_stddev": 0.001, "bandwidth_bps": 1e9}


@pytest.mark.parametrize("field", sorted(NETWORK_KNOBS))
class TestModelledNetworkOnADeployment:
    """A deployment's network is loopback: a knob of the modelled network set
    for one is a configuration error naming it, on every path — never a
    loopback run reported as if it had been delayed."""

    def knobbed(self, field):
        return {**FAST, "mode": "deploy", field: NETWORK_KNOBS[field]}

    def test_run_and_deploy_report_a_configuration_error(self, field, tmp_path, capsys):
        path = tmp_path / "deploy_knob.json"
        path.write_text(json.dumps({"config": self.knobbed(field)}))
        assert main(["run", str(path)]) == 1
        assert_one_error_line(capsys.readouterr().err, field)
        assert main(["deploy", str(path), "--signing", "hmac"]) == 1
        assert_one_error_line(capsys.readouterr().err, field)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_campaign_reports_a_configuration_error(self, field, workers, tmp_path, capsys):
        path = tmp_path / "deploy_knob_spec.json"
        path.write_text(json.dumps({"base": self.knobbed(field),
                                    "grid": {"block_size": [20, 40]}}))
        assert main(["campaign", str(path), "-w", workers]) == 1
        assert_one_error_line(capsys.readouterr().err, field)

    def test_api_deploy_raises_and_the_model_takes_the_knob(self, field):
        with pytest.raises(ConfigurationError, match=field):
            api.deploy(self.knobbed(field))
        Configuration.from_dict({**self.knobbed(field), "mode": "model"}).validate()


class TestDeploy:
    def test_deploy_prints_its_stable_lines_and_stores_a_campaign_record(
            self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["deploy", "--nodes", "4", "--signing", "hmac", "--rate", "30",
                     "--runtime", "0.6", "--seed", "7", "-s", store]) == 0
        out = capsys.readouterr().out
        # The three lines CI's deploy-smoke job greps.
        for stable in ("committed transactions: ", "consistent: true", "messages per socket write: "):
            assert any(line.startswith(stable) for line in out.splitlines()), stable
        # And the fourth: both directions of the codec agreed on every frame.
        assert "decode errors: 0" in out.splitlines()
        # An hmac deployment has no Ed25519 signer to name.
        assert not any(line.startswith("signing backend:") for line in out.splitlines())

        (record,) = ResultStore(store).records()
        config = Configuration.from_dict(record["config"])
        assert (config.mode, config.num_nodes, config.signing) == ("deploy", 4, "hmac")
        assert record["run_id"] == run_key(config)
        assert record["campaign"] == "fig8_deploy"
        assert (record["index"], record["repetition"]) == (0, 0)
        assert record["params"] == {"protocol": "hotstuff", "arrival_rate": 30.0, "mode": "deploy"}
        assert figure_for_campaign(record["campaign"]).key == "fig8"
        # Exactly the keys of a record a campaign stores for a model-mode point.
        assert main(["campaign", spec_file, "--json"]) == 0
        assert set(record) == set(json.loads(capsys.readouterr().out)[0])


class TestCampaign:
    def test_campaign_writes_store_and_resumes(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", spec_file, "--workers", "2", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 runs (4 executed, 0 already stored)" in out
        assert len(ResultStore(store)) == 4
        # Resume: zero executed, four served from the store.
        assert main(["campaign", spec_file, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "(0 executed, 4 already stored)" in out
        assert len(ResultStore(store)) == 4

    def test_campaign_json_output(self, spec_file, capsys):
        assert main(["campaign", spec_file, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 4
        assert all(r["metrics"]["throughput_tps"] > 0 for r in records)

    def test_corrupt_store_fails_cleanly(self, tmp_path, capsys):
        # Corruption before the final line is not a crash signature and
        # still refuses the store.
        root = tmp_path / "store"
        root.mkdir()
        (root / "results.jsonl").write_text('corrupt junk\n{"run_id": "ok"}\n')
        assert main(["list", "--store", str(root)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_truncated_store_tail_lists_surviving_records(self, tmp_path, capsys):
        # A killed worker's partial final line: the CLI warns and serves
        # every complete record instead of refusing the store.
        root = tmp_path / "store"
        root.mkdir()
        (root / "results.jsonl").write_text(
            '{"run_id": "ok", "campaign": "c", "params": {},'
            ' "metrics": {"throughput_tps": 1.0}, "consistent": true}\n'
            '{"run_id": "partial", "metr'
        )
        with pytest.warns(TruncatedRecordWarning):
            assert main(["list", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "1 records" in out and "ok" in out

    def test_campaign_bad_spec_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"base": FAST, "grid": {"bogus_field": [1]}}))
        assert main(["campaign", str(path)]) == 1
        assert "not a Configuration field" in capsys.readouterr().err

    def test_campaign_unknown_base_key_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "typo_base.json"
        path.write_text(json.dumps({"base": {**FAST, "num_node": 7},
                                    "grid": {"block_size": [20]}}))
        assert main(["campaign", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "num_node" in line

    def test_campaign_unknown_scenario_event_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad_scenario.json"
        path.write_text(
            json.dumps(
                {
                    "base": FAST,
                    "grid": {"block_size": [20]},
                    "scenario": {"events": [{"kind": "no-such-event", "at": 1.0}]},
                }
            )
        )
        assert main(["campaign", str(path)]) == 1
        assert "unknown scenario event" in capsys.readouterr().err


class TestLoadCurve:
    """A load curve is a ``campaign`` whose spec lists ``points``."""

    @pytest.fixture
    def points_file(self, tmp_path):
        def write(points):
            path = tmp_path / "curve.json"
            path.write_text(json.dumps({"name": "curve", "base": FAST, "points": points}))
            return str(path)
        return write

    def test_closed_loop_levels_json(self, points_file, capsys):
        path = points_file([{"concurrency": 4, "arrival_rate": 0.0},
                            {"concurrency": 8, "arrival_rate": 0.0}])
        assert main(["campaign", path, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["params"]["concurrency"] for r in records] == [4, 8]
        assert {r["campaign"] for r in records} == {"curve"}

    def test_arrival_rates_with_workers_print_the_campaign_table(self, points_file, capsys):
        path = points_file([{"arrival_rate": 500.0}, {"arrival_rate": 1500.0}])
        assert main(["campaign", path, "-w", "2"]) == 0
        out = capsys.readouterr().out
        assert "campaign 'curve': 2 runs (2 executed, 0 already stored)" in out
        assert "arrival_rate=500.0" in out and "arrival_rate=1500.0" in out


class TestList:
    def test_list_extension_points(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kind in ("protocols", "strategies", "clients", "scenario_events"):
            assert kind in out
        assert "hotstuff" in out

    def test_list_one_kind_json(self, capsys):
        assert main(["list", "protocols", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "hotstuff" in data["protocols"]

    def test_list_unknown_kind(self):
        with pytest.raises(SystemExit, match="unknown extension point"):
            main(["list", "widgets"])

    def test_list_missing_store_errors(self, tmp_path, capsys):
        assert main(["list", "--store", str(tmp_path / "typo")]) == 1
        assert "error: no such result store" in capsys.readouterr().err
        assert not (tmp_path / "typo").exists()

    def test_list_store_records(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["campaign", spec_file, "--store", store])
        capsys.readouterr()
        assert main(["list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 records" in out
        assert "cli-smoke" in out


@pytest.mark.parametrize("path", sorted(EXAMPLES.rglob("*.json")),
                         ids=lambda path: str(path.relative_to(EXAMPLES)))
def test_every_example_file_reads_and_validates(path):
    """Each example parses the way ``run`` / ``deploy`` / ``campaign`` read
    it, and every configuration it names validates; nothing is run."""
    data = api.read_json(path)
    if "config" in data:
        config = api.load_config(data)
        if path.name.startswith("deploy_"):  # read by ``deploy``, which sets the mode
            config = config.replace(mode="deploy")
        configs = [config]
        if "scenario" in data:
            api.Scenario.from_dict(data["scenario"])
    else:
        configs = [run.config for run in ExperimentSpec.from_dict(data).expand()]
    assert configs
    for config in configs:
        config.validate()
