"""The registered-names, spec-schema and extension-point passes of ``tools/check_docs.py``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"

SCENARIOS = """\
# Scenarios

## Event kinds

### `crash-replica`

Stops a replica.

### `{kind}`

Brings it back.

## Byzantine strategies

| strategy | behaviour | what it attacks |
|----------|-----------|-----------------|
| `honest` | the unmodified replica | — |
| `{strategy}` | stays mute whenever it leads | liveness |

## Next section

### `not-a-kind`
"""


@pytest.fixture
def check_docs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(module, "SCENARIOS", tmp_path / "SCENARIOS.md")
    monkeypatch.setattr(module, "EXPERIMENTS", tmp_path / "EXPERIMENTS.md")
    return module


def write(module, kind="recover-replica", strategy="silence"):
    module.SCENARIOS.write_text(SCENARIOS.format(kind=kind, strategy=strategy))


class TestRegisteredNames:
    def test_the_repository_docs_pass(self):
        spec = importlib.util.spec_from_file_location("check_docs_repo", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.check_registered_names() == []

    def test_registered_names_pass(self, check_docs):
        # A heading outside "Event kinds" is not read as a kind.
        write(check_docs)
        assert check_docs.check_registered_names() == []

    def test_an_unregistered_kind_is_reported(self, check_docs):
        write(check_docs, kind="recover")
        (problem,) = check_docs.check_registered_names()
        assert "presents scenario event `recover`, which is not a registered name" in problem
        assert "recover-replica" in problem

    def test_an_unregistered_strategy_is_reported(self, check_docs):
        write(check_docs, strategy="silent")
        (problem,) = check_docs.check_registered_names()
        assert "`silent`, which is not a registered name" in problem
        assert "silence" in problem

    def test_a_section_with_no_names_is_reported(self, check_docs):
        check_docs.SCENARIOS.write_text(
            "## Event kinds\n\nnone\n\n## Byzantine strategies\n\nnone\n"
        )
        problems = check_docs.check_registered_names()
        assert len(problems) == 2
        assert all("presents no" in problem for problem in problems)


EXPERIMENTS = """\
# Experiments

## The spec JSON schema

```json
{{
  "name": "fig9",
  "base": {{ "... any Configuration field ..." }},
  "grid": {{ "protocol": ["hotstuff"] }},
{extra_key}  "points": [ {{ "_series": "HS", "block_size": 100 }} ],
  "scenario": {{ "events": [] }},
  "repetitions": 3,
  "bucket": 0.5
}}
```

| field | meaning |
|---|---|
| `name` | label |
| `base` | the base configuration |
| `grid` | Cartesian axes |
{extra_row}| `points` | explicit override dicts |
| `scenario` | fault schedule |
| `repetitions` | repeats |
| `bucket` | timeline bucket |

### Long campaigns

| field | default | meaning |
|---|---|---|
| `checkpoint_interval` | `0` | not a spec field |

## Next section
"""


def schema_problems(module, extra_key="", extra_row="", drop_row=""):
    text = EXPERIMENTS.format(extra_key=extra_key, extra_row=extra_row)
    module.EXPERIMENTS.write_text(text.replace(drop_row, ""))
    return module.check_spec_schema()


class TestSpecSchema:
    def test_the_repository_docs_pass(self):
        spec = importlib.util.spec_from_file_location("check_docs_repo", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.check_spec_schema() == []

    def test_the_spec_fields_pass(self, check_docs):
        # The table of the subsection is not the field table.
        assert schema_problems(check_docs) == []

    def test_a_removed_key_is_reported(self, check_docs):
        problems = schema_problems(
            check_docs,
            extra_key='  "zip": { "view_timeout": [0.08, 0.35] },\n',
            extra_row="| `zip` | parallel axes |\n",
        )
        assert problems == [
            "EXPERIMENTS.md: the spec JSON example lists `zip`, which is not an ExperimentSpec field",
            "EXPERIMENTS.md: the spec field table lists `zip`, which is not an ExperimentSpec field",
        ]

    def test_a_missing_field_is_reported(self, check_docs):
        (problem,) = schema_problems(check_docs, drop_row="| `bucket` | timeline bucket |\n")
        assert problem == (
            "EXPERIMENTS.md: the spec field table does not list the ExperimentSpec field `bucket`"
        )


EXTENDING = """\
# Extending the framework

| extension point     | `available()` key  | decorator                      | base class / contract | selected by |
|---------------------|--------------------|--------------------------------|-----------------------|-------------|
| protocol            | `protocols`        | `api.register_protocol`        | `Safety`              | config      |
| Byzantine strategy  | `strategies`       | `api.register_strategy`        | `Replica` subclass    | config      |
| leader election     | `elections`        | `api.register_election`        | `LeaderElection`      | config      |
| network delay model | `delay_models`     | `api.register_delay_model`     | `DelayModel`          | specs       |
{extra_row}| scenario event      | `scenario_events`  | `api.register_scenario_event`  | `ScenarioEvent`       | scenario    |
| invariant oracle    | `oracles`          | `api.register_oracle`          | callable              | fuzz        |

| not the table | `clients` | `api.register_client` |
"""

#: The row the table had while clients were a registry.
CLIENT_ROW = ("| client type         | `clients`          | `api.register_client`          "
              "| `ClientBase`          | config      |\n")


def extension_problems(module, extra_row="", drop=None):
    lines = EXTENDING.format(extra_row=extra_row).splitlines(keepends=True)
    module.EXTENDING.write_text("".join(line for line in lines if drop is None or drop not in line))
    return module.check_extension_points()


class TestExtensionPoints:
    @pytest.fixture
    def check_docs(self, check_docs, tmp_path, monkeypatch):
        monkeypatch.setattr(check_docs, "EXTENDING", tmp_path / "EXTENDING.md")
        return check_docs

    def test_the_repository_docs_pass(self):
        spec = importlib.util.spec_from_file_location("check_docs_repo", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.check_extension_points() == []

    def test_the_registries_pass(self, check_docs):
        # A table after the first one is not read.
        assert extension_problems(check_docs) == []

    def test_a_row_for_a_deleted_seam_is_reported(self, check_docs):
        (key, decorator) = extension_problems(check_docs, extra_row=CLIENT_ROW)
        assert key.startswith(
            "EXTENDING.md: the extension-point table lists `clients`, which is not a key of "
            "api.available() (keys: protocols, ")
        assert decorator == ("EXTENDING.md: the extension-point table names "
                             "`api.register_client`, which is not an attribute of repro.api")

    def test_a_missing_or_repeated_row_is_reported(self, check_docs):
        assert extension_problems(check_docs, drop="`oracles`") == [
            "EXTENDING.md: the extension-point table has no row for api.available()'s `oracles`",
        ]
        repeated = EXTENDING.splitlines()[4] + "\n"
        assert extension_problems(check_docs, extra_row=repeated) == [
            "EXTENDING.md: the extension-point table lists `protocols` more than once",
        ]
