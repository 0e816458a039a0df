"""The registered-names pass of ``tools/check_docs.py``."""

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
