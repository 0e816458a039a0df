#!/usr/bin/env python
"""Docs check: links resolve, tagged examples run, the event catalogue is
current, no quoted path or command has been deleted, every scenario
kind and Byzantine strategy the docs present is a registered name, the
spec schema names exactly the spec's fields, and the extension-point table
names exactly the registries.

Seven passes over ``README.md`` and ``docs/*.md`` (stdlib only, no deps):

1. **Links** — every relative markdown link (``[text](path)`` or
   ``[text](path#anchor)``) must point at an existing file or directory in
   the repository.  External links (``http(s)://``, ``mailto:``) and
   pure-anchor links (``#section``) are skipped.
2. **Smoke tests** — every fenced ``python`` code block whose first line is
   ``# docs-smoke-test`` is executed (with ``src`` on ``sys.path``).  This
   keeps runnable examples in the docs — like the crash → recover →
   catch-up scenario in ``docs/SCENARIOS.md`` — from rotting.
3. **Event catalogue** — every ``(category constant, kind literal)`` passed
   to an ``emit(`` call under ``src/repro/`` (AST walk) must have a row in
   the catalogue table of ``docs/OBSERVABILITY.md``, and every row must be
   announced by some call.  A kind that is not a literal (scenario events
   pass their own) is listed as ``*``.  The call sites are printed, so "one
   ``emit(`` per event" can be read off the output.

4. **Mentions** — what prose and code blocks quote without link syntax:
   every path ending in ``.py .json .md .txt .yml`` whose first directory
   exists in the repository (``benchmarks/results/*.txt``, ``bench/config.py``
   — globs allowed; resolved against the repo root, ``src/``, ``src/repro/``
   and the document's directory) and every bare ``name.py`` must match a
   file; every ``python -m repro <sub>`` must be a subcommand of the CLI's
   ``build_parser()``; every ``python -m repro paper <name>`` must select an
   entry of the paper table; every message class name (``…Request``,
   ``…Response``, ``…Message``) must be a kind of the wire codec's
   ``WIRE_KINDS``, so a deleted message type cannot linger in prose or in a
   code block.  Paths under directories the repository does
   not have (``results/``, ``figures/``) and bare non-python names
   (``experiment.json``) are the reader's own files and are skipped, as is
   anything with a ``<placeholder>`` in it.
5. **Registered names** — every name ``docs/SCENARIOS.md`` presents as a
   scenario event kind (a backticked name in a ``### `kind``` heading of its
   "Event kinds" section) or as a Byzantine strategy (a backticked name in
   the first column of its strategy table) must be registered under exactly
   that name, so the docs cannot advertise a spelling that
   ``Configuration.validate()`` or ``ScenarioEvent.from_dict`` refuses.
6. **Spec schema** — the top-level keys of the JSON example and the first
   column of the field table under "The spec JSON schema" in
   ``docs/EXPERIMENTS.md`` must both be exactly ``ExperimentSpec``'s field
   names, which are the only keys ``ExperimentSpec.from_dict`` accepts.
7. **Extension points** — the ``available()`` key column of the table at
   the top of ``docs/EXTENDING.md`` must list ``api.available()``'s keys
   one to one, and each row's ``api.register_*`` decorator must be an
   attribute of ``repro.api``, so a row for a deleted seam cannot stay.

Exit status is non-zero on any broken link, failing example, catalogue
mismatch, stale mention, unregistered name, schema mismatch or stale
extension point, which is how CI consumes it:
``python tools/check_docs.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE_TAG = "# docs-smoke-test"

#: Markdown inline links: [text](target).  Images ![alt](target) match too
#: (the leading ! simply precedes the captured group).
LINK_RE = re.compile(r"\[[^\]\[]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
CATALOGUE = REPO_ROOT / "docs" / "OBSERVABILITY.md"
#: A catalogue row: | `category` | `kind` | ...
CATALOGUE_ROW_RE = re.compile(r"^\| `([a-z]+)` \| `([^`]+)` \|", re.MULTILINE)
SCENARIOS = REPO_ROOT / "docs" / "SCENARIOS.md"
EXPERIMENTS = REPO_ROOT / "docs" / "EXPERIMENTS.md"
EXTENDING = REPO_ROOT / "docs" / "EXTENDING.md"
#: A top-level key of the spec JSON example (indented by two spaces).
SPEC_KEY_RE = re.compile(r'^  "(\w+)":', re.MULTILINE)
#: A backticked name.
NAME_RE = re.compile(r"`([^`]+)`")


def doc_files():
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def strip_code_blocks(text: str) -> str:
    """Remove fenced code blocks so code snippets cannot produce links."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def check_links(path: Path) -> list:
    problems = []
    for target in LINK_RE.findall(strip_code_blocks(path.read_text())):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
    return problems


#: A file path quoted anywhere in a document (not preceded by a URL or
#: a longer path, not followed by more name: ``.jsonl`` is not ``.json``).
MENTION_RE = re.compile(r"(?<![\w/.<>-])((?:[\w.*-]+/)*[\w.*-]+\.(?:py|json|md|txt|yml))(?![\w<>-])")
COMMAND_RE = re.compile(r"python -m repro[ \t]+([a-z][\w-]*)(?:[ \t]+([\w<>*-]+))?")
#: A message class named anywhere in a document.
MESSAGE_RE = re.compile(r"\b[A-Z]\w*(?:Request|Response|Message)\b")


def check_mentions(path: Path) -> list:
    from repro.experiments import paper
    from repro.experiments.cli import build_parser
    from repro.transport.codec import WIRE_KINDS

    subcommands = next(
        action.choices for action in build_parser()._actions if hasattr(action, "choices") and action.choices
    )
    roots = [REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro", path.parent]
    name = path.relative_to(REPO_ROOT)
    text = path.read_text()
    problems = []
    for mention in sorted(set(MENTION_RE.findall(text))):
        if "/" in mention:
            if not any((root / mention.split("/", 1)[0]).is_dir() for root in roots):
                continue
            found = any(any(root.glob(mention)) for root in roots)
        elif mention.endswith(".py"):
            found = any(REPO_ROOT.rglob(mention))
        else:
            continue
        if not found:
            problems.append(f"{name}: mentions {mention}, which does not exist")
    for sub, argument in sorted(set(COMMAND_RE.findall(text))):
        if sub not in subcommands:
            problems.append(f"{name}: quotes `python -m repro {sub}`, which is not a subcommand")
        elif sub == "paper" and argument and "<" not in argument:
            try:
                paper.select(argument)
            except paper.PaperError as exc:
                problems.append(f"{name}: quotes `python -m repro paper {argument}`: {exc}")
    kinds = {kind.__name__ for kind in WIRE_KINDS}
    for message in sorted(set(MESSAGE_RE.findall(text)) - kinds):
        problems.append(f"{name}: names {message}, which is not a wire kind")
    return problems


def run_smoke_blocks(path: Path) -> list:
    problems = []
    for index, block in enumerate(FENCE_RE.findall(path.read_text())):
        code = block.strip("\n")
        if not code.startswith(SMOKE_TAG):
            continue
        label = f"{path.relative_to(REPO_ROOT)} python block #{index}"
        print(f"running {label} ...")
        try:
            # dont_inherit: a reader's module does not start with this file's
            # ``from __future__ import annotations`` either.
            exec(compile(code, str(path), "exec", dont_inherit=True),
                 {"__name__": "__docs_smoke__"})
        except Exception as exc:  # noqa: BLE001 - report and keep checking
            problems.append(f"{label}: example failed: {exc!r}")
    return problems


def announced_events() -> dict:
    """``(category, kind) -> [call sites]`` for every ``emit(`` under ``src/repro/``."""
    from repro.obs.trace import CATEGORY_BITS

    constants = {name.upper(): name for name in CATEGORY_BITS}
    sites: dict = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit" and len(node.args) >= 4):
                continue
            category, kind = node.args[2], node.args[3]
            # obs_trace.COMMIT or a bare COMMIT; anything else is not an event.
            name = category.attr if isinstance(category, ast.Attribute) else getattr(category, "id", "")
            if name not in constants:
                continue
            literal = kind.value if isinstance(kind, ast.Constant) else "*"
            sites.setdefault((constants[name], literal), []).append(
                f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
            )
    return sites


def check_catalogue() -> list:
    announced = announced_events()
    listed = set(CATALOGUE_ROW_RE.findall(CATALOGUE.read_text()))
    for event in sorted(announced):
        print(f"event {event[0]}/{event[1]}: {', '.join(announced[event])}")
    name = CATALOGUE.relative_to(REPO_ROOT)
    problems = [
        f"{name}: {category}/{kind} ({', '.join(announced[category, kind])}) has no catalogue row"
        for category, kind in sorted(set(announced) - listed)
    ]
    problems += [
        f"{name}: catalogue lists {category}/{kind}, which nothing under src/repro announces"
        for category, kind in sorted(listed - set(announced))
    ]
    return problems


def section(text: str, heading: str) -> list:
    """The lines of the ``## heading`` section of a document."""
    lines = text.split("## " + heading + "\n", 1)[1].splitlines()
    end = next((i for i, line in enumerate(lines) if line.startswith("## ")), len(lines))
    return lines[:end]


def check_registered_names() -> list:
    from repro.core.byzantine import STRATEGIES
    from repro.scenario.events import SCENARIO_EVENTS

    text = SCENARIOS.read_text()
    kinds = [name for line in section(text, "Event kinds") if line.startswith("### ")
             for name in NAME_RE.findall(line)]
    rows = [line.split("|")[1] for line in section(text, "Byzantine strategies")
            if line.startswith("|") and not line.startswith(("| strategy ", "|--"))]
    strategies = [name for cell in rows for name in NAME_RE.findall(cell)]
    doc = SCENARIOS.relative_to(REPO_ROOT)
    problems = [
        f"{doc}: presents no {registry.kind} (the section's layout changed?)"
        for registry, names in ((SCENARIO_EVENTS, kinds), (STRATEGIES, strategies))
        if not names
    ]
    for registry, names in ((SCENARIO_EVENTS, kinds), (STRATEGIES, strategies)):
        problems += [
            f"{doc}: presents {registry.kind} `{name}`, which is not a registered name "
            f"(registered: {', '.join(registry.available())})"
            for name in names if name not in registry
        ]
    return problems


def check_spec_schema() -> list:
    from repro.experiments.spec import ExperimentSpec

    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    lines = section(EXPERIMENTS.read_text(), "The spec JSON schema")
    example = re.search(r"^```json$(.*?)^```$", "\n".join(lines), re.MULTILINE | re.DOTALL)
    table = itertools.takewhile(lambda line: line.startswith("|"),
                                itertools.dropwhile(lambda line: not line.startswith("|"), lines))
    rows = [line.split("|")[1] for line in list(table)[2:]]
    doc = EXPERIMENTS.relative_to(REPO_ROOT)
    problems = []
    for where, names in (("JSON example", SPEC_KEY_RE.findall(example.group(1) if example else "")),
                         ("field table", [n for cell in rows for n in NAME_RE.findall(cell)])):
        problems += [f"{doc}: the spec {where} lists `{name}`, which is not an ExperimentSpec field"
                     for name in names if name not in fields]
        problems += [f"{doc}: the spec {where} does not list the ExperimentSpec field `{name}`"
                     for name in sorted(fields - set(names))]
    return problems


def check_extension_points() -> list:
    from repro import api

    lines = EXTENDING.read_text().splitlines()
    # The rows below the header and its rule; no table reads as no rows.
    start = next((i + 2 for i, line in enumerate(lines) if line.startswith("| extension point")),
                 len(lines))
    rows = [line.split("|")[1:-1] for line in
            itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
    doc = EXTENDING.relative_to(REPO_ROOT)
    keys = [name for row in rows for name in NAME_RE.findall(row[1])]
    available = api.available()
    problems = [f"{doc}: the extension-point table lists `{key}`, which is not a key of "
                f"api.available() (keys: {', '.join(available)})"
                for key in keys if key not in available]
    problems += [f"{doc}: the extension-point table lists `{key}` more than once"
                 for key in sorted({key for key in keys if keys.count(key) > 1})]
    problems += [f"{doc}: the extension-point table has no row for api.available()'s `{key}`"
                 for key in available if key not in keys]
    for row in rows:
        for decorator in NAME_RE.findall(row[2]):
            module, _, name = decorator.partition(".")
            if module != "api" or not hasattr(api, name):
                problems.append(f"{doc}: the extension-point table names `{decorator}`, "
                                f"which is not an attribute of repro.api")
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = []
    for path in doc_files():
        problems.extend(check_links(path))
    for path in doc_files():
        problems.extend(run_smoke_blocks(path))
    problems.extend(check_catalogue())
    for path in doc_files():
        problems.extend(check_mentions(path))
    problems.extend(check_registered_names())
    problems.extend(check_spec_schema())
    problems.extend(check_extension_points())
    if problems:
        print("\ndocs check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"docs check OK ({len(doc_files())} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
