"""The public facade: one module for running, sweeping, and extending.

Everything a user script needs lives here::

    from repro import api

    # run one experiment (config may be a Configuration or a plain dict)
    result = api.run({"protocol": "hotstuff", "num_nodes": 4, "runtime": 2.0})

    # run a fault schedule declaratively
    result = api.run(config, scenario={"events": [
        {"kind": "crash-replica", "at": 3.0, "replica": "last"},
        {"kind": "recover-replica", "at": 6.0, "replica": "last"},
    ]})

    # sweep client load to a latency/throughput curve: a one-axis campaign
    curve = api.campaign(api.grid(config, concurrency=[8, 32, 128]))

    # the same protocol stack over real asyncio TCP with Ed25519 signing
    # (the "implementation" axis of fig. 8; same result schema as api.run)
    result = api.deploy({"protocol": "hotstuff", "num_nodes": 4, "runtime": 2.0})

    # declare a whole experiment grid and run it as a campaign — in
    # parallel worker processes, resumable through a result store
    spec = api.grid(config, protocol=["hotstuff", "2chainhs"],
                    block_size=[100, 400])
    result = api.campaign(spec, workers=4, store="results/")

    # collapse repetitions into one row per point (each metric's mean and
    # its 95% CI) and render paper figures, purely from stored records
    rows = api.aggregate("results/")
    figures = api.plot("results/", out="figures/")   # one RenderedFigure each

    # regenerate a table or figure of the paper and check its claims
    (fig9,) = api.paper("fig9_block_sizes")
    assert fig9.ok, fig9.claims

    # fuzz: randomized fault/Byzantine scenarios audited by safety oracles
    report = api.fuzz(budget=50, seed=0, store="results/")
    assert report.ok, report.violations

    # trace one run: per-replica protocol event records (its latency
    # quantiles are traced.result.metrics, as for any run)
    traced = api.trace(config, scenario={"events": [
        {"kind": "crash-replica", "at": 0.4, "replica": "last"}]})
    traced.save("run.trace.jsonl")                # deterministic JSONL
    traced.save("run.perfetto.json", "perfetto")  # open in ui.perfetto.dev

    # extend the framework: every extension point is a register_* decorator
    @api.register_protocol("myproto")
    class MyProtocolSafety(Safety): ...

``run``/``build``/``grid`` accept either a :class:`Configuration` or a
JSON-style dict (a key that names no field is a :class:`ConfigurationError`);
scenarios likewise accept a :class:`Scenario` or its dict form.

:func:`available` lists every registered implementation per extension point,
derived from the registries themselves, and one ``register_*`` helper is
re-exported per registry:

=====================  ===========================  =======================
``available()`` key    helper                       extended contract
=====================  ===========================  =======================
``protocols``          ``register_protocol``        ``Safety`` subclass
``strategies``         ``register_strategy``        ``Replica`` subclass
``elections``          ``register_election``        ``LeaderElection``
``delay_models``       ``register_delay_model``     ``DelayModel``
``scenario_events``    ``register_scenario_event``  ``ScenarioEvent``
``message_handlers``   ``register_message_handler`` handler callable
``oracles``            ``register_oracle``          invariant callable
=====================  ===========================  =======================

``docs/EXTENDING.md`` walks through every row with runnable examples —
including the message-handler registry that the block-fetch subsystem
(:mod:`repro.sync`) uses to plug its ``BlockRequest`` / ``BlockResponse``
handlers into the replica.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis import RenderedFigure, point_rows, render_store
from repro.bench.config import Configuration, ConfigurationError
from repro.bench.runner import Cluster, ExperimentResult, build_cluster, run_experiment
from repro.experiments import (
    CampaignResult,
    CampaignRunner,
    ExperimentSpec,
    ResultStore,
)
from repro.core.byzantine import STRATEGIES, register_strategy
from repro.core.dispatch import MESSAGE_HANDLERS, register_message_handler
from repro.election.election import ELECTIONS, register_election
from repro.network.delays import DELAY_MODELS, register_delay_model
from repro.fuzz import (
    ORACLES,
    FuzzReport,
    register_oracle,
    replay,
)
from repro.fuzz import audit as _fuzz_audit
from repro.fuzz import run_fuzz as fuzz
from repro.obs import TracedRun, Tracer, tracing
from repro.protocols.registry import PROTOCOLS, register_protocol
from repro.scenario import SCENARIO_EVENTS, Scenario, register_scenario_event

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "Cluster",
    "Configuration",
    "ConfigurationError",
    "ExperimentResult",
    "ExperimentSpec",
    "FuzzReport",
    "RenderedFigure",
    "ResultStore",
    "Scenario",
    "TracedRun",
    "Tracer",
    "aggregate",
    "audit",
    "available",
    "build",
    "campaign",
    "deploy",
    "fuzz",
    "grid",
    "load_config",
    "paper",
    "plot",
    "read_json",
    "register_delay_model",
    "register_election",
    "register_message_handler",
    "register_oracle",
    "register_protocol",
    "register_scenario_event",
    "register_strategy",
    "replay",
    "run",
    "trace",
    "tracing",
]

ConfigLike = Union[Configuration, Dict]
ScenarioLike = Union[Scenario, Dict, None]


def _coerce_config(config: ConfigLike) -> Configuration:
    if isinstance(config, Configuration):
        return config
    if isinstance(config, dict):
        return Configuration.from_dict(config)
    raise TypeError(f"expected Configuration or dict, got {type(config).__name__}")


def _coerce_scenario(scenario: ScenarioLike) -> Optional[Scenario]:
    if scenario is None or isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, dict):
        return Scenario.from_dict(scenario)
    raise TypeError(f"expected Scenario, dict, or None, got {type(scenario).__name__}")


def read_json(path: Union[str, Path]) -> Dict:
    """The object a JSON input file holds (a configuration, run or spec file).

    A missing or malformed file, or one that holds no JSON object, is a
    :class:`ConfigurationError` naming it.
    """
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} holds a JSON {type(data).__name__}, not an object")
    return data


def load_config(source: Union[str, Path, Dict]) -> Configuration:
    """Build a :class:`Configuration` from a dict or a JSON file path.

    Either may hold the fields themselves or wrap them as ``{"config": ...}``.
    """
    data = source if isinstance(source, dict) else read_json(source)
    return Configuration.from_dict(data.get("config", data))


def build(config: ConfigLike, scenario: ScenarioLike = None) -> Cluster:
    """Build (but do not run) a fully wired cluster.

    With a ``scenario``, its events are already scheduled on the returned
    cluster; call ``cluster.start()`` and ``cluster.run()`` yourself to
    drive it manually.
    """
    return build_cluster(_coerce_config(config), _coerce_scenario(scenario))


def run(
    config: ConfigLike,
    scenario: ScenarioLike = None,
    bucket: float = 0.5,
) -> ExperimentResult:
    """Run one experiment, optionally under a declarative fault schedule.

    Without a scenario this is the classic measured run; with one, the
    result carries it and its ``timeline`` (bucketed at ``bucket`` seconds)
    shows throughput around each injected event.
    """
    return run_experiment(_coerce_config(config), _coerce_scenario(scenario), bucket)


def deploy(config: ConfigLike, host: str = "127.0.0.1") -> ExperimentResult:
    """Run one experiment in deployment mode: real TCP, real signing.

    The identical protocol stack (safety rules, pacemaker, quorum logic,
    mempool, clients) runs over asyncio loopback sockets with length-prefixed
    JSON frames and Ed25519 vote signatures instead of the simulated network
    and cost model.  Returns the same :class:`ExperimentResult` record shape
    as :func:`run`, so stored model and deploy runs plot onto one figure
    (the fig. 8 "simulated vs. implementation" comparison).

    Equivalent to ``api.run({**config, "mode": "deploy"})``; the transport
    runtime is imported lazily so model-only users never touch asyncio.
    """
    from repro.transport.runtime import run_deployment

    coerced = _coerce_config(config)
    if coerced.mode != "deploy":
        coerced = coerced.replace(mode="deploy")
    return run_deployment(coerced, host=host)


SpecLike = Union[ExperimentSpec, Dict, str, Path]


def grid(
    base: ConfigLike,
    name: str = "grid",
    scenario: ScenarioLike = None,
    repetitions: int = 1,
    **axes: Sequence,
) -> ExperimentSpec:
    """Declare a Cartesian experiment grid over configuration fields.

    Every keyword argument is one grid axis (a list of values for that
    :class:`Configuration` field); the expansion is their cross product over
    ``base``.  For explicit point lists (fields that vary together) or tags,
    build an :class:`ExperimentSpec` directly. ::

        spec = api.grid(base, protocol=["hotstuff", "2chainhs"],
                        block_size=[100, 400], repetitions=3)
    """
    for field, values in axes.items():
        # A bare string would iterate per character into a nonsense grid.
        if isinstance(values, str) or not isinstance(values, (list, tuple, range)):
            raise TypeError(
                f"grid axis {field!r} must be a list of values, got {values!r}"
            )
    return ExperimentSpec(
        name=name,
        base=_coerce_config(base),
        grid={field: list(values) for field, values in axes.items()},
        scenario=_coerce_scenario(scenario),
        repetitions=repetitions,
    )


def campaign(
    spec: SpecLike,
    workers: int = 1,
    store: Optional[Union[ResultStore, str, Path]] = None,
    force: bool = False,
    progress=None,
) -> CampaignResult:
    """Run an experiment campaign: expand, execute, persist, resume.

    ``spec`` may be an :class:`ExperimentSpec`, its dict form, or a path to
    a JSON file holding that dict.
    ``workers > 1`` fans the pending runs out over that many processes
    (records are bit-identical to a serial run, persisted as each
    completes); ``store`` names a result-store directory — runs whose
    content hash is already stored are served from it without executing
    (pass ``force=True`` to re-run).
    ``progress=True`` prints a live done/total + rate + ETA + straggler line
    to stderr as each run completes (or pass a
    :class:`repro.experiments.CampaignProgress` to customise it).
    """
    if isinstance(spec, (str, Path)):
        spec = read_json(spec)
    if isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    elif not isinstance(spec, ExperimentSpec):
        raise TypeError(
            f"expected ExperimentSpec, dict, or path, got {type(spec).__name__}"
        )
    return CampaignRunner(
        spec, workers=workers, store=store, force=force, progress=progress
    ).run()


RecordsLike = Union[CampaignResult, ResultStore, Sequence[Dict], str, Path]


def _coerce_records(source: RecordsLike, campaign: Optional[str] = None) -> List[Dict]:
    if isinstance(source, CampaignResult):
        records = source.records
    elif isinstance(source, ResultStore):
        records = source.records(campaign=campaign)
        campaign = None
    elif isinstance(source, (str, Path)):
        records = ResultStore.existing(source).records(campaign=campaign)
        campaign = None
    else:
        records = list(source)
    if campaign is not None:
        records = [r for r in records if r.get("campaign") == campaign]
    return list(records)


def aggregate(
    source: RecordsLike,
    campaign: Optional[str] = None,
    metrics: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Collapse stored repetitions into one row per logical point.

    ``source`` may be a :class:`CampaignResult`, a :class:`ResultStore` (or
    the path of an existing one: a missing store is a ``StoreError``), or a
    plain list of record dicts; nothing is ever re-executed.  The points are
    the campaign's (params sans the ``_repetition`` tag), in expansion
    order, and each row is the one the paper tables aggregate
    (:func:`repro.analysis.report.record_row`): ``campaign``, the params as
    columns and as the ``params`` label, the mean of every numeric metric and
    headline column with its ``<column>_ci95`` (95% Student-t half-width),
    ``consistent`` ANDed over the repetitions, and ``reps``.  ``metrics``
    restricts which columns are averaged. ::

        result = api.campaign(api.grid(base, protocol=["hotstuff", "2chainhs"],
                                       repetitions=5), store="results/")
        for row in api.aggregate(result):
            print(row["params"], f"{row['throughput_tps']:.0f} "
                  f"±{row['throughput_tps_ci95']:.0f} Tx/s")
    """
    return point_rows(_coerce_records(source, campaign), metrics=metrics)


def plot(
    source: Union[ResultStore, str, Path],
    out: Union[str, Path] = "figures",
    campaigns: Optional[Sequence[str]] = None,
    figure=None,
) -> List[RenderedFigure]:
    """Render stored campaigns as standalone SVG figures (with error bars).

    One SVG per campaign is written under ``out``; campaigns whose name
    starts with a known figure key (``fig8``-``fig15``, ``table2``,
    ``ablation``) get that paper figure's axes, others a generic chart (or
    pass ``figure`` to force one).  Returns what was written: each
    :class:`RenderedFigure` names its path, campaign and figure.  Purely
    record-driven: the plot step executes zero simulations, and a missing
    store is a ``StoreError`` before anything is written.
    """
    store = source if isinstance(source, ResultStore) else ResultStore.existing(source)
    return render_store(store, out, campaigns=campaigns, figure=figure)


def paper(
    name: str = "all",
    scale: str = "ci",
    reps: int = 1,
    workers: int = 1,
    store: Optional[Union[ResultStore, str, Path]] = None,
    out: Optional[Union[str, Path]] = None,
) -> list:
    """Regenerate tables/figures of the paper's evaluation and check its claims.

    ``name`` is an entry of :data:`repro.experiments.paper.ENTRIES` (or a
    unique prefix of one, or ``"all"`` for every deterministic entry);
    returns one :class:`~repro.experiments.paper.PaperResult` per entry run,
    carrying the rows, the rendered table and a verdict per claim.  ``scale``
    is ``"ci"`` (the committed tables) or ``"full"`` (the paper's grids);
    ``reps > 1`` adds 95%-CI columns; ``out`` names a directory to write the
    tables under (nothing is written by default).  Equivalent to ``python -m
    repro paper``; the table module is imported lazily, because it imports
    this facade and ``import repro.api`` should not pay for the tables.
    """
    from repro.experiments import paper as table

    return list(table.run(name, scale=scale, reps=reps, workers=workers, store=store, out=out))


def trace(
    config: ConfigLike,
    scenario: ScenarioLike = None,
    categories=None,
    capacity: Optional[int] = None,
    out: Optional[Union[str, Path]] = None,
    bucket: float = 0.5,
) -> TracedRun:
    """Run one experiment with protocol-event tracing enabled.

    Installs a fresh :class:`repro.obs.Tracer` for the duration of the run
    (restoring any previously installed tracer afterwards) and returns a
    :class:`repro.obs.TracedRun` bundling the ordinary result with the
    trace.  ``categories`` filters what is recorded (names, a bitmask, or
    ``None`` for everything); ``capacity`` bounds the per-replica ring
    buffers; ``out`` additionally writes the deterministic JSONL dump. ::

        traced = api.trace({"num_nodes": 4, "runtime": 1.0, "seed": 7})
        print(len(traced.records()))
        traced.save("run.perfetto.json", "perfetto")

    The tracer keeps records and nothing else: latency and throughput
    figures are ``traced.result.metrics`` (``mean_latency``,
    ``median_latency``, ``p99_latency``, ...), exact and the same with
    tracing on or off — as is any stored record.
    """
    kwargs = {"categories": categories}
    if capacity is not None:
        kwargs["capacity"] = capacity
    with tracing(**kwargs) as tracer:
        result = run(config, scenario=scenario, bucket=bucket)
    traced = TracedRun(result=result, tracer=tracer)
    if out is not None:
        traced.save(out)
    return traced


def audit(
    config: ConfigLike,
    scenario: ScenarioLike = None,
    oracles: Optional[List[str]] = None,
):
    """Run one hand-built configuration through the full oracle audit.

    Accepts the same ``Configuration``-or-dict (and ``Scenario``-or-dict)
    inputs as :func:`run`; returns the :class:`repro.fuzz.CaseOutcome`
    whose ``violations`` list is empty when every invariant held.  The
    conformance-matrix tests use this to ask "does protocol P survive
    attack A?" without generating fuzz cases.
    """
    return _fuzz_audit(_coerce_config(config), _coerce_scenario(scenario), oracles)


def available(kind: Optional[str] = None) -> Union[Dict[str, List[str]], List[str]]:
    """List registered implementations, per extension point.

    With no argument, returns a dict mapping each extension point to its
    registered names; with one ("protocols", "strategies", "elections",
    "delay_models", "scenario_events", "message_handlers", "oracles"),
    returns that list.
    """
    listings = {
        "protocols": PROTOCOLS.available(),
        "strategies": STRATEGIES.available(),
        "elections": ELECTIONS.available(),
        "delay_models": DELAY_MODELS.available(),
        "scenario_events": SCENARIO_EVENTS.available(),
        "message_handlers": MESSAGE_HANDLERS.available(),
        "oracles": ORACLES.available(),
    }
    if kind is None:
        return listings
    if kind not in listings:
        raise ValueError(
            f"unknown extension point {kind!r}; available: {', '.join(listings)}"
        )
    return listings[kind]
