"""The ``python -m repro`` command line: argparse over :mod:`repro.api`.

Every subcommand is driven by the same JSON files the library consumes::

    python -m repro paper fig9                     # one paper table + its claims
    python -m repro run experiment.json            # one experiment (+scenario)
    python -m repro deploy --nodes 4 --runtime 3   # real asyncio TCP cluster
    python -m repro campaign grid.json -w 4 -s out # a parallel, resumable grid
    python -m repro fuzz --budget 50 --seed 0      # adversarial scenario fuzzing
    python -m repro report --store out             # aggregate: mean ± 95% CI
    python -m repro plot --store out -o figures    # render paper figures (SVG)
    python -m repro trace trace.jsonl              # validate + summarize a trace
    python -m repro trace trace.jsonl -f perfetto  # convert for ui.perfetto.dev
    python -m repro list                           # extension points
    python -m repro list --store out               # stored campaign records

Each subcommand reads files, opens stores, runs, plots and deploys through
:mod:`repro.api` (a missing input file is the facade's ``ConfigurationError``,
a missing store :meth:`ResultStore.existing`'s ``StoreError``) and only adds
the printing; a library error is one ``error:`` line and exit status 1.
``run``, ``deploy``, and ``fuzz`` accept ``--trace`` / ``--trace-out PATH``
to record a protocol event trace of the run (see ``docs/OBSERVABILITY.md``).

``run`` accepts either a flat configuration object or
``{"config": {...}, "scenario": {...}}``; ``campaign`` accepts an
:class:`~repro.experiments.spec.ExperimentSpec` dict (a load curve is one
with a ``points`` list).  ``report``
and ``plot`` consume **stored records only** — they never execute a
simulation.  See ``docs/EXPERIMENTS.md`` for the schemas and the
aggregate-and-plot walkthrough.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro import api
from repro.analysis import FigureDef, FigureError, comparison_table, format_table
from repro.bench.config import ConfigurationError
from repro.crypto.keys import ed25519_signer
from repro.experiments.runner import CampaignResult
from repro.experiments.spec import RunSpec, SpecError
from repro.experiments.store import ResultStore, StoreError
from repro.obs import tracing, write_trace
from repro.plugins import RegistryError


def _metrics_row(metrics: Dict[str, float]) -> Dict[str, Any]:
    return {
        "throughput_tps": metrics["throughput_tps"],
        "mean_latency_ms": metrics["mean_latency"] * 1e3,
        "p99_latency_ms": metrics["p99_latency"] * 1e3,
        "cgr": metrics["chain_growth_rate"],
        "block_interval": metrics["block_interval"],
        "committed_tx": metrics["committed_transactions"],
    }


def _params_label(params: Dict[str, Any]) -> str:
    if not params:
        return "-"
    return " ".join(f"{k.lstrip('_')}={v}" for k, v in params.items())


# ----------------------------------------------------------------------
# tracing flags (shared by run / deploy / fuzz)
# ----------------------------------------------------------------------
def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="record a protocol event trace (JSONL)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="trace output path (implies --trace; "
                             "default trace.jsonl)")


@contextmanager
def _traced(args: argparse.Namespace):
    """Install a process-global tracer around a command body when requested.

    On clean exit the trace is written as deterministic JSONL and a stable
    ``trace: <path> (<N> records)`` line is printed (the CI trace-smoke job
    greps for it).  Yields ``None`` when tracing was not requested.
    """
    out = getattr(args, "trace_out", None)
    if not (getattr(args, "trace", False) or out):
        yield None
        return
    with tracing() as tracer:
        yield tracer
    records = tracer.records()
    path = write_trace(records, out or "trace.jsonl")
    print(f"trace: {path} ({len(records)} records)")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    data = api.read_json(args.config)
    scenario = data.get("scenario")
    if args.scenario:
        scenario = api.read_json(args.scenario)
        scenario = scenario.get("scenario", scenario)
    with _traced(args):
        result = api.run(api.load_config(data), scenario)
    if args.json:
        print(json.dumps(result.metrics.to_dict() | {"consistent": result.consistent}, indent=2))
    else:
        row = _metrics_row(result.metrics.to_dict()) | {"consistent": result.consistent}
        print(format_table([row], row.keys()))
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    """Run one real-transport deployment (see :mod:`repro.transport`)."""
    flags = {"num_nodes": args.nodes, "protocol": args.protocol, "runtime": args.runtime,
             "arrival_rate": args.rate, "signing": args.signing, "seed": args.seed}
    config = api.load_config(args.config or {}).replace(
        mode="deploy", **{field: value for field, value in flags.items() if value is not None}
    ).validate()
    with _traced(args):
        result = api.deploy(config)
    metrics = result.metrics.to_dict()
    if args.json:
        print(json.dumps(metrics | {"consistent": result.consistent}, indent=2))
    else:
        print(
            f"deployed {config.num_nodes} replicas ({config.protocol}, "
            f"{config.resolved_signing()} signing) for "
            f"{config.total_duration:.1f}s wall time"
        )
        row = _metrics_row(metrics)
        print(format_table([row], row.keys()))
    # Stable one-per-line facts for scripts and the CI deploy-smoke grep.
    print(f"committed transactions: {result.metrics.committed_transactions}")
    print(f"consistent: {'true' if result.consistent else 'false'}")
    print(f"messages per socket write: {result.transport.messages_per_write:.2f}")
    print(f"decode errors: {result.transport.decode_errors}")
    if config.resolved_signing() == "ed25519":
        print(f"signing backend: {ed25519_signer().BACKEND}")
    if args.store:
        # A one-point campaign: what fig. 8's deployed curve is made of.
        params = {"protocol": config.protocol, "arrival_rate": config.arrival_rate,
                  "mode": config.mode}
        run = RunSpec(campaign=args.campaign_name, index=0, repetition=0,
                      params=params, config=config)
        store = ResultStore(args.store)
        store.add(run.record(result))
        print(f"results: {store.path}")
    return 0 if result.consistent else 1


def _execution_summary(result: CampaignResult) -> str:
    """``N runs (X executed, ... Y already stored)`` — CI greps for it."""
    parts = [f"{result.executed} executed"]
    if result.deduplicated:
        parts.append(f"{result.deduplicated} duplicate points folded")
    parts.append(f"{result.skipped} already stored")
    return f"{len(result.records)} runs ({', '.join(parts)})"


def _cmd_campaign(args: argparse.Namespace) -> int:
    store = ResultStore(args.store) if args.store else None
    result = api.campaign(args.spec, workers=args.workers, store=store,
                          force=args.force, progress=args.progress or None)
    if args.json:
        print(json.dumps(result.records, indent=2))
        return 0
    rows = [
        {"run": r["index"], "params": _params_label(r["params"]),
         "consistent": r["consistent"], **_metrics_row(r["metrics"])}
        for r in result.records
    ]
    print(f"campaign {result.spec.name!r}: {_execution_summary(result)}")
    if store is not None:
        print(f"results: {store.path}")
    print(format_table(rows, ["run", "params", "throughput_tps", "mean_latency_ms",
                               "cgr", "block_interval", "consistent"]))
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    """Regenerate paper tables and check the paper's claims against them."""
    from repro.experiments import paper

    failed = 0
    try:
        for result in paper.run(args.name, scale=args.scale, reps=args.reps,
                                workers=args.workers, store=args.store, out=args.out):
            print(f"\n{result.table}")
            print(f"{result.entry.name} ({result.scale}): {_execution_summary(result.campaign)}")
            for sentence, held in result.claims:
                print(f"{'ok' if held else 'FAILED'}: {sentence}")
                failed += not held
            print(f"wrote {result.path}")
    except paper.PaperError as exc:
        raise SystemExit(f"error: {exc}")
    if failed:
        print(f"error: {failed} claim(s) FAILED", file=sys.stderr)
    return 1 if failed else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a fuzz campaign (or replay one violation artifact)."""
    if args.replay:
        outcome = api.replay(args.replay)
        print(f"replayed {args.replay} (run {outcome.case.run_id})")
        for violation in outcome.violations:
            print(f"violation [{violation.oracle}]: {violation.detail}")
        print(f"violations: {len(outcome.violations)}")
        # A replayed artifact is *expected* to violate: exit 0 when the bug
        # still fires, 1 when it no longer reproduces (e.g. after a fix).
        return 0 if outcome.violations else 1

    def progress(outcome) -> None:
        status = "ok" if outcome.ok else "VIOLATION"
        case = outcome.case
        print(
            f"case {case.index:>3} {case.config.protocol:<12} "
            f"n={case.config.num_nodes} byz={case.config.byzantine_nodes} "
            f"events={len(case.scenario.events)} "
            f"run={case.run_id} {status}"
        )
        for violation in outcome.violations:
            print(f"  [{violation.oracle}] {violation.detail}")

    with _traced(args):
        report = api.fuzz(
            budget=args.budget,
            seed=args.seed,
            store=args.store,
            artifacts=args.artifacts,
            shrink=not args.no_shrink,
            progress=progress if not args.json else None,
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    coverage = ", ".join(f"{k}:{v}" for k, v in sorted(report.protocols.items()))
    print(f"fuzz seed {report.seed}: {report.budget} cases "
          f"({report.executed} executed, {report.skipped} already stored)")
    print(f"protocols: {coverage}")
    # Stable one-per-line facts for scripts and the CI fuzz-smoke grep.
    print(f"violations: {len(report.violations)}")
    for outcome in report.failures:
        for artifact in (outcome.artifact, outcome.shrunk_artifact):
            if artifact:
                print(f"artifact: {artifact}")
        if outcome.trace_artifact:
            print(f"trace artifact: {outcome.trace_artifact}")
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    metrics = [part.strip() for part in (args.metrics or "").split(",") if part.strip()] or None
    summaries = api.aggregate(args.store, campaign=args.campaign, metrics=metrics)
    if not summaries:
        which = f"campaign {args.campaign!r}" if args.campaign else "records"
        raise SystemExit(f"error: no {which} in {args.store}")
    if args.json:
        print(json.dumps([s.to_dict() for s in summaries], indent=2))
        return 0
    print(comparison_table(summaries, metrics=metrics, fmt=args.format))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    figure = args.figure
    if args.x or args.y:
        if not (args.x and args.y):
            raise SystemExit("error: --x and --y must be given together")
        if args.figure:
            raise SystemExit("error: --figure conflicts with --x/--y "
                             "(a registered figure already fixes its axes)")
        figure = FigureDef(key="custom", title=args.campaign[0] if args.campaign else "campaign",
                           xlabel=args.x, ylabel=args.y, x=args.x, y=args.y)
    for drawn in api.plot(args.store, args.out, campaigns=args.campaign or None, figure=figure):
        print(f"wrote {drawn.path} ({drawn.figure}, {drawn.records} stored records, "
              f"0 simulations executed)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Validate, summarize, or convert a JSONL trace file."""
    from repro.obs.export import TraceFormatError, summarize, to_text, validate_jsonl

    if not Path(args.trace).is_file():
        raise SystemExit(f"error: no such file: {args.trace}")
    try:
        _header, records = validate_jsonl(args.trace)
    except TraceFormatError as exc:
        print(f"error: invalid trace: {exc}", file=sys.stderr)
        return 1

    if args.format == "summary":
        summary = summarize(records)
        # Stable one-per-line facts for scripts and the CI trace-smoke grep.
        print(f"valid trace: {args.trace}")
        print(f"records: {summary['records']}")
        print(f"replicas: {', '.join(summary['replicas']) or '-'}")
        categories = summary["categories"]
        print("categories: " + (", ".join(
            f"{name}:{count}" for name, count in categories.items()) or "-"))
        print(f"span: {summary['t_min']:.6f}s .. {summary['t_max']:.6f}s")
        return 0

    if args.out is None:
        if args.format == "text":
            print(to_text(records))
            return 0
        suffix = {"perfetto": ".perfetto.json", "svg": ".svg", "jsonl": ".jsonl"}[args.format]
        args.out = str(Path(args.trace).with_suffix(suffix))
    path = write_trace(records, args.out, sink=args.format)
    print(f"wrote {path} ({len(records)} records, {args.format})")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if args.store:
        store = ResultStore.existing(args.store)
        records = store.records(campaign=args.kind)
        if args.json:
            print(json.dumps(records, indent=2))
            return 0
        rows = [
            {"run_id": r["run_id"], "campaign": r.get("campaign", "-"),
             "params": _params_label(r.get("params", {})),
             "throughput_tps": r["metrics"]["throughput_tps"],
             "consistent": r.get("consistent")}
            for r in records
        ]
        print(f"{store.path}: {len(records)} records")
        print(format_table(rows, ["run_id", "campaign", "params",
                                   "throughput_tps", "consistent"]))
        return 0
    from repro.experiments.paper import ENTRIES

    # The extension points, then what `python -m repro paper <name>` runs.
    listings = {**api.available(), "paper": {entry.name: entry.title for entry in ENTRIES}}
    if args.kind:
        if args.kind not in listings:
            raise SystemExit(
                f"error: unknown extension point {args.kind!r}; "
                f"available: {', '.join(listings)}"
            )
        listings = {args.kind: listings[args.kind]}
    if args.json:
        print(json.dumps(listings, indent=2))
        return 0
    for kind, names in listings.items():
        if kind == "paper":
            print("paper:")
            print(format_table([{"name": n, "title": t} for n, t in names.items()],
                               ["name", "title"]))
        else:
            print(f"{kind}: {', '.join(names)}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run chained-BFT experiments and campaigns, and analyse their records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    paper_p = sub.add_parser(
        "paper", help="regenerate a table/figure of the paper and check its claims"
    )
    paper_p.add_argument("name", help="entry name or unique prefix (see `list paper`), "
                                      "or `all` for every deterministic entry")
    paper_p.add_argument("--scale", choices=["ci", "full"], default="ci",
                         help="grid size: the committed tables' (default) or the paper's")
    paper_p.add_argument("--reps", type=int, default=1, metavar="N",
                         help="repetitions per point (adds 95%%-CI columns across seeds)")
    paper_p.add_argument("-w", "--workers", type=int, default=1,
                         help="worker processes (default 1 = serial)")
    paper_p.add_argument("-s", "--store", help="result store directory (enables resume)")
    paper_p.add_argument("-o", "--out", default="benchmarks/results",
                         help="output directory for tables (default benchmarks/results/)")
    paper_p.set_defaults(func=_cmd_paper)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config", help="JSON file: a Configuration (optionally "
                                      "{'config': ..., 'scenario': ...})")
    run_p.add_argument("--scenario", help="JSON file with a fault schedule")
    run_p.add_argument("--json", action="store_true", help="print raw JSON metrics")
    _add_trace_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    deploy_p = sub.add_parser(
        "deploy",
        help="run the protocol stack over real asyncio TCP with real signing",
    )
    deploy_p.add_argument("config", nargs="?",
                          help="optional JSON Configuration (flags override it)")
    deploy_p.add_argument("-n", "--nodes", type=int, help="number of replicas")
    deploy_p.add_argument("-p", "--protocol", help="protocol name (default hotstuff)")
    deploy_p.add_argument("--runtime", type=float,
                          help="measured wall-clock seconds (default 5)")
    deploy_p.add_argument("--rate", type=float,
                          help="open-loop arrival rate in Tx/s (default: closed-loop)")
    deploy_p.add_argument("--signing", help="signing scheme (default ed25519 in deploy)")
    deploy_p.add_argument("--seed", type=int, help="deployment seed")
    deploy_p.add_argument("-s", "--store", help="append the record to this result store")
    deploy_p.add_argument("--campaign-name", default="fig8_deploy",
                          help="campaign name for stored records (default fig8_deploy)")
    deploy_p.add_argument("--json", action="store_true", help="print raw JSON metrics")
    _add_trace_flags(deploy_p)
    deploy_p.set_defaults(func=_cmd_deploy)

    camp_p = sub.add_parser("campaign", help="run a declarative experiment grid")
    camp_p.add_argument("spec", help="JSON file with an ExperimentSpec")
    camp_p.add_argument("-w", "--workers", type=int, default=1,
                        help="worker processes (default 1 = serial)")
    camp_p.add_argument("-s", "--store", help="result store directory (enables resume)")
    camp_p.add_argument("--force", action="store_true",
                        help="re-run points already present in the store")
    camp_p.add_argument("--progress", action="store_true",
                        help="print live done/total, rate, ETA, and straggler "
                             "lines to stderr as runs complete")
    camp_p.add_argument("--json", action="store_true", help="print raw JSON records")
    camp_p.set_defaults(func=_cmd_campaign)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="run randomized adversarial scenarios against the safety oracles",
    )
    fuzz_p.add_argument("-b", "--budget", type=int, default=50,
                        help="number of generated cases to run (default 50)")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed; same seed => same cases (default 0)")
    fuzz_p.add_argument("-s", "--store",
                        help="result store directory (passing cases are "
                             "recorded and skipped on re-runs)")
    fuzz_p.add_argument("--artifacts",
                        help="directory for replayable violation dumps "
                             "(default: <store>/artifacts)")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing violating cases")
    fuzz_p.add_argument("--replay", metavar="FILE",
                        help="re-execute a violation artifact instead of fuzzing")
    fuzz_p.add_argument("--json", action="store_true", help="print a JSON report")
    _add_trace_flags(fuzz_p)
    fuzz_p.set_defaults(func=_cmd_fuzz)

    report_p = sub.add_parser(
        "report", help="aggregate stored records into a comparison table"
    )
    report_p.add_argument("campaign", nargs="?", help="restrict to one campaign")
    report_p.add_argument("-s", "--store", required=True, help="result store directory")
    report_p.add_argument("-f", "--format", choices=["text", "markdown", "csv"],
                          default="text", help="table format (default text)")
    report_p.add_argument("-m", "--metrics",
                          help="comma-separated metric names (default: headline set)")
    report_p.add_argument("--json", action="store_true",
                          help="print raw JSON group summaries")
    report_p.set_defaults(func=_cmd_report)

    plot_p = sub.add_parser(
        "plot", help="render stored campaigns as SVG figures (no simulations)"
    )
    plot_p.add_argument("campaign", nargs="*",
                        help="campaigns to render (default: every stored campaign)")
    plot_p.add_argument("-s", "--store", required=True, help="result store directory")
    plot_p.add_argument("-o", "--out", default="figures",
                        help="output directory for SVG files (default figures/)")
    plot_p.add_argument("--figure", help="force a registered figure key (e.g. fig9)")
    plot_p.add_argument("--x", help="params key for the x axis (custom figures)")
    plot_p.add_argument("--y", help="metric name for the y axis (custom figures)")
    plot_p.set_defaults(func=_cmd_plot)

    trace_p = sub.add_parser(
        "trace", help="validate, summarize, or convert a JSONL event trace"
    )
    trace_p.add_argument("trace", help="JSONL trace file (from --trace-out)")
    trace_p.add_argument("-f", "--format",
                         choices=["summary", "perfetto", "text", "svg", "jsonl"],
                         default="summary",
                         help="output: summary (default, validates and prints "
                              "counts), perfetto (trace-event JSON), "
                              "text (timeline), svg (view-timeline lane chart), "
                              "jsonl (re-serialize)")
    trace_p.add_argument("-o", "--out",
                         help="output path (default: derived from the input; "
                              "text prints to stdout)")
    trace_p.set_defaults(func=_cmd_trace)

    list_p = sub.add_parser("list", help="list extension points or stored results")
    list_p.add_argument("kind", nargs="?",
                        help="extension point (or campaign name with --store)")
    list_p.add_argument("-s", "--store", help="list this result store's records instead")
    list_p.add_argument("--json", action="store_true", help="print raw JSON")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, SpecError, StoreError, RegistryError, FigureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
