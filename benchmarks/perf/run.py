#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics, a per-layer trace.

    python3 benchmarks/perf/run.py                       # every workload
    python3 benchmarks/perf/run.py --workload sim_faulty --seed 7
    python3 benchmarks/perf/run.py --workload deploy_hmac --trace
    python3 benchmarks/perf/run.py --aa 10               # A/A noise table

One run of a workload is K_REPS repetitions, each in a fresh child process,
one at a time.  Every metric is printed by name with its unit, the outputs are
checked (see ``gate``), and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics, or
with ``--trace`` the per-layer metrics.  README.md defines every name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from perf_child import OUT, SRC, WORKLOADS, prepare, repetition  # noqa: E402
from perf_layers import LAYERS  # noqa: E402
from perf_microops import NAMES as MICRO_NAMES, run_all  # noqa: E402

#: Repetitions per run.  The issue asked for five; the driver's total cap works
#: out at ~37 s of wall time per run on average, the reference host has spells
#: at half speed, and a repetition pays ~2 s of set-up, so three fit — the
#: issue's own fallback is to lower k, never below 3, before shortening them.
K_REPS = 3
#: Timed seconds per run (all repetitions together); BENCHMARK.json's run_seconds.
DEFAULT_SECONDS = 18
#: A child that has not finished by then is stuck (the contract's cap is 180 s per run).
CHILD_TIMEOUT_S = 150

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("tx_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

COUNT_NAMES = (
    "sim.events_per_tx", "network.msgs_per_tx", "network.bytes_per_tx",
    "mempool.tx_per_block", "pacemaker.views", "pacemaker.timeouts",
    "pacemaker.outage_ms", "forest.forked_blocks", "forest.peak_blocks",
    "sync.rounds", "sync.blocks_fetched", "checkpoint.taken",
    "checkpoint.snapshots_installed", "client.attempted", "client.timeouts",
    "client.rejections", "client.latency_samples", "experiments.points_per_s",
    "experiments.overhead_share", "transport.cpu_share", "host.speed_ratio", "host.rep_spread",
    "failed_share",
)
#: The issue's host-time metrics exactly as it defines them, in this host's own
#: seconds.  Too noisy here to carry a bound (see README "Noise"), so by the
#: issue's own rule they are layer metrics; every run prints them.
RAW_NAMES = ("raw.setup_s", "raw.tx_per_s", "raw.latency_p50_ms", "raw.latency_p95_ms")
CALL_NAMES = (
    "crypto.sign_calls_per_tx", "crypto.verify_calls_per_tx", "crypto.verify_dup_share",
    "transport.encode_calls_per_tx", "transport.decode_calls_per_tx",
    "transport.encoded_bytes_per_tx",
)
PROFILE_NAMES = tuple(
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")]
    + [f"stdlib.{m}.self_s" for m in ("asyncio", "builtins", "hashlib", "heapq", "json", "random")]
    + ["other.self_s", "profile.total_s", "profile.idle_s", "profile.attributed_share",
       "profile.overhead_ratio"]
)
HIGHER_IS_BETTER = {
    "mempool.tx_per_block", "pacemaker.views", "client.attempted",
    "client.latency_samples", "experiments.points_per_s", "host.calib_ops_per_s",
    "profile.attributed_share", "checkpoint.taken", "host.speed_ratio", "raw.tx_per_s",
}
E2E_UNITS = {name: unit for name, unit, _ in END_TO_END}
UNIT_BY_SUFFIX = (  # first match wins
    ("_ns", "ns"), ("_us", "us"), ("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"),
    ("bytes_per_tx", "B/tx"), ("_per_tx", "1/tx"), ("tx_per_block", "tx/block"),
    ("_share", "ratio"), ("_ratio", "ratio"), ("_spread", "ratio"),
)


def unit_of(name: str) -> str:
    """The unit a per-layer metric's name ends in."""
    return next((unit for suffix, unit in UNIT_BY_SUFFIX if name.endswith(suffix)), "count")


def per_layer_schema() -> List[Dict[str, str]]:
    """Name, unit and direction of every per-layer metric, in print order."""
    return [{"name": name, "unit": unit_of(name),
             "better": "higher" if name in HIGHER_IS_BETTER else "lower"}
            for name in PROFILE_NAMES + COUNT_NAMES + RAW_NAMES + CALL_NAMES + MICRO_NAMES]


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def spawn(role: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child to completion; its facts plus ``setup_s`` (spawn -> timed start)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(role)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(
            f"child {role} exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    facts = json.loads(proc.stdout.strip().splitlines()[-1])
    if "t0_mono" in facts:
        # CLOCK_MONOTONIC is system-wide on Linux, so the child's reading is
        # comparable with ours.
        facts["setup_s"] = facts["t0_mono"] - spawned
    return facts


def child_main(role: Dict[str, Any]) -> int:
    if role["role"] == "micro":
        prepare()
        facts = run_all(quick=role["quick"])
    else:
        facts = repetition(role["workload"], role["seed"], role["rep_seconds"],
                           quick=role["quick"], traced=role["traced"])
    print(json.dumps(facts))
    return 0


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def gate(workload: str, reps: List[Dict[str, Any]]) -> List[str]:
    """Everything that makes a run's numbers meaningless; empty when correct."""
    problems = [f"rep {i}: {e}" for i, rep in enumerate(reps) for e in rep["errors"]]
    if workload.startswith("sim"):
        for field in ("fingerprint", "tx", "replies", "timeouts", "rejections", "p50_ms", "p95_ms"):
            seen = {json.dumps(rep[field]) for rep in reps}
            if len(seen) > 1:
                problems.append(
                    f"repetitions of a deterministic simulation disagree on {field}: {sorted(seen)}")
    for rep in reps:
        for field in ("tx", "replies", "p50_ms", "p95_ms", "ref_s", "rss_mb"):
            if not (rep[field] > 0 and math.isfinite(rep[field])):
                problems.append(f"{field} = {rep[field]!r} is not a positive finite number")
    return problems


def failed_share(reps: List[Dict[str, Any]]) -> float:
    """(timeouts + rejections) / (replies + timeouts + rejections), requests issued in the window."""
    return statistics.median(
        (rep["timeouts"] + rep["rejections"])
        / max(rep["replies"] + rep["timeouts"] + rep["rejections"], 1) for rep in reps)


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics from the repetitions.

    Host time is in *reference seconds* (see ``perf_child.HostSpeed``): each
    repetition reports its timed work already multiplied by the host speed
    sampled alongside it, so what is left between repetitions is two-sided
    noise and the median is the estimator.  Set-up has one speed sample and
    interference can only lengthen it, so it takes the minimum.  Simulated
    latency is identical in every repetition of a ``sim_*`` workload (the gate
    checks), so its median is just its value.
    """
    median = statistics.median
    return {
        "setup_s": min(rep["setup_s"] * rep["setup_speed"] for rep in reps),
        "tx_per_s": median(rep["tx"] / rep["ref_s"] for rep in reps),
        "latency_p50_ms": median(rep["p50_ms"] for rep in reps),
        "latency_p95_ms": median(rep["p95_ms"] for rep in reps),
        "peak_rss_mb": median(rep["rss_mb"] for rep in reps),
    }


def raw_rates(reps: List[Dict[str, Any]]) -> List[float]:
    return [rep["tx"] / rep["raw_s"] for rep in reps]


def raw_metrics(workload: str, reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """The issue's host-time metrics with the issue's estimators, no calibration anywhere.

    The repetitions of a ``sim_*`` workload do bit-identical work and
    interference only adds CPU time, so the fastest one is its throughput; on
    ``deploy_*`` timing-dependent batching makes the noise two-sided, so the
    median is.
    """
    median = statistics.median
    rates = raw_rates(reps)
    return {
        "raw.setup_s": min(rep["setup_s"] for rep in reps),
        "raw.tx_per_s": max(rates) if workload.startswith("sim") else median(rates),
        "raw.latency_p50_ms": median(rep["raw_p50_ms"] for rep in reps),
        "raw.latency_p95_ms": median(rep["raw_p95_ms"] for rep in reps),
    }


def spread(values: List[float]) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def layer_metrics(role: Dict[str, Any], reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer metrics of a traced run: a profiled repetition, the micro-ops, the counts."""
    # Half the work is plenty for shares and per-transaction counts, and the
    # profiler makes it three times as expensive.
    traced = spawn({**role, "traced": True, "rep_seconds": role["rep_seconds"] / 2})
    micro = spawn({"role": "micro", "quick": role["quick"]})
    untraced = reps[0]
    metrics = dict(traced["profile"]["metrics"])
    metrics["profile.overhead_ratio"] = (
        (traced["ref_s"] / max(traced["tx"], 1)) / (untraced["ref_s"] / max(untraced["tx"], 1)))
    metrics.update(untraced["counts"])
    metrics["host.rep_spread"] = spread(raw_rates(reps))
    metrics["failed_share"] = failed_share(reps)
    metrics.update(raw_metrics(role["workload"], reps))
    metrics.update(traced["calls"]["metrics"])
    metrics.update(micro["metrics"])
    unavailable = {**traced["calls"]["unavailable"], **micro["unavailable"]}
    schema = per_layer_schema()
    for entry in schema:
        if entry["name"] not in metrics:
            unavailable.setdefault(entry["name"], "not produced")
            metrics[entry["name"]] = 0.0
    return {"metrics": {e["name"]: metrics[e["name"]] for e in schema},
            "units": {e["name"]: e["unit"] for e in schema},
            "unavailable": unavailable, "hottest": traced["profile"]["hottest"],
            "problems": [f"traced rep: {e}" for e in traced["errors"]]}


def run_workload(workload: str, seed: int, seconds: float, quick: bool,
                 trace: bool, quiet: bool = False) -> Dict[str, Any]:
    """One benchmark run: spawn the repetitions, check them, compute the metrics."""
    k = 1 if quick else K_REPS
    role = {"role": "rep", "workload": workload, "seed": seed, "quick": quick,
            "rep_seconds": seconds / k, "traced": False}
    say = (lambda *_: None) if quiet else (lambda *a: print(*a, flush=True))
    say(f"== {workload}  seed={seed}  seconds={seconds:g}  {k} repetition(s)"
        f"{' + traced repetition + micro-ops' if trace else ''}")
    reps = [spawn(role) for _ in range(k)]
    problems = gate(workload, reps)
    # Simulated client timeouts are outcomes the simulator computed (they are
    # failed_share); an operation *fails* when the program under test got it
    # wrong.  On deploy the program is the cluster, so its timeouts do count.
    resolved = sum(r["replies"] + r["timeouts"] + r["rejections"] for r in reps)
    failed = 0 if workload.startswith("sim") else sum(r["timeouts"] + r["rejections"] for r in reps)
    result: Dict[str, Any] = {"workload": workload, "seed": seed,
                              "attempted": max(resolved, 1), "failed": failed}
    # A run that failed the gate has no numbers worth comparing.
    result["end_to_end"] = {} if problems else end_to_end(reps)
    result["also"] = dict(raw_metrics(workload, reps), failed_share=failed_share(reps))
    for name, value in result["end_to_end"].items():
        say(f"  {name:20s} {value:14.6f} {E2E_UNITS[name]}")
    for name, value in result["also"].items():
        say(f"  {name:20s} {value:14.6f} {unit_of(name)}")
    rates = ", ".join(f"{rate:.0f}" for rate in raw_rates(reps))
    speeds = ", ".join(f"{rep['speed']:.2f}" for rep in reps)
    say(f"  info: raw tx/s per repetition {rates}  (host.rep_spread "
        f"{spread(raw_rates(reps)):.3f}); host speed {speeds}")
    say(f"  info: latency samples per repetition {reps[0]['replies']}, "
        f"committed tx {reps[0]['tx']}, timeouts {reps[0]['timeouts']}, "
        f"rejections {reps[0]['rejections']}")
    if workload.startswith("sim"):
        say(f"  info: sim_fingerprint {reps[0]['fingerprint']}")
    if trace:
        layers = layer_metrics(role, reps)
        problems += layers.pop("problems")
        result.update(layers)
        unavailable = result["unavailable"]
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload}.json"
        trace_path.write_text(json.dumps({
            "workload": workload, "seed": seed, "seconds": seconds,
            "metrics": {n: (None if n in unavailable else v) for n, v in result["metrics"].items()},
            "units": result["units"], "unavailable": unavailable,
            "hottest_functions": result["hottest"],
            "end_to_end": result["end_to_end"],
            "untraced_reps": [{name: v for name, v in rep.items() if name != "counts"}
                              for rep in reps],
        }, indent=1) + "\n")
        for name, value in result["metrics"].items():
            if value or name in unavailable:
                note = f"   UNAVAILABLE: {unavailable[name]}" if name in unavailable else ""
                say(f"  {name:34s} {value:16.6g} {result['units'][name]}{note}")
        say("  hottest functions (self time, traced repetition):")
        for line in result["hottest"]:
            say(f"    {line}")
        say(f"  trace written to {trace_path.relative_to(HERE.parent.parent)}")
    else:
        result["metrics"] = result["end_to_end"]
        result["units"] = E2E_UNITS
    result["correct"] = not problems
    if problems and trace:
        result["metrics"] = {}
    for problem in problems:
        say(f"  INCORRECT: {problem}")
    return result


def result_line(result: Dict[str, Any]) -> str:
    """The contract's last line: correct / attempted / failed / metrics with units."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    })


# ----------------------------------------------------------------------
# A/A: two interleaved sets of runs of the same tree
# ----------------------------------------------------------------------
#: No single run's host-time metric should be further than this from its set's median.
MAX_RUN_DEVIATION = 0.10
#: The issue's rule for a raw host-time metric: it needs a bound of
#: max(0.05, 2 x the A/A median difference), and one that needs more than this,
#: or whose single runs stray further than MAX_RUN_DEVIATION, is demoted.
RAW_FLOOR, RAW_CEILING = 0.05, 0.10


def is_exact(workload: str, name: str) -> bool:
    """Simulated time and counts: the same on every run of one seed, whatever the host does."""
    return name == "failed_share" or (workload.startswith("sim") and "latency" in name)


def aa(n: int, workloads: List[str], seed: int, seconds: float, quick: bool) -> int:
    """Run sets A and B of ``n`` runs each (order A B B A ...) on one seed; print and save the table.

    Exact metrics must be identical in all 2n runs.  End-to-end metrics are
    held to the manifest's bound on the difference of the medians.  The raw
    metrics get the bound the issue's rule says they need, and the verdict on
    whether that still lets them be end-to-end metrics.
    """
    manifest = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    better = dict({name: direction for name, _, direction in END_TO_END},
                  **{e["name"]: e["better"] for e in per_layer_schema()})
    table: Dict[str, Any] = {}
    verdict = 0
    for workload in workloads:
        runs: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
        for i in range(n):
            for side in ("AB", "BA")[i % 2]:
                result = run_workload(workload, seed, seconds, quick, trace=False, quiet=True)
                if not result["correct"]:
                    print(f"{workload} {side}{i}: incorrect run", file=sys.stderr)
                    return 1
                runs[side].append({**result["metrics"], **result["also"]})
                print(f"  {workload} {side}{i} " + " ".join(
                    f"{k}={v:.5g}" for k, v in runs[side][-1].items()), flush=True)
        table[workload] = {}
        for name in runs["A"][0]:
            a = [r[name] for r in runs["A"]]
            b = [r[name] for r in runs["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1 if better[name] == "lower" else -1
            worse = sign * (med_b - med_a) / med_a if med_a else float(med_b != med_a)
            row = {"unit": E2E_UNITS.get(name) or unit_of(name), "median_a": med_a, "median_b": med_b,
                   "quartiles_a": statistics.quantiles(a, n=4) if n > 1 else [],
                   "quartiles_b": statistics.quantiles(b, n=4) if n > 1 else [],
                   "b_worse_by": worse,
                   "max_run_deviation": max(
                       abs(v - statistics.median(side)) / statistics.median(side)
                       if statistics.median(side) else float(v != 0)
                       for side in (a, b) for v in side)}
            if is_exact(workload, name):
                row["bound"] = 0.0
                row["verdict"] = "PASS" if len(set(a + b)) == 1 else "FAIL"
            elif name in bound:
                row["bound"] = bound[name]
                row["verdict"] = "PASS" if abs(worse) <= bound[name] else "FAIL"
            else:
                row["bound"] = max(RAW_FLOOR, 2 * abs(worse))
                row["verdict"] = ("within 0.10" if row["bound"] <= RAW_CEILING
                                  and row["max_run_deviation"] <= MAX_RUN_DEVIATION else "DEMOTED")
            verdict |= row["verdict"] == "FAIL"
            table[workload][name] = row
    print(f"\nA/A: {n} runs per set, seed {seed}, host {platform.node()}, nproc {os.cpu_count()}, "
          f"Python {platform.python_version()}, {time.strftime('%Y-%m-%d')}")
    print("| workload | metric | median A | quartiles A | median B | quartiles B | B worse by "
          "| worst run off median | bound | |")
    print("|---|---|---|---|---|---|---|---|---|---|")

    def quartiles(values: List[float]) -> str:
        return f"{values[0]:.5g} – {values[2]:.5g}" if values else ""

    for workload, rows in table.items():
        for name, row in rows.items():
            print(f"| {workload} | {name} ({row['unit']}) | {row['median_a']:.6g} "
                  f"| {quartiles(row['quartiles_a'])} | {row['median_b']:.6g} "
                  f"| {quartiles(row['quartiles_b'])} | {row['b_worse_by']:+.4f} "
                  f"| {row['max_run_deviation']:.3f} | {row['bound']:.3g} | {row['verdict']} |")
    OUT.mkdir(exist_ok=True)
    (OUT / "aa.json").write_text(json.dumps(table, indent=1) + "\n")
    return verdict


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1, help="inputs are generated from it")
    # The driver's contract appends ``--seconds <run_seconds> --trace <0|1>`` to
    # the command, so both are accepted in that form; the run length is the
    # manifest's and the same on every commit.
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"timed seconds per run, shared by the repetitions (the driver "
                             f"passes run_seconds = {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run a profiled repetition and the micro-ops; the result "
                             "line then carries the per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, one repetition (tests)")
    parser.add_argument("--aa", type=int, metavar="N", help="A/A noise table over 2 x N runs")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.aa:
        return aa(args.aa, workloads, args.seed, args.seconds, args.quick)
    status = 0
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.quick, bool(args.trace))
        status |= not result["correct"]
        print(result_line(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
