"""Structure checks on the benchmark at ``--quick`` size.  No timing assertions.

Repetitions run in this process (``perf_child.repetition``) so the whole file
costs a few seconds; one subprocess run checks the command-line contract.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _load(name: str):
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    spec = importlib.util.spec_from_file_location(f"perf_bench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
import perf_child  # noqa: E402  (importable once run.py put HERE on sys.path)
import perf_microops  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def quick_reps():
    """One untraced quick repetition per workload, seed 11."""
    return {w: perf_child.repetition(w, seed=11, rep_seconds=0.0, quick=True)
            for w in run.WORKLOADS}


def test_manifest_matches_the_code():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["command"] == ["python3", "benchmarks/perf/run.py"]
    assert manifest["paths"] == ["benchmarks/perf"]
    assert manifest["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert manifest["per_layer"] == run.per_layer_schema()
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())

    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert len(manifest["workloads"]) <= 4
    assert len(manifest["end_to_end"]) <= 16 and len(manifest["per_layer"]) <= 128


def test_every_workload_yields_every_end_to_end_metric(quick_reps):
    for workload, rep in quick_reps.items():
        assert rep["errors"] == [], (workload, rep["errors"])
        assert run.gate(workload, [rep]) == []
        timed = [dict(rep, setup_s=1.0)]  # the parent times the spawn
        metrics = run.end_to_end(timed)
        assert list(metrics) == [name for name, _, _ in run.END_TO_END]
        raw = run.raw_metrics(workload, timed)
        assert tuple(raw) == run.RAW_NAMES
        for values in (metrics, raw):
            assert all(v > 0 and v == v and v != float("inf") for v in values.values()), values
        if workload.startswith("sim"):  # simulated time needs no calibration
            assert raw["raw.latency_p95_ms"] == metrics["latency_p95_ms"]
        # host.rep_spread and failed_share are computed across repetitions by the parent.
        assert set(run.COUNT_NAMES) - {"host.rep_spread", "failed_share"} <= set(rep["counts"]), workload
    assert quick_reps["deploy_hmac"]["timeouts"] == quick_reps["deploy_ed25519"]["timeouts"] == 0
    # The fault workload is only worth its name if its machinery actually ran.
    faulty = quick_reps["sim_faulty"]["counts"]
    assert faulty["pacemaker.timeouts"] and faulty["sync.rounds"] and faulty["forest.forked_blocks"]
    assert 0.02 < run.failed_share([quick_reps["sim_faulty"]]) < 0.5
    assert run.failed_share([quick_reps["deploy_hmac"]]) == 0.0


def test_same_seed_same_simulation_other_seed_other_inputs(quick_reps):
    for workload in ("sim_steady", "sim_faulty"):
        first = quick_reps[workload]
        again = perf_child.repetition(workload, seed=11, rep_seconds=0.0, quick=True)
        simulated = ("fingerprint", "tx", "replies", "timeouts", "p50_ms", "p95_ms", "inputs_digest")
        assert {k: first[k] for k in simulated} == {k: again[k] for k in simulated}
        assert run.gate(workload, [first, again]) == []
        assert set(again) == set(first) and set(again["counts"]) == set(first["counts"])
    for workload in run.WORKLOADS:
        size = perf_child.sizes(workload, 0.0, True)
        assert perf_child.inputs(workload, 11, size) == perf_child.inputs(workload, 11, size)
        assert perf_child.inputs(workload, 11, size) != perf_child.inputs(workload, 12, size)


def test_gate_rejects_disagreeing_repetitions(quick_reps):
    rep = quick_reps["sim_steady"]
    bent = dict(rep, fingerprint="0" * 16, p95_ms=rep["p95_ms"] * 0.9)
    problems = run.gate("sim_steady", [rep, bent])
    assert any("fingerprint" in p for p in problems) and any("p95_ms" in p for p in problems)
    assert run.gate("deploy_hmac", [dict(quick_reps["deploy_hmac"], errors=["handler error"])])


def test_traced_repetition_and_micro_ops_cover_the_layer_schema():
    traced = perf_child.repetition("deploy_hmac", seed=11, rep_seconds=0.0, quick=True, traced=True)
    assert traced["errors"] == []
    produced = set(traced["profile"]["metrics"]) | set(traced["calls"]["metrics"]) | set(traced["counts"])
    micro = perf_microops.run_all(quick=True)
    assert micro["unavailable"] == {}
    # The parent computes these across repetitions.
    produced |= set(micro["metrics"]) | set(run.RAW_NAMES)
    produced |= {"profile.overhead_ratio", "host.rep_spread", "failed_share"}
    assert {m["name"] for m in run.per_layer_schema()} <= produced
    profile = traced["profile"]["metrics"]
    assert profile["profile.attributed_share"] >= 0.95
    busiest = max(("transport", "crypto", "core", "sim"), key=lambda l: profile[f"{l}.self_s"])
    assert busiest == "transport"
    assert profile["stdlib.asyncio.self_s"] > profile["sim.self_s"]
    calls = traced["calls"]["metrics"]
    assert calls["transport.encode_calls_per_tx"] > 0 and calls["crypto.verify_calls_per_tx"] > 0
    assert traced["calls"]["unavailable"] == {}


def test_a_renamed_target_costs_one_metric_not_the_run(monkeypatch):
    monkeypatch.setattr(perf_microops, "NAMES", ("sim.sched_post_pop_ns", "obs.emit_ns", "sim.fifo_job_ns"))
    monkeypatch.setitem(perf_microops.OPS, "obs.emit_ns",
                        (lambda: perf_child.load("repro.obs.trace:NoSuchTracer"), 1e9))
    micro = perf_microops.run_all(quick=True)
    assert list(micro["unavailable"]) == ["obs.emit_ns"]
    assert "NoSuchTracer" in micro["unavailable"]["obs.emit_ns"]
    assert set(micro["metrics"]) == {"sim.sched_post_pop_ns", "sim.fifo_job_ns"}


def test_command_line_contract(tmp_path, quick_reps):
    command = [sys.executable, str(HERE / "run.py"), "--quick", "--workload", "sim_steady",
               "--seed", "5", "--seconds", "18", "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [name for name, _, _ in run.END_TO_END]
    for name, unit, _ in run.END_TO_END:
        assert line["metrics"][name]["unit"] == unit and line["metrics"][name]["value"] > 0
    for name in [name for name, _, _ in run.END_TO_END] + list(run.RAW_NAMES) + ["failed_share"]:
        assert re.search(rf"^\s+{name}\s+\S+ \S+$", done.stdout, re.M), name
    # Seed 5 here, seed 11 in-process: other inputs, another simulation, the same metric set.
    fingerprint = re.search(r"sim_fingerprint (\w+)", done.stdout).group(1)
    assert fingerprint != quick_reps["sim_steady"]["fingerprint"]
