"""Figure 13 — the forking attack: throughput, latency, CGR, BI vs. Byzantine count.

The paper runs 32 replicas and raises the number of Byzantine replicas
performing the forking attack from 0 to 10.  Reproduction criteria:

* Streamlet is flat on every metric (immune to forking);
* two-chain HotStuff outperforms HotStuff on every metric (it can lose at
  most one block per attack instead of two);
* block intervals start at the commit-rule depth (2 for 2CHS, 3 for HS) and
  grow with the attack;
* chain growth rate falls roughly like 1 - k·byz/n with k = 2 for HS and
  k = 1 for 2CHS.
"""

from __future__ import annotations

from typing import Dict, List

import _pathfix  # noqa: F401

from repro import api

from common import bench_args, bench_scale, campaign_records, collapse_rows, report

BASE_CONFIG = api.Configuration(
    strategy="forking",
    block_size=400,
    payload_size=128,
    num_clients=2,
    concurrency=400,
    runtime=1.5,
    warmup=0.4,
    cooldown=0.4,
    cost_profile="standard",
    view_timeout=1.0,
    election="hash",
    request_timeout=1.5,
    mempool_capacity=4000,
    seed=31,
)

PROTOCOLS = [("HS", "hotstuff"), ("2CHS", "2chainhs"), ("SL", "streamlet")]
CI_SETUP = {"nodes": 16, "byz_counts": [0, 5], "sl_nodes": 8, "sl_byz": [0, 2]}
FULL_SETUP = {"nodes": 32, "byz_counts": [0, 2, 4, 6, 8, 10], "sl_nodes": 32, "sl_byz": [0, 2, 4, 6, 8, 10]}


def spec(scale: str = "ci", reps: int = 1) -> api.ExperimentSpec:
    """One point per protocol and Byzantine count (SL uses its own sizes)."""
    setup = FULL_SETUP if scale == "full" else CI_SETUP
    points = []
    for label, protocol in PROTOCOLS:
        nodes = setup["sl_nodes"] if label == "SL" else setup["nodes"]
        byz_counts = setup["sl_byz"] if label == "SL" else setup["byz_counts"]
        points.extend(
            {"_label": label, "protocol": protocol, "num_nodes": nodes, "byzantine_nodes": byz}
            for byz in byz_counts
        )
    return api.ExperimentSpec(
        name="fig13_forking_attack", base=BASE_CONFIG, points=points, repetitions=reps
    )


def run(scale: str = "ci", reps: int = 1) -> List[Dict]:
    """Measure the four metrics as the number of forking attackers grows."""
    rows = []
    for record in campaign_records(spec(scale, reps)):
        metrics = record["metrics"]
        rows.append(
            {
                "protocol": record["params"]["_label"],
                "nodes": record["config"]["num_nodes"],
                "byzantine": record["config"]["byzantine_nodes"],
                "throughput_tps": metrics["throughput_tps"],
                "latency_ms": metrics["mean_latency"] * 1e3,
                "cgr": metrics["chain_growth_rate"],
                "block_interval": metrics["block_interval"],
            }
        )
    return collapse_rows(rows, ["protocol", "nodes", "byzantine"], reps)


def _metric(rows, protocol, byz, key):
    for row in rows:
        if row["protocol"] == protocol and row["byzantine"] == byz:
            return row[key]
    return None


def test_benchmark_fig13(benchmark):
    rows = benchmark.pedantic(run, args=(bench_scale(),), rounds=1, iterations=1)
    report(
        "fig13_forking_attack",
        "Figure 13: metrics under the forking attack (increasing Byzantine nodes)",
        rows,
        ["protocol", "nodes", "byzantine", "throughput_tps", "latency_ms", "cgr", "block_interval"],
    )
    hs_byz = max(r["byzantine"] for r in rows if r["protocol"] == "HS")
    sl_byz = max(r["byzantine"] for r in rows if r["protocol"] == "SL")
    # Forking lowers HS chain growth, 2CHS stays above HS, SL is flat: the
    # attackers change nothing.  (Its absolute value is quantised by the
    # measurement window — the ci window holds 11 blocks and the one cut by
    # the edge reads as 10/11 — so "flat" is the claim, not "equals 1".)
    assert _metric(rows, "HS", hs_byz, "cgr") < _metric(rows, "HS", 0, "cgr")
    assert _metric(rows, "2CHS", hs_byz, "cgr") > _metric(rows, "HS", hs_byz, "cgr")
    assert _metric(rows, "SL", sl_byz, "cgr") == _metric(rows, "SL", 0, "cgr") >= 0.9
    # Block intervals start at the commit-rule depth and grow under attack.
    assert abs(_metric(rows, "HS", 0, "block_interval") - 3.0) < 0.3
    assert abs(_metric(rows, "2CHS", 0, "block_interval") - 2.0) < 0.3
    assert _metric(rows, "HS", hs_byz, "block_interval") > _metric(rows, "HS", 0, "block_interval")


def main() -> None:
    args = bench_args()
    rows = run(args.scale, args.reps)
    report(
        "fig13_forking_attack",
        "Figure 13: metrics under the forking attack (increasing Byzantine nodes)",
        rows,
        ["protocol", "nodes", "byzantine", "throughput_tps", "latency_ms", "cgr", "block_interval"],
    )


if __name__ == "__main__":
    main()
