"""Figure 10 — throughput vs. latency for payload sizes 0 / 128 / 1024 bytes.

The paper fixes the block size at 400 and varies the transaction payload.
Reproduction criteria: larger payloads lower throughput and raise latency for
every protocol, Streamlet is the most sensitive (its echoes multiply the
bytes moved), and the latency gap between HotStuff and 2CHS narrows as the
payload (transmission delay) grows.
"""

from __future__ import annotations

from typing import Dict, List

import _pathfix  # noqa: F401

from repro import api

from common import bench_args, bench_scale, campaign_records, collapse_rows, report

BASE_CONFIG = api.Configuration(
    num_nodes=4,
    block_size=400,
    num_clients=2,
    runtime=1.2,
    warmup=0.4,
    cooldown=0.4,
    cost_profile="standard",
    view_timeout=0.5,
    mempool_capacity=4000,
    seed=19,
)

PROTOCOLS = [("HS", "hotstuff"), ("2CHS", "2chainhs"), ("SL", "streamlet")]
CI_PAYLOADS = [0, 1024]
FULL_PAYLOADS = [0, 128, 1024]
CI_LEVELS = [50, 200, 800]
FULL_LEVELS = [25, 50, 100, 200, 400, 800, 1600]


def spec(scale: str = "ci", reps: int = 1) -> api.ExperimentSpec:
    """Every (protocol, payload, concurrency) point as one campaign."""
    payloads = FULL_PAYLOADS if scale == "full" else CI_PAYLOADS
    levels = FULL_LEVELS if scale == "full" else CI_LEVELS
    points = [
        {
            "_series": f"{label}-p{payload}",
            "protocol": protocol,
            "payload_size": payload,
            "concurrency": int(level),
        }
        for label, protocol in PROTOCOLS
        for payload in payloads
        for level in levels
    ]
    return api.ExperimentSpec(
        name="fig10_payload_sizes", base=BASE_CONFIG, points=points, repetitions=reps
    )


def run(scale: str = "ci", reps: int = 1) -> List[Dict]:
    """Sweep concurrency for every protocol / payload size pair."""
    rows = []
    for record in campaign_records(spec(scale, reps)):
        rows.append(
            {
                "series": record["params"]["_series"],
                "concurrency": record["config"]["concurrency"],
                "throughput_tps": record["metrics"]["throughput_tps"],
                "latency_ms": record["metrics"]["mean_latency"] * 1e3,
            }
        )
    return collapse_rows(rows, ["series", "concurrency"], reps)


def _saturation(rows, series):
    return max((r["throughput_tps"] for r in rows if r["series"] == series), default=0.0)


def _low_load_latency(rows, series):
    candidates = [r for r in rows if r["series"] == series]
    return min(candidates, key=lambda r: r["concurrency"])["latency_ms"]


def test_benchmark_fig10(benchmark):
    rows = benchmark.pedantic(run, args=(bench_scale(),), rounds=1, iterations=1)
    report(
        "fig10_payload_sizes",
        "Figure 10: throughput vs. latency for payload sizes (bsize 400, 4 replicas)",
        rows,
        ["series", "concurrency", "throughput_tps", "latency_ms"],
    )
    payloads = sorted({int(r["series"].split("-p")[1]) for r in rows})
    heavy = payloads[-1]
    # Larger payloads cost throughput for every protocol — to within the
    # resolution of the measurement window, which counts whole blocks.
    block_quantum = BASE_CONFIG.block_size / BASE_CONFIG.runtime
    for label in ("HS", "2CHS", "SL"):
        assert (
            _saturation(rows, f"{label}-p{heavy}")
            <= _saturation(rows, f"{label}-p0") + block_quantum
        )
    # The HS vs. 2CHS latency gap narrows (relatively) with a heavy payload.
    gap_light = _low_load_latency(rows, "HS-p0") / _low_load_latency(rows, "2CHS-p0")
    gap_heavy = _low_load_latency(rows, f"HS-p{heavy}") / _low_load_latency(rows, f"2CHS-p{heavy}")
    assert gap_heavy <= gap_light + 0.05


def main() -> None:
    args = bench_args()
    rows = run(args.scale, args.reps)
    report(
        "fig10_payload_sizes",
        "Figure 10: throughput vs. latency for payload sizes (bsize 400, 4 replicas)",
        rows,
        ["series", "concurrency", "throughput_tps", "latency_ms"],
    )


if __name__ == "__main__":
    main()
