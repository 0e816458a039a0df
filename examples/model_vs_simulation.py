#!/usr/bin/env python3
"""Back-of-the-envelope forecasting with the analytical model (paper §V).

The queuing model predicts end-to-end latency from first principles
(t_L + t_s + t_commit + w_Q).  This example prints the model's building
blocks for each protocol, then checks the prediction against an actual
simulation (run through the ``repro.api`` facade) at a moderate arrival
rate — the same cross-validation the paper performs in Figure 8.

Run with::

    python examples/model_vs_simulation.py
"""

from repro import api
from repro.model import AnalyticalModel

PROTOCOLS = ["hotstuff", "2chainhs", "streamlet"]

CONFIG = api.Configuration(
    num_nodes=4,
    block_size=400,
    payload_size=0,
    num_clients=2,
    runtime=1.5,
    warmup=0.4,
    cost_profile="standard",
    view_timeout=0.5,
    mempool_capacity=4000,
    seed=13,
)


def main() -> None:
    print("Model building blocks (milliseconds):")
    print(f"{'protocol':<12} {'t_s':>8} {'t_commit':>9} {'t_Q':>8} {'t_NIC':>8} {'saturation':>12}")
    models = {}
    for protocol in PROTOCOLS:
        model = AnalyticalModel(CONFIG.replace(protocol=protocol))
        models[protocol] = model
        summary = model.summary()
        print(
            f"{protocol:<12} {summary['t_s'] * 1e3:>8.2f} {summary['t_commit'] * 1e3:>9.2f} "
            f"{summary['t_q'] * 1e3:>8.3f} {summary['t_nic'] * 1e3:>8.3f} "
            f"{summary['saturation_tps']:>10,.0f}/s"
        )

    print("\nModel vs. simulation at 40% of HotStuff's saturation rate:")
    rate = 0.4 * models["hotstuff"].saturation_rate()
    print(f"{'protocol':<12} {'model (ms)':>12} {'simulated (ms)':>15}")
    for protocol in PROTOCOLS:
        predicted = models[protocol].latency(rate) * 1e3
        result = api.run(CONFIG.replace(protocol=protocol, arrival_rate=rate))
        measured = result.metrics.mean_latency * 1e3
        print(f"{protocol:<12} {predicted:>12.1f} {measured:>15.1f}")

    print(
        "\nThe model tracks the simulator because both charge the same CPU, NIC, "
        "and propagation costs — exactly how the paper validates Bamboo."
    )


if __name__ == "__main__":
    main()
