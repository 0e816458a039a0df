"""The paper's evaluation (§VI) as one table, and the engine that runs it.

Table II and Figs. 8-15 are each "a fair comparison" of HS / 2CHS / SL under
one varied parameter.  :data:`ENTRIES` describes every one of them once: the
table title, the base :class:`~repro.bench.config.Configuration`, the axes at
the two scales, how a campaign record becomes a table row, which columns
identify a point across repetitions, how the records plot
(:class:`~repro.analysis.figures.FigureDef`), and the paper's claims as
``(sentence, predicate over the rows)`` pairs.  :func:`run` takes any entry
through ``ExperimentSpec`` → :func:`repro.api.campaign` → records → rows →
table → claims; ``python -m repro paper`` and :func:`repro.api.paper` are its
two callers.

Scales
------
``ci`` (default)
    Reduced grids sized so all ten deterministic entries finish in under a
    minute.  The qualitative shapes (protocol ordering, curve knees, attack
    degradation) are preserved; ``benchmarks/results/<name>.txt`` holds these
    tables and tier-1 compares them byte for byte.
``full``
    The paper-sized grids (64-node scalability, 0-10 Byzantine nodes, the
    40-second responsiveness timeline).

Simulated vs. paper numbers: the simulator charges millisecond-scale CPU
costs (see ``repro.bench.profiles``), so absolute Tx/s are a few thousand
rather than the paper's tens of thousands; the claims are about shapes, and
``docs/EXPERIMENTS.md`` compares them.

To add a result, append one :class:`Entry`; nothing else needs to know.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro import api
from repro.analysis.figures import ATTACK_PANELS, FigureDef
from repro.analysis.report import Column, format_table
from repro.analysis.stats import aggregate_rows
from repro.bench.config import Configuration
from repro.bench.metrics import timeline_mean
from repro.experiments.runner import CampaignResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.model.predictions import AnalyticalModel
from repro.scenario import CrashReplica, NetworkFluctuation, Scenario

SCALES = ("ci", "full")


class PaperError(ValueError):
    """The requested entry or scale does not exist."""


class Rows(list):
    """An entry's table rows, with the lookups its claims are phrased in."""

    def where(self, **labels: Any) -> "Rows":
        """The rows whose label columns carry these values."""
        return Rows(r for r in self if all(r[k] == v for k, v in labels.items()))

    def at(self, column: str, **labels: Any) -> Any:
        """``column`` in the one row carrying ``labels``."""
        (row,) = self.where(**labels)
        return row[column]

    def max(self, column: str, **labels: Any) -> Any:
        """The highest ``column`` among the rows carrying ``labels`` — for a
        throughput column, the saturation point of that load curve."""
        return max(r[column] for r in self.where(**labels))

    def curve(self, column: str, by: str, **labels: Any) -> List[Any]:
        """``column`` along the rows carrying ``labels``, ordered by ``by``:
        ``[0]`` is the low-load (or smallest-cluster) end, ``[-1]`` the other."""
        return [r[column] for r in sorted(self.where(**labels), key=lambda r: r[by])]


Claim = Tuple[str, Callable[[Rows], bool]]


@dataclass(frozen=True)
class Entry:
    """One table or figure of the evaluation."""

    #: Campaign name and result-file stem.
    name: str
    title: str
    base: Configuration
    #: ``ExperimentSpec`` keyword arguments per scale (``grid`` / ``points`` /
    #: ``scenario`` / ``bucket``).  ``base`` holds per-scale overrides of the
    #: base configuration; ``points`` may be a function of the base where the
    #: points are computed rather than listed (fig. 8's model rates).
    ci: Mapping[str, Any]
    full: Mapping[str, Any]
    columns: Tuple[Column, ...]
    #: The columns identifying a point: ``--reps N`` rows collapse over them.
    keys: Tuple[str, ...]
    figure: FigureDef
    claims: Tuple[Claim, ...]
    #: False for the entry that runs real sockets: its numbers are measured
    #: wall-clock, so ``all`` skips it and no test pins its table.
    deterministic: bool = True

    def spec(self, scale: str = "ci", reps: int = 1) -> ExperimentSpec:
        """The entry's campaign at one scale."""
        if scale not in SCALES:
            raise PaperError(f"unknown scale {scale!r}; expected one of {', '.join(SCALES)}")
        axes = dict(getattr(self, scale))
        base = self.base.replace(**axes.pop("base", {}))
        if callable(axes.get("points")):
            axes["points"] = axes["points"](base)
        return ExperimentSpec(name=self.name, base=base, repetitions=reps, **axes)


PROTOCOLS = (("HS", "hotstuff"), ("2CHS", "2chainhs"), ("SL", "streamlet"))
LABELS = tuple(label for label, _protocol in PROTOCOLS)

#: Figs. 9-11 print one latency/throughput point per (series, client load).
LOAD_CURVE_COLUMNS = (
    Column("series", "params._series"),
    Column("concurrency", "config.concurrency"),
    Column("throughput_tps", "metrics.throughput_tps"),
    Column("latency_ms", "metrics.mean_latency", 1e3),
)
#: Figs. 13-14 print the four metrics per (protocol, Byzantine count).
ATTACK_COLUMNS = (
    Column("protocol", "params._label"),
    Column("nodes", "config.num_nodes"),
    Column("byzantine", "config.byzantine_nodes"),
    Column("throughput_tps", "metrics.throughput_tps"),
    Column("latency_ms", "metrics.mean_latency", 1e3),
    Column("cgr", "metrics.chain_growth_rate"),
    Column("block_interval", "metrics.block_interval"),
)


def _saturation(rows: Rows, series: str) -> float:
    return rows.max("throughput_tps", series=series)


def _low_load_latency(rows: Rows, series: str) -> float:
    return rows.curve("latency_ms", by="concurrency", series=series)[0]


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------
TABLE2 = Entry(
    name="table2_arrival_vs_throughput",
    title="Table II: arrival rate vs. transaction throughput (HotStuff, 4 replicas, bsize 400)",
    base=Configuration(
        protocol="hotstuff", num_nodes=4, block_size=400, payload_size=0,
        num_clients=2, runtime=1.5, warmup=0.4, cooldown=0.4,
        cost_profile="standard", view_timeout=0.5, mempool_capacity=4000, seed=11,
    ),
    ci={"grid": {"arrival_rate": [500.0, 1000.0, 2000.0, 3000.0]}},
    full={"grid": {"arrival_rate": [500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0]}},
    columns=(
        Column("arrival_rate_tps", "params.arrival_rate"),
        Column("throughput_tps", "metrics.throughput_tps"),
        Column("ratio", lambda r: r["metrics"]["throughput_tps"] / r["params"]["arrival_rate"]),
        Column("mean_latency_ms", "metrics.mean_latency", 1e3),
    ),
    keys=("arrival_rate_tps",),
    figure=FigureDef(
        key="table2", title="Table II — arrival rate vs. throughput",
        xlabel="arrival rate (Tx/s)", ylabel="throughput (Tx/s)",
        x="arrival_rate", y="throughput_tps",
    ),
    claims=(
        ("The throughput observed on the blockchain tracks the Poisson arrival rate "
         "(ratio within 0.85-1.15) at every rate below the highest, saturating one",
         lambda rows: all(0.85 <= r["ratio"] <= 1.15 for r in rows[:-1])),
    ),
)


# ----------------------------------------------------------------------
# Figure 8, analytical axis: the simulator against the §V queuing model
# ----------------------------------------------------------------------
FIG8_FIGURE = FigureDef(
    key="fig8", title="Fig. 8 — model vs. implementation",
    xlabel="arrival rate (Tx/s)", ylabel="mean latency (ms)",
    x="arrival_rate", y="mean_latency", y_scale=1e3,
    # "mode" splits the simulated and deployed runs of one config into
    # separate curves — the figure's model-vs-implementation axis
    # regenerated from actual runs of both.
    series_keys=("_config", "protocol", "mode"),
)


def _fig8_model_points(base: Configuration, configs, fractions) -> List[Dict[str, Any]]:
    """One point per (cluster/block size, protocol, fraction of the model's
    saturation rate), with the model's latency prediction at that rate
    carried along as a tag.  Called when the spec is built, not at import."""
    points = []
    for num_nodes, block_size in configs:
        for _label, protocol in PROTOCOLS:
            config = base.replace(protocol=protocol, num_nodes=num_nodes, block_size=block_size)
            model = AnalyticalModel(config)
            saturation = model.saturation_rate()
            for fraction in fractions:
                rate = fraction * saturation
                points.append({
                    "_config": f"{num_nodes}/{block_size}",
                    "_model_ms": model.latency(rate) * 1e3,
                    "protocol": protocol,
                    "num_nodes": num_nodes,
                    "block_size": block_size,
                    "arrival_rate": rate,
                })
    return points


def _fig8_lowest_load(rows: Rows) -> List[Dict[str, Any]]:
    """The lowest-arrival-rate row of every (configuration, protocol) curve."""
    curves = {(r["config"], r["protocol"]) for r in rows}
    return [min(rows.where(config=c, protocol=p), key=lambda r: r["arrival_tps"])
            for c, p in curves]


FIG8_MODEL = Entry(
    name="fig8_model_vs_implementation",
    title="Figure 8: model vs. implementation (latency in ms at increasing arrival rates)",
    base=Configuration(
        num_nodes=4, block_size=400, payload_size=0, num_clients=2,
        runtime=1.2, warmup=0.4, cooldown=0.4, cost_profile="standard",
        view_timeout=0.5, mempool_capacity=4000, seed=13,
    ),
    ci={"points": partial(_fig8_model_points, configs=[(4, 100), (4, 400)],
                          fractions=[0.2, 0.5, 0.8])},
    full={"points": partial(_fig8_model_points, configs=[(4, 100), (8, 100), (4, 400), (8, 400)],
                            fractions=[0.1, 0.3, 0.5, 0.7, 0.9])},
    columns=(
        Column("config", "params._config"),
        Column("protocol", "params.protocol"),
        Column("arrival_tps", "params.arrival_rate"),
        Column("measured_ms", "metrics.mean_latency", 1e3),
        Column("model_ms", "params._model_ms"),
        Column("measured_tput", "metrics.throughput_tps"),
    ),
    # model_ms is deterministic per point, so it stays a grouping key.
    keys=("config", "protocol", "arrival_tps", "model_ms"),
    figure=FIG8_FIGURE,
    # The paper's curves overlap at low load; the tolerance here is a factor
    # of four because the M/D/1 term grows somewhat faster than the
    # simulator's bounded mempool queue.
    claims=(
        ("The model tracks the implementation: at the lowest load of every configuration "
         "and protocol the measured latency is within 4x of the model's",
         lambda rows: all(r["measured_ms"] <= 4.0 * r["model_ms"] for r in _fig8_lowest_load(rows))),
        ("... and the model's latency is within 4x of the measured one",
         lambda rows: all(r["model_ms"] <= 4.0 * r["measured_ms"] for r in _fig8_lowest_load(rows))),
    ),
)


# ----------------------------------------------------------------------
# Figure 8, measured axis: the protocol stack over real TCP
# ----------------------------------------------------------------------
# The same Configuration runs in mode="model" (discrete-event, modeled crypto
# and network) and mode="deploy" (an asyncio TCP loopback cluster with real
# Ed25519 signing and wall-clock time, repro.transport).  Both emit identical
# campaign records, so a stored run prefix-matches the fig8 figure and `plot`
# draws the measured and simulated curves of one configuration side by side.
# Deploy points cost real seconds of wall clock each (the run *is* the
# measurement), so the grids stay small even at full scale.
_FIG8_IMPL_BASE = Configuration(
    num_nodes=4, block_size=50, payload_size=0, num_clients=2,
    runtime=1.6, warmup=0.4, cooldown=0.2, view_timeout=1.0,
    request_timeout=2.0, mempool_capacity=2000, seed=13,
)


def _fig8_impl_points(protocols, rates):
    return [
        {"_config": f"{_FIG8_IMPL_BASE.num_nodes}/{_FIG8_IMPL_BASE.block_size}",
         "protocol": protocol, "arrival_rate": rate, "mode": mode}
        for protocol in protocols
        for rate in rates
        for mode in ("model", "deploy")
    ]


FIG8_IMPL = Entry(
    name="fig8_impl",
    title="Figure 8: simulated vs. deployed (mean latency at open-loop arrival rates)",
    base=_FIG8_IMPL_BASE,
    # Open-loop arrival rates (Tx/s).  The full grid spans both knees measured
    # on the reference host (table in docs/EXPERIMENTS.md): the model queues
    # beyond ~2 400.  The deployed cluster (OpenSSL Ed25519, its clients in a
    # forked load generator) answers in 4-7 ms up to 6 400 Tx/s, bends at
    # 12 800 (11-15 ms) and 25 600 (20-24 ms, committing ~24.5 k), and at
    # 51 200 commits 22-24 k Tx/s at ~300 ms.  The ci grid stays far below
    # either.
    ci={"points": _fig8_impl_points(["hotstuff"], [20.0, 50.0])},
    full={"points": _fig8_impl_points(
        ["hotstuff", "2chainhs"],
        [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0, 25600.0,
         51200.0])},
    columns=(
        Column("config", "params._config"),
        Column("protocol", "params.protocol"),
        Column("mode", "params.mode"),
        Column("arrival_tps", "params.arrival_rate"),
        Column("latency_ms", "metrics.mean_latency", 1e3),
        Column("tput_tps", "metrics.throughput_tps"),
        Column("consistent", "consistent", shown=False),
    ),
    keys=("config", "protocol", "mode", "arrival_tps"),
    figure=FIG8_FIGURE,
    deterministic=False,
    claims=(
        ("Every run, simulated or over real sockets, stays safe (consistent chains)",
         lambda rows: all(r["consistent"] for r in rows)),
        ("... and commits (Tx/s > 0)",
         lambda rows: all(r["tput_tps"] > 0 for r in rows)),
        ("... with a measured latency (ms > 0)",
         lambda rows: all(r["latency_ms"] > 0 for r in rows)),
        ("Both execution modes produced a curve: a model and a deploy row for every "
         "(protocol, rate) point",
         lambda rows: len(rows.where(mode="model")) == len(rows.where(mode="deploy")) > 0),
    ),
)


# ----------------------------------------------------------------------
# Figures 9-11: throughput vs. latency under one varied parameter
# ----------------------------------------------------------------------
def _load_curve_figure(key: str, title: str) -> FigureDef:
    return FigureDef(
        key=key, title=title, xlabel="throughput (Tx/s)", ylabel="mean latency (ms)",
        x="throughput_tps", y="mean_latency", y_scale=1e3,
    )


def _fig9_points(block_sizes, levels):
    # (label, protocol, cost profile): OHS, the original C++ HotStuff, is
    # HotStuff under the "ohs" profile.
    series = [("HS", "hotstuff", "standard"), ("2CHS", "2chainhs", "standard"),
              ("SL", "streamlet", "standard"), ("OHS", "hotstuff", "ohs")]
    return [
        {"_series": f"{label}-b{block_size}", "protocol": protocol,
         "cost_profile": profile, "block_size": block_size, "concurrency": level}
        for label, protocol, profile in series
        for block_size in block_sizes
        # The paper could not obtain meaningful OHS results at 400.
        if not (label == "OHS" and block_size == 400)
        for level in levels
    ]


FIG9 = Entry(
    name="fig9_block_sizes",
    title="Figure 9: throughput vs. latency for block sizes (zero payload, 4 replicas)",
    base=Configuration(
        num_nodes=4, payload_size=0, num_clients=2, runtime=1.2, warmup=0.4,
        cooldown=0.4, cost_profile="standard", view_timeout=0.5,
        mempool_capacity=4000, seed=17,
    ),
    # Client concurrency is raised until saturation, so every curve is L-shaped.
    ci={"points": _fig9_points([100, 400], [50, 200, 800])},
    full={"points": _fig9_points([100, 400, 800], [25, 50, 100, 200, 400, 800, 1600])},
    columns=LOAD_CURVE_COLUMNS,
    keys=("series", "concurrency"),
    figure=_load_curve_figure("fig9", "Fig. 9 — throughput vs. latency by block size"),
    claims=(
        ("Larger blocks raise the saturation throughput (HS at block size 400 above 100)",
         lambda rows: _saturation(rows, "HS-b400") > _saturation(rows, "HS-b100")),
        ("Streamlet saturates below HotStuff at the same block size (400)",
         lambda rows: _saturation(rows, "SL-b400") < _saturation(rows, "HS-b400")),
        ("The OHS profile is close to Bamboo-HotStuff: at block size 100 it saturates at "
         "no less than 0.7x of HS",
         lambda rows: _saturation(rows, "OHS-b100") >= 0.7 * _saturation(rows, "HS-b100")),
    ),
)


_FIG10_BASE = Configuration(
    num_nodes=4, block_size=400, num_clients=2, runtime=1.2, warmup=0.4,
    cooldown=0.4, cost_profile="standard", view_timeout=0.5,
    mempool_capacity=4000, seed=19,
)


def _fig10_points(payloads, levels):
    return [
        {"_series": f"{label}-p{payload}", "protocol": protocol,
         "payload_size": payload, "concurrency": level}
        for label, protocol in PROTOCOLS
        for payload in payloads
        for level in levels
    ]


def _heaviest_payload(rows: Rows) -> int:
    return max(int(r["series"].split("-p")[1]) for r in rows)


def _fig10_payloads_cost_throughput(rows: Rows) -> bool:
    heavy = _heaviest_payload(rows)
    block_quantum = _FIG10_BASE.block_size / _FIG10_BASE.runtime
    return all(
        _saturation(rows, f"{label}-p{heavy}") <= _saturation(rows, f"{label}-p0") + block_quantum
        for label in LABELS
    )


def _fig10_latency_gap_narrows(rows: Rows) -> bool:
    heavy = _heaviest_payload(rows)
    gap_light = _low_load_latency(rows, "HS-p0") / _low_load_latency(rows, "2CHS-p0")
    gap_heavy = _low_load_latency(rows, f"HS-p{heavy}") / _low_load_latency(rows, f"2CHS-p{heavy}")
    return gap_heavy <= gap_light + 0.05


FIG10 = Entry(
    name="fig10_payload_sizes",
    title="Figure 10: throughput vs. latency for payload sizes (bsize 400, 4 replicas)",
    base=_FIG10_BASE,
    ci={"points": _fig10_points([0, 1024], [50, 200, 800])},
    full={"points": _fig10_points([0, 128, 1024], [25, 50, 100, 200, 400, 800, 1600])},
    columns=LOAD_CURVE_COLUMNS,
    keys=("series", "concurrency"),
    figure=_load_curve_figure("fig10", "Fig. 10 — throughput vs. latency by payload size"),
    claims=(
        ("Larger payloads cost throughput for every protocol: the heaviest payload saturates "
         "no higher than zero payload, to within one block per runtime — the resolution of a "
         "measurement window that counts whole blocks",
         _fig10_payloads_cost_throughput),
        ("The latency gap between HotStuff and 2CHS narrows (relatively) as the payload, "
         "hence the transmission delay, grows",
         _fig10_latency_gap_narrows),
    ),
)


def _fig11_points(delays, levels):
    return [
        {"_series": f"{label}-{delay_label}", "protocol": protocol,
         "extra_delay_mean": mean, "extra_delay_stddev": stddev, "concurrency": level}
        for label, protocol in PROTOCOLS
        for delay_label, mean, stddev in delays
        for level in levels
    ]


def _fig11_streamlet_penalty_shrinks(rows: Rows) -> bool:
    ratio_near = _low_load_latency(rows, "SL-d0") / _low_load_latency(rows, "2CHS-d0")
    ratio_far = _low_load_latency(rows, "SL-d10") / _low_load_latency(rows, "2CHS-d10")
    return ratio_far <= ratio_near + 0.05


FIG11 = Entry(
    name="fig11_network_delays",
    title="Figure 11: throughput vs. latency under added network delay (bsize 400, p128)",
    base=Configuration(
        num_nodes=4, block_size=400, payload_size=128, num_clients=2,
        runtime=1.2, warmup=0.4, cooldown=0.4, cost_profile="standard",
        view_timeout=0.5, mempool_capacity=4000, seed=23,
    ),
    # (label, one-way mean delay, one-way stddev) — the paper quotes RTT-ish
    # figures of 5ms±1ms and 10ms±2ms; one-way halves are injected on each hop.
    ci={"points": _fig11_points([("d0", 0.0, 0.0), ("d10", 5e-3, 1e-3)], [50, 400])},
    full={"points": _fig11_points(
        [("d0", 0.0, 0.0), ("d5", 2.5e-3, 0.5e-3), ("d10", 5e-3, 1e-3)],
        [25, 50, 100, 200, 400, 800])},
    columns=LOAD_CURVE_COLUMNS,
    keys=("series", "concurrency"),
    figure=_load_curve_figure("fig11", "Fig. 11 — throughput vs. latency under added delay"),
    claims=(
        ("Added delay raises low-load latency for every protocol (10 ms setting above none)",
         lambda rows: all(_low_load_latency(rows, f"{label}-d10") > _low_load_latency(rows, f"{label}-d0")
                          for label in LABELS)),
        ("Streamlet's latency penalty relative to 2CHS shrinks once propagation delay "
         "dominates the echo overhead",
         _fig11_streamlet_penalty_shrinks),
    ),
)


# ----------------------------------------------------------------------
# Figure 12: scalability
# ----------------------------------------------------------------------
def _fig12_points(sizes):
    return [
        {"_label": label, "protocol": protocol, "num_nodes": num_nodes}
        for label, protocol in PROTOCOLS
        for num_nodes in sizes[label]
    ]


def _fig12_streamlet_degrades_fastest(rows: Rows) -> bool:
    shared = sorted({r["nodes"] for r in rows.where(protocol="HS")}
                    & {r["nodes"] for r in rows.where(protocol="SL")})
    first, last = shared[0], shared[-1]

    def drop(label: str) -> float:
        return (rows.at("throughput_tps", protocol=label, nodes=last)
                / rows.at("throughput_tps", protocol=label, nodes=first))

    return drop("SL") <= drop("HS")


FIG12 = Entry(
    name="fig12_scalability",
    title="Figure 12: scalability (bsize 400, 128-byte payload, saturated clients)",
    base=Configuration(
        block_size=400, payload_size=128, num_clients=2, runtime=1.2, warmup=0.4,
        cooldown=0.4, cost_profile="standard", view_timeout=1.0,
        mempool_capacity=4000, concurrency=400, seed=29,
    ),
    # Streamlet beyond 16 nodes is extremely expensive to simulate message by
    # message (the paper itself calls its >= 64-node results meaningless), so
    # the ci scale caps Streamlet at 8 nodes and the full scale at 32.
    ci={"points": _fig12_points({"HS": [4, 16], "2CHS": [4, 16], "SL": [4, 8]})},
    full={"points": _fig12_points({"HS": [4, 8, 16, 32, 64], "2CHS": [4, 8, 16, 32, 64],
                                   "SL": [4, 8, 16, 32]})},
    columns=(
        Column("protocol", "params._label"),
        Column("nodes", "config.num_nodes"),
        Column("throughput_tps", "metrics.throughput_tps"),
        Column("latency_ms", "metrics.mean_latency", 1e3),
    ),
    keys=("protocol", "nodes"),
    figure=FigureDef(
        key="fig12", title="Fig. 12 — scalability",
        xlabel="cluster size (replicas)", ylabel="throughput (Tx/s)",
        x="num_nodes", y="throughput_tps",
    ),
    claims=(
        ("Throughput falls from the smallest to the largest cluster for every protocol",
         lambda rows: all(
             rows.curve("throughput_tps", by="nodes", protocol=label)[-1]
             < rows.curve("throughput_tps", by="nodes", protocol=label)[0] for label in LABELS)),
        ("... and latency rises",
         lambda rows: all(
             rows.curve("latency_ms", by="nodes", protocol=label)[-1]
             > rows.curve("latency_ms", by="nodes", protocol=label)[0] for label in LABELS)),
        ("Streamlet (O(n^3) messages) degrades faster than HotStuff over the cluster sizes "
         "both ran at",
         _fig12_streamlet_degrades_fastest),
    ),
)


# ----------------------------------------------------------------------
# Figures 13-14: the forking and silence attacks
# ----------------------------------------------------------------------
def _attack_points(nodes, byz_counts, sl_nodes, sl_byz, sl_overrides=None):
    """One point per protocol and Byzantine count; Streamlet runs at its own
    cluster size and counts (and, in fig. 14, its own timing)."""
    return [
        {"_label": label, "protocol": protocol,
         "num_nodes": sl_nodes if label == "SL" else nodes, "byzantine_nodes": byz,
         **((sl_overrides or {}) if label == "SL" else {})}
        for label, protocol in PROTOCOLS
        for byz in (sl_byz if label == "SL" else byz_counts)
    ]


def _clean(rows: Rows, protocol: str, column: str) -> float:
    return rows.at(column, protocol=protocol, byzantine=0)


def _attacked(rows: Rows, protocol: str, column: str) -> float:
    """``column`` under the most Byzantine replicas the protocol was run with
    (HS and 2CHS share their counts, so theirs is the same attack)."""
    return rows.at(column, protocol=protocol, byzantine=rows.max("byzantine", protocol=protocol))


FIG13 = Entry(
    name="fig13_forking_attack",
    title="Figure 13: metrics under the forking attack (increasing Byzantine nodes)",
    base=Configuration(
        strategy="forking", block_size=400, payload_size=128, num_clients=2,
        concurrency=400, runtime=1.5, warmup=0.4, cooldown=0.4,
        cost_profile="standard", view_timeout=1.0, election="hash",
        request_timeout=1.5, mempool_capacity=4000, seed=31,
    ),
    ci={"points": _attack_points(16, [0, 5], sl_nodes=8, sl_byz=[0, 2])},
    full={"points": _attack_points(32, [0, 2, 4, 6, 8, 10], sl_nodes=32, sl_byz=[0, 2, 4, 6, 8, 10])},
    columns=ATTACK_COLUMNS,
    keys=("protocol", "nodes", "byzantine"),
    figure=FigureDef(
        key="fig13", title="Fig. 13 — forking attack",
        xlabel="Byzantine replicas", ylabel="chain growth rate",
        x="byzantine_nodes", y="chain_growth_rate", panels=ATTACK_PANELS,
    ),
    # Chain growth rate falls roughly like 1 - k·byz/n with k = 2 for HS (an
    # attack overwrites two blocks) and k = 1 for 2CHS (at most one).
    claims=(
        ("Forking lowers HotStuff's chain growth rate",
         lambda rows: _attacked(rows, "HS", "cgr") < _clean(rows, "HS", "cgr")),
        ("Two-chain HotStuff keeps a higher chain growth rate than HotStuff under the same "
         "attack (it can lose at most one block per attack instead of two)",
         lambda rows: _attacked(rows, "2CHS", "cgr") > _attacked(rows, "HS", "cgr")),
        # Its absolute value is quantised by the measurement window — the ci
        # window holds 11 blocks and the one cut by the edge reads as 10/11 —
        # so "flat" is the claim, not "equals 1".
        ("Streamlet is immune to forking: its chain growth rate is flat (and at least 0.9), "
         "the attackers change nothing",
         lambda rows: _attacked(rows, "SL", "cgr") == _clean(rows, "SL", "cgr") >= 0.9),
        ("Block intervals start at the commit-rule depth: 3 for HotStuff",
         lambda rows: abs(_clean(rows, "HS", "block_interval") - 3.0) < 0.3),
        ("... and 2 for two-chain HotStuff",
         lambda rows: abs(_clean(rows, "2CHS", "block_interval") - 2.0) < 0.3),
        ("... and grow under the attack (HotStuff)",
         lambda rows: _attacked(rows, "HS", "block_interval") > _clean(rows, "HS", "block_interval")),
    ),
)


FIG14 = Entry(
    name="fig14_silence_attack",
    title="Figure 14: metrics under the silence attack (increasing Byzantine nodes)",
    base=Configuration(
        strategy="silence", block_size=400, payload_size=128, num_clients=2,
        concurrency=400, runtime=1.5, warmup=0.4, cooldown=0.4, cost_profile="standard",
        # The paper uses a 50 ms timeout against ~10 ms happy-path views; the
        # scaled cost profile makes a view take ~50 ms (HS/2CHS) or several
        # hundred ms (Streamlet's echoes), so the timeouts keep the same
        # "several times the happy-path view" ratio per protocol.
        view_timeout=0.25, election="hash", request_timeout=1.5,
        mempool_capacity=4000, seed=37,
    ),
    # Streamlet's echoes make its happy-path view several times longer under
    # the scaled cost profile; it keeps its timeout a small multiple of the
    # view and measures a longer window so silent-leader stalls do not consume
    # the whole run.
    ci={"points": _attack_points(16, [0, 4], sl_nodes=4, sl_byz=[0, 1],
                                 sl_overrides={"view_timeout": 0.4, "runtime": 3.0})},
    full={"points": _attack_points(32, [0, 2, 4, 6, 8, 10], sl_nodes=32, sl_byz=[0, 2, 4, 6, 8, 10],
                                   sl_overrides={"view_timeout": 0.4, "runtime": 3.0})},
    columns=ATTACK_COLUMNS,
    keys=("protocol", "nodes", "byzantine"),
    figure=FigureDef(
        key="fig14", title="Fig. 14 — silence attack",
        xlabel="Byzantine replicas", ylabel="throughput (Tx/s)",
        x="byzantine_nodes", y="throughput_tps", panels=ATTACK_PANELS,
    ),
    claims=(
        ("Every protocol's throughput falls as more leaders stay silent",
         lambda rows: all(_attacked(rows, label, "throughput_tps") < _clean(rows, label, "throughput_tps")
                          for label in LABELS)),
        ("HotStuff loses chain growth (the block before a silent view loses its certificate "
         "and is overwritten): below 0.98 under the most silent leaders",
         lambda rows: _attacked(rows, "HS", "cgr") < 0.98),
        # The gap tolerance is loose at ci scale: with a third of the leaders
        # silent, HotStuff's stricter consecutive-view three-chain also delays
        # commits beyond the short measurement window.
        ("... and two-chain HotStuff loses it alike (within 0.35 of HotStuff)",
         lambda rows: abs(_attacked(rows, "HS", "cgr") - _attacked(rows, "2CHS", "cgr")) < 0.35),
        # Streamlet never forks (broadcast votes mean no QC is ever lost); its
        # CGR only dips through the short-window tail of blocks that have not
        # yet gathered two successors when measurement stops, so the bound is
        # loose at ci scale.
        ("Streamlet degrades gracefully: its chain growth rate stays above 0.7",
         lambda rows: _attacked(rows, "SL", "cgr") > 0.7),
        ("... and no lower than HotStuff's (to within 0.05)",
         lambda rows: _attacked(rows, "SL", "cgr") >= _attacked(rows, "HS", "cgr") - 0.05),
        ("HotStuff's block interval grows under the attack",
         lambda rows: _attacked(rows, "HS", "block_interval") > _clean(rows, "HS", "block_interval")),
    ),
)


# ----------------------------------------------------------------------
# Figure 15: responsiveness
# ----------------------------------------------------------------------
# Four replicas run under sustained load; the network fluctuates for a period
# (inter-replica delays far above the optimistic timeout), after which one
# replica crashes (a permanent silence attack).
def _responsiveness(fluctuation_start, fluctuation_duration, crash_at, total_duration):
    return {
        "base": {"runtime": total_duration},
        "points": [
            {"_series": f"{label}-{setting}", "protocol": protocol,
             "view_timeout": timeout, "propose_wait_after_tc": wait}
            # (setting, view timeout, wait after a TC before proposing).  The
            # paper's 10 ms / 100 ms settings are scaled to the simulator's
            # view duration: t-small exceeds the happy-path view but is far
            # below the fluctuation delays and leaders propose as soon as they
            # enter a view; t-large covers the worst fluctuation round trip
            # and leaders wait it out after a TC-triggered view change.
            for setting, timeout, wait in (("t-small", 0.08, 0.0), ("t-large", 0.35, 0.35))
            for label, protocol in PROTOCOLS
        ],
        "scenario": Scenario(
            name="responsiveness",
            duration=total_duration,
            events=[
                NetworkFluctuation(at=fluctuation_start, duration=fluctuation_duration,
                                   min_delay=0.06, max_delay=0.15),
                # r0 is the metrics observer, so the victim is the last replica.
                CrashReplica(at=crash_at, replica="last"),
            ],
        ),
        "bucket": 0.5,
    }


def _phase_tps(phase: str) -> Callable[[Dict[str, Any]], float]:
    """Mean Tx/s of a record's timeline over one phase of its own scenario."""

    def value(record: Dict[str, Any]) -> float:
        fluctuation, crash = record["scenario"]["events"]
        start, end = {
            "before": (0.0, fluctuation["at"]),
            "during": (fluctuation["at"], fluctuation["at"] + fluctuation["duration"]),
            "after_crash": (crash["at"], record["scenario"]["duration"]),
        }[phase]
        return timeline_mean(record["timeline"], start, end)

    return value


def _fig15_small_timeout_stalls(rows: Rows) -> bool:
    small = [rows.where(series=f"{label}-t-small")[0] for label in LABELS]
    return all(r["during_tps"] < 0.5 * r["before_tps"] for r in small if r["before_tps"] > 0)


FIG15 = Entry(
    name="fig15_responsiveness",
    title="Figure 15: throughput before / during fluctuation / after the crash",
    base=Configuration(
        num_nodes=4, block_size=100, payload_size=128, num_clients=2,
        concurrency=300, cost_profile="standard", election="hash",
        request_timeout=1.5, mempool_capacity=4000, runtime=12.0, warmup=0.0,
        cooldown=0.0, seed=41,
    ),
    ci=_responsiveness(fluctuation_start=3.0, fluctuation_duration=4.0,
                       crash_at=8.0, total_duration=12.0),
    full=_responsiveness(fluctuation_start=5.0, fluctuation_duration=10.0,
                         crash_at=16.0, total_duration=40.0),
    columns=(
        Column("series", "params._series"),
        Column("before_tps", _phase_tps("before")),
        Column("during_tps", _phase_tps("during")),
        Column("after_crash_tps", _phase_tps("after_crash")),
        Column("consistent", "consistent"),
    ),
    keys=("series",),
    figure=FigureDef(
        key="fig15", title="Fig. 15 — responsiveness timeline",
        xlabel="time (s)", ylabel="throughput (Tx/s)",
        x="time", y="throughput_tps", timeline=True,
    ),
    # The paper additionally observed that 2CHS and Streamlet never recovered
    # in the small-timeout setting because replicas ended up locked on
    # conflicting blocks; in this simulator messages are delayed but never
    # lost, so they do recover once delays normalize — docs/EXPERIMENTS.md
    # discusses the deviation.
    claims=(
        ("In the small-timeout setting the fluctuation stalls every protocol that was making "
         "progress before it (below half its earlier throughput)",
         _fig15_small_timeout_stalls),
        ("... and every protocol stays consistent through it",
         lambda rows: all(rows.at("consistent", series=f"{label}-t-small") for label in LABELS)),
        ("The responsive protocol (HotStuff) resumes after the fluctuation despite the crashed "
         "replica: clearly above the stalled fluctuation level",
         lambda rows: rows.at("after_crash_tps", series="HS-t-small")
         > 2 * rows.at("during_tps", series="HS-t-small")),
        # The crashed leader's views still cost a timeout each, which is why
        # it is not 100%.
        ("... and at a sizable fraction (over 0.15) of its pre-fault throughput",
         lambda rows: rows.at("after_crash_tps", series="HS-t-small")
         > 0.15 * rows.at("before_tps", series="HS-t-small")),
        ("The large-timeout setting keeps every protocol live after the crash, at reduced "
         "throughput",
         lambda rows: all(rows.at("after_crash_tps", series=f"{label}-t-large") > 0 for label in LABELS)),
    ),
)


# ----------------------------------------------------------------------
# Ablation: the design choices the paper's discussion calls out
# ----------------------------------------------------------------------
# Not a figure from the paper, but the knobs its discussion (§VI-E, §V-E)
# identifies as the interesting degrees of freedom: commit-rule depth, vote
# destination (next-leader unicast vs. broadcast vs. broadcast + echo), leader
# election, and the pacemaker timeout under a silent leader.
def _silent_leader(view_timeout: float) -> Dict[str, Any]:
    return {"protocol": "hotstuff", "byzantine_nodes": 1, "strategy": "silence",
            "view_timeout": view_timeout, "election": "hash", "request_timeout": 1.0}


_ABLATION_ARMS = [
    {"_arm": "commit-depth-3 (hotstuff)", "protocol": "hotstuff"},
    {"_arm": "commit-depth-2 (2chainhs)", "protocol": "2chainhs"},
    {"_arm": "votes-unicast (2chainhs)", "protocol": "2chainhs"},
    {"_arm": "votes-broadcast (lbft)", "protocol": "lbft"},
    {"_arm": "votes-broadcast+echo (streamlet)", "protocol": "streamlet"},
    {"_arm": "election-round-robin", "protocol": "hotstuff", "election": "round-robin"},
    {"_arm": "election-hash", "protocol": "hotstuff", "election": "hash"},
    {"_arm": "silent-leader timeout 50ms", **_silent_leader(0.05)},
    {"_arm": "silent-leader timeout 200ms", **_silent_leader(0.2)},
]

ABLATION = Entry(
    name="ablation_design_choices",
    title="Ablation: commit depth, vote destination, election, timeout",
    base=Configuration(
        num_nodes=4, block_size=400, payload_size=0, num_clients=2,
        concurrency=300, runtime=1.2, warmup=0.4, cooldown=0.4,
        cost_profile="standard", view_timeout=0.5, mempool_capacity=4000, seed=43,
    ),
    # The ci scale drops the redundant arms (the second 2chainhs run and the
    # two election arms).
    ci={"points": _ABLATION_ARMS[:2] + _ABLATION_ARMS[3:5] + _ABLATION_ARMS[7:]},
    full={"points": _ABLATION_ARMS},
    columns=(
        Column("arm", "params._arm"),
        Column("throughput_tps", "metrics.throughput_tps"),
        Column("latency_ms", "metrics.mean_latency", 1e3),
        Column("block_interval", "metrics.block_interval"),
        Column("cgr", "metrics.chain_growth_rate"),
    ),
    keys=("arm",),
    figure=FigureDef(
        key="ablation", title="Ablation — design choices",
        xlabel="arm", ylabel="throughput (Tx/s)",
        x="_arm", y="throughput_tps", categorical=True,
    ),
    claims=(
        ("The deeper commit rule costs latency, not throughput (three-chain HotStuff above "
         "two-chain)",
         lambda rows: rows.at("latency_ms", arm="commit-depth-3 (hotstuff)")
         > rows.at("latency_ms", arm="commit-depth-2 (2chainhs)")),
        ("Echoing (Streamlet) costs throughput compared to plain vote broadcast (LBFT)",
         lambda rows: rows.at("throughput_tps", arm="votes-broadcast+echo (streamlet)")
         < rows.at("throughput_tps", arm="votes-broadcast (lbft)") * 1.05),
        ("A shorter timeout recovers more throughput under a silent leader (50 ms at no less "
         "than 0.9x of 200 ms)",
         lambda rows: rows.at("throughput_tps", arm="silent-leader timeout 50ms")
         >= rows.at("throughput_tps", arm="silent-leader timeout 200ms") * 0.9),
    ),
)


#: The evaluation, in the paper's order.
ENTRIES: Tuple[Entry, ...] = (
    TABLE2, FIG8_MODEL, FIG8_IMPL, FIG9, FIG10, FIG11, FIG12, FIG13, FIG14, FIG15, ABLATION,
)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def select(name: str) -> List[Entry]:
    """Resolve ``all`` (every deterministic entry), a name, or a unique prefix."""
    if name == "all":
        return [entry for entry in ENTRIES if entry.deterministic]
    matches = [e for e in ENTRIES if e.name == name] or [e for e in ENTRIES if e.name.startswith(name)]
    if len(matches) != 1:
        problem = "is ambiguous" if matches else "matches no entry"
        candidates = ", ".join(e.name for e in matches or ENTRIES)
        raise PaperError(f"paper entry {name!r} {problem}; candidates: {candidates}")
    return matches


def result_stem(name: str, scale: str, reps: int) -> str:
    """The result-file stem.  Only ``ci`` scale with one repetition is the
    canonical ``<name>``: every other combination gets its own file, so no
    hand-run can clobber a committed table."""
    return name + ("_full" if scale == "full" else "") + ("_ci95" if reps > 1 else "")


@dataclass
class PaperResult:
    """One entry, run: the rows, the rendered table and the claims' verdicts."""

    entry: Entry
    scale: str
    campaign: CampaignResult
    rows: Rows
    #: The title, its underline and the fixed-width table (no trailing newline).
    table: str
    #: ``(sentence, held)`` per claim, in the entry's order.
    claims: List[Tuple[str, bool]]
    #: Where the table was written, when an ``out`` directory was given.
    path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return all(held for _sentence, held in self.claims)


def run(
    name: str = "all",
    scale: str = "ci",
    reps: int = 1,
    workers: int = 1,
    store: Optional[Union[ResultStore, str, Path]] = None,
    out: Optional[Union[str, Path]] = None,
) -> Iterator[PaperResult]:
    """Run the selected entries, yielding each result as it finishes.

    With ``reps > 1`` every point runs that many seed-incremented repetitions,
    the rows collapse to means over the entry's ``keys`` and the table gains
    ``<metric>_ci95`` columns (95% Student-t half-widths) and ``reps``.  The
    claims are evaluated at whatever scale (and over whatever means) was run.
    ``out`` names the directory the table is written under; ``None`` writes
    nothing.
    """
    for entry in select(name):
        campaign = api.campaign(entry.spec(scale, reps), workers=workers, store=store)
        rows = [{c.header: c.value(record) for c in entry.columns} for record in campaign.records]
        if reps > 1:
            rows = aggregate_rows(rows, keys=entry.keys)
        rows = Rows(rows)
        headers: List[str] = []
        for column in entry.columns:
            if column.shown:
                headers.append(column.header)
                if any(f"{column.header}_ci95" in row for row in rows):
                    headers.append(f"{column.header}_ci95")
        if reps > 1:
            headers.append("reps")
        result = PaperResult(
            entry=entry, scale=scale, campaign=campaign, rows=rows,
            table="\n".join([entry.title, "-" * len(entry.title), format_table(rows, headers)]),
            claims=[(sentence, bool(holds(rows))) for sentence, holds in entry.claims],
        )
        if out is not None:
            result.path = Path(out) / f"{result_stem(entry.name, scale, reps)}.txt"
            result.path.parent.mkdir(parents=True, exist_ok=True)
            result.path.write_text(result.table + "\n")
        yield result
