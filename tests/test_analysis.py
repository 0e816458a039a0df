"""Tests for the analysis subsystem: stats, tables and figures.

Pure-stats tests run on synthetic records; the end-to-end tests share one
real campaign (module-scoped fixture, fast config) stored on disk, and the
figure and report paths are additionally asserted to execute **zero
simulations** by poisoning the runner entry points.
"""

import json
import math

import pytest

from repro import api
from repro.analysis import (
    Column,
    FigureError,
    aggregate_rows,
    csv_table,
    figure_for_campaign,
    format_table,
    markdown_table,
    params_label,
    point_rows,
    record_row,
    render,
    render_figure,
    render_store,
    t_critical,
)
from repro.analysis.figures import _timeline_rows
from repro.experiments.paper import FIG15
from repro.bench.config import Configuration
from repro.experiments import ExperimentSpec, ResultStore, StoreError
from repro.experiments.cli import main as cli_main

FAST = dict(
    block_size=20,
    runtime=0.5,
    warmup=0.1,
    cooldown=0.1,
    concurrency=8,
    num_clients=1,
    cost_profile="fast",
    view_timeout=0.05,
    request_timeout=0.2,
)

BASE = Configuration(**FAST)


def record(campaign="camp", params=None, metrics=None, timeline=None, consistent=True):
    """A minimal synthetic campaign record."""
    return {
        "run_id": f"id-{json.dumps(params, sort_keys=True)}-{json.dumps(metrics)}",
        "campaign": campaign,
        "params": dict(params or {}),
        "metrics": dict(metrics or {}),
        "timeline": timeline or [],
        "consistent": consistent,
    }


def reps(campaign, base_params, samples, **extra_metrics):
    """Synthetic repetition records: one per sample value of throughput_tps."""
    out = []
    for i, value in enumerate(samples):
        params = dict(base_params)
        params["_repetition"] = i
        out.append(record(campaign, params,
                          {"throughput_tps": value, "latency_samples": 10, **extra_metrics}))
    return out


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
class TestAggregate:
    @staticmethod
    def collapse(samples):
        (row,) = aggregate_rows([{"k": 0, "m": v} for v in samples], keys=["k"])
        return row["m"], row["m_ci95"]

    def test_single_sample_has_degenerate_interval(self):
        assert self.collapse([42.0]) == (42.0, 0.0)

    def test_known_values(self):
        # mean 2, sample stddev 1, ci95 = t(2) * 1/sqrt(3)
        mean, ci95 = self.collapse([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert ci95 == pytest.approx(4.303 / math.sqrt(3))

    def test_identical_samples_have_zero_spread(self):
        assert self.collapse([7.5, 7.5, 7.5]) == (7.5, 0.0)

    def test_t_critical_table_and_limits(self):
        assert t_critical(1) == 12.706
        assert t_critical(30) == 2.042
        # Between rows: conservative (next-lower df); beyond the table: normal.
        assert t_critical(35) == 2.042
        assert t_critical(1000) == 1.96
        with pytest.raises(ValueError):
            t_critical(0)


class TestAggregateRecords:
    def test_repetitions_collapse_to_one_group(self):
        records = reps("camp", {"protocol": "hotstuff"}, [100.0, 110.0, 120.0])
        (row,) = point_rows(records)
        assert row["reps"] == 3
        assert (row["campaign"], row["params"], row["protocol"]) == (
            "camp", "protocol=hotstuff", "hotstuff")
        assert "_repetition" not in row
        assert row["throughput_tps"] == pytest.approx(110.0)
        assert row["throughput_tps_ci95"] > 0

    def test_groups_keep_expansion_order_and_split_on_params(self):
        records = reps("camp", {"protocol": "hotstuff"}, [1.0, 2.0]) + reps(
            "camp", {"protocol": "2chainhs"}, [3.0, 4.0]
        )
        assert [row["protocol"] for row in point_rows(records)] == ["hotstuff", "2chainhs"]

    def test_points_split_on_campaign(self):
        records = reps("a", {"p": 1}, [1.0]) + reps("b", {"p": 1}, [2.0])
        assert [row["campaign"] for row in point_rows(records)] == ["a", "b"]

    def test_non_numeric_and_bool_metrics_are_skipped(self):
        row = record_row(record(params={}, metrics={"throughput_tps": 1.0, "flag": True,
                                                    "name": "x"}))
        assert "flag" not in row and "name" not in row
        assert row["throughput_tps"] == 1.0

    def test_integer_metrics_are_averaged(self):
        records = reps("camp", {}, [1.0, 2.0], committed_transactions=3)
        records[1]["metrics"]["committed_transactions"] = 4
        (row,) = point_rows(records)
        assert row["committed_transactions"] == 3.5
        assert row["committed_tx"] == 3.5

    def test_headline_columns_show_latency_in_milliseconds(self):
        (row,) = point_rows(reps("camp", {}, [1.0, 2.0], mean_latency=0.005))
        assert row["mean_latency_ms"] == pytest.approx(5.0)
        assert row["mean_latency_ms_ci95"] == 0.0

    def test_timeline_pointwise_aggregation(self):
        a = record("fig15", params={"_series": "HS", "_repetition": 0},
                   metrics={"throughput_tps": 1.0}, timeline=[[0.0, 10.0], [0.5, 20.0]])
        b = record("fig15", params={"_series": "HS", "_repetition": 1},
                   metrics={"throughput_tps": 1.0},
                   timeline=[[0.0, 14.0], [0.5, 22.0], [1.0, 5.0]])
        rows = _timeline_rows([a, b], FIG15.figure)
        # Cut to the shortest timeline, mean per bucket, CI > 0.
        assert [(r["time"], r["throughput_tps"], r["reps"]) for r in rows] == [
            (0.0, 12.0, 2), (0.5, 21.0, 2)]
        assert rows[0]["throughput_tps_ci95"] > 0
        # A series with a repetition that kept no timeline draws nothing.
        assert _timeline_rows([a, record("fig15", {"_series": "HS"})], FIG15.figure) == []

    def test_consistency_is_anded_across_repetitions(self):
        records = reps("camp", {}, [1.0, 2.0])
        records[1]["consistent"] = False
        (row,) = point_rows(records)
        assert row["consistent"] is False

    def test_a_point_row_is_json_safe(self):
        (row,) = point_rows(reps("camp", {"p": 1}, [1.0, 2.0, 3.0]))
        assert json.loads(json.dumps(row)) == row


class TestAggregateRows:
    def test_collapses_float_columns_and_adds_ci(self):
        rows = [
            {"series": "HS", "x": 1, "tput": 10.0, "ok": True},
            {"series": "HS", "x": 1, "tput": 14.0, "ok": True},
            {"series": "HS", "x": 2, "tput": 20.0, "ok": True},
        ]
        out = aggregate_rows(rows, keys=["series", "x"])
        assert out[0]["tput"] == pytest.approx(12.0)
        assert out[0]["tput_ci95"] > 0
        assert out[0]["reps"] == 2
        assert out[0]["ok"] is True
        assert out[1]["tput"] == 20.0 and out[1]["reps"] == 1

    def test_boolean_columns_are_anded_not_first_sampled(self):
        # One inconsistent repetition must surface even when the group's
        # first row passed.
        rows = [
            {"series": "HS", "tput": 10.0, "consistent": True},
            {"series": "HS", "tput": 11.0, "consistent": False},
            {"series": "SL", "tput": 5.0, "consistent": True},
        ]
        out = aggregate_rows(rows, keys=["series"])
        assert out[0]["consistent"] is False
        assert out[1]["consistent"] is True

    def test_missing_metric_in_a_later_row_is_tolerated(self):
        # A repetition that failed to produce a metric must not crash the
        # collapse; the aggregate covers the present samples.
        out = aggregate_rows([{"k": 1, "m": 1.0}, {"k": 1}], keys=["k"])
        assert out[0]["m"] == 1.0
        assert out[0]["reps"] == 2

    def test_no_rows_make_no_groups(self):
        assert aggregate_rows([], keys=["k"]) == []
        assert point_rows([]) == []

    def test_explicit_metrics_restrict_the_averaged_columns(self):
        rows = [{"k": 1, "a": 1.0, "b": 10.0}, {"k": 1, "a": 3.0, "b": 30.0}]
        (out,) = aggregate_rows(rows, keys=["k"], metrics=["a", "absent"])
        assert out["a"] == 2.0 and out["a_ci95"] > 0
        # An unlisted column is carried from the first row, not averaged.
        assert out["b"] == 10.0 and "b_ci95" not in out
        assert "absent" not in out and "absent_ci95" not in out


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
class TestReport:
    ROWS = [{"a": 1, "b": 2.5}, {"a": None, "b": 0.0}]

    def test_text_table_is_aligned(self):
        table = format_table(self.ROWS, ["a", "b"])
        assert table.splitlines()[0].startswith("a")
        assert "2.50" in table and "-" in table

    def test_markdown_table(self):
        table = markdown_table(self.ROWS, ["a", "b"])
        assert table.splitlines()[1] == "| --- | --- |"
        assert "| 2.50 |" in table

    def test_csv_keeps_raw_values(self):
        table = csv_table(self.ROWS, ["a", "b"])
        assert table.splitlines()[1] == "1,2.5"

    def test_render_dispatches_on_format_and_rejects_unknown_ones(self):
        assert render(self.ROWS, ["a", "b"]) == format_table(self.ROWS, ["a", "b"])
        assert render(self.ROWS, ["a", "b"], "markdown") == markdown_table(self.ROWS, ["a", "b"])
        assert render(self.ROWS, ["a", "b"], "csv") == csv_table(self.ROWS, ["a", "b"])
        with pytest.raises(ValueError, match="unknown table format 'html'"):
            render(self.ROWS, ["a", "b"], "html")

    def test_column_follows_a_path_scales_it_or_derives_it(self):
        rec = {"metrics": {"mean_latency": 0.004, "committed": 6, "elapsed": 2.0}}
        assert Column("lat_ms", "metrics.mean_latency", 1e3).value(rec) == pytest.approx(4.0)
        assert Column("tx", "metrics.committed").value(rec) == 6
        rate = Column("rate", lambda r: r["metrics"]["committed"] / r["metrics"]["elapsed"])
        assert rate.value(rec) == 3.0
        with pytest.raises(KeyError):
            Column("missing", "metrics.nope").value(rec)

    def test_params_label_names_a_point(self):
        assert params_label({}) == "-"
        assert params_label({"protocol": "hotstuff", "_series": "HS"}) == (
            "protocol=hotstuff series=HS")


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
def scalability_records(repetitions=3):
    records = []
    for protocol, base in (("hotstuff", 100.0), ("2chainhs", 130.0)):
        for nodes in (4, 8):
            for rep in range(repetitions):
                records.append(record(
                    "fig12_smoke",
                    {"protocol": protocol, "num_nodes": nodes, "_repetition": rep},
                    {"throughput_tps": base / nodes * 4 + rep, "mean_latency": 0.005},
                ))
    return records


class TestFigures:
    def test_campaign_prefix_resolution(self):
        assert figure_for_campaign("fig9_block_sizes").key == "fig9"
        assert figure_for_campaign("table2_arrival_vs_throughput").key == "table2"
        assert figure_for_campaign("unrelated") is None

    def test_renders_svg_with_series_and_error_bars(self):
        svg = render_figure(scalability_records())
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        # One polyline per protocol, markers, and CI whisker lines.
        assert svg.count("<polyline") == 2
        assert "hotstuff" in svg and "2chainhs" in svg
        assert "<circle" in svg
        # 4 groups with n=3 each: error bars present (3 lines per whisker).
        assert svg.count("<line") > 12

    def test_single_repetition_has_no_error_bars(self):
        def colored_lines(svg):
            return sum(1 for line in svg.splitlines()
                       if "<line" in line and "#0072B2" in line)

        # Degenerate CIs draw no whiskers: the only colored <line> left for
        # the first series is its legend swatch.
        assert colored_lines(render_figure(scalability_records(repetitions=1))) == 1
        assert colored_lines(render_figure(scalability_records(repetitions=3))) > 1

    def test_metric_vs_metric_curves(self):
        records = []
        for i, conc in enumerate((8, 16, 32)):
            records.append(record(
                "fig9_smoke", {"_series": "HS-b20", "concurrency": conc},
                {"throughput_tps": 100.0 * (i + 1), "mean_latency": 0.004 + 0.001 * i},
            ))
        svg = render_figure(records)
        assert "HS-b20" in svg and "<polyline" in svg

    def test_timeline_figure(self):
        records = [
            record("fig15_smoke", {"_series": "HS-t-small", "_repetition": rep},
                   {"throughput_tps": 50.0},
                   timeline=[[0.5 * i, 100.0 + rep + i] for i in range(10)])
            for rep in range(2)
        ]
        svg = render_figure(records)
        assert "time (s)" in svg and "<polyline" in svg

    def test_unplottable_records_raise(self):
        with pytest.raises(FigureError):
            render_figure([record("fig12_x", {"protocol": "hs"}, {"other": 1.0})])
        with pytest.raises(FigureError):
            render_figure([])

    def test_generic_fallback_for_unknown_campaign(self):
        svg = render_figure([record("custom", {"p": "a"}, {"throughput_tps": 10.0}),
                             record("custom", {"p": "b"}, {"throughput_tps": 12.0})])
        assert svg.startswith("<svg ")

    def test_render_store_writes_one_svg_per_campaign(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for rec in scalability_records():
            store.add(rec)
        store.add(record("table2_smoke", {"arrival_rate": 100.0},
                         {"throughput_tps": 99.0}))
        drawn = render_store(store, tmp_path / "figs")
        assert [(d.path.name, d.campaign, d.figure, d.records) for d in drawn] == [
            ("fig12_smoke.svg", "fig12_smoke", "fig12", len(scalability_records())),
            ("table2_smoke.svg", "table2_smoke", "table2", 1),
        ]
        for d in drawn:
            assert d.path.stat().st_size > 500

    def test_render_store_rejects_unknown_campaign(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.add(record("camp", {}, {"throughput_tps": 1.0}))
        with pytest.raises(FigureError, match="not in store"):
            render_store(store, tmp_path / "figs", campaigns=["nope"])


class TestMultiPanelFigures:
    """Figures 13/14 render one panel per attack metric, composed as a
    grid of nested ``<svg>`` cells."""

    def attack_records(self, campaign="fig13", metrics=None):
        out = []
        for byz in (0, 1, 2):
            for protocol in ("hotstuff", "streamlet"):
                shape = metrics or {
                    "throughput_tps": 1000.0 - 250.0 * byz,
                    "mean_latency": 0.008 + 0.003 * byz,
                    "chain_growth_rate": 18.0 - 4.0 * byz,
                    "block_interval": 0.05 + 0.02 * byz,
                }
                out.append(record(
                    campaign,
                    {"byzantine_nodes": byz, "protocol": protocol},
                    dict(shape),
                ))
        return out

    def test_fig13_and_fig14_render_all_four_metrics(self):
        for campaign in ("fig13_forking", "fig14_silence"):
            svg = render_figure(self.attack_records(campaign))
            # The outer document plus one nested <svg> per panel.
            assert svg.count("<svg ") == 5
            for label in ("throughput (Tx/s)", "mean latency (ms)",
                          "chain growth rate (blocks/s)", "block interval (s)"):
                assert label in svg
            assert svg.rstrip().endswith("</svg>")

    def test_missing_metric_drops_only_its_panel(self):
        records = self.attack_records(metrics={
            "throughput_tps": 500.0, "mean_latency": 0.01,
            "chain_growth_rate": 10.0,
        })
        svg = render_figure(records)
        assert svg.count("<svg ") == 4
        assert "block interval" not in svg

    def test_all_panels_missing_raises(self):
        records = self.attack_records(metrics={"unrelated": 1.0})
        with pytest.raises(FigureError):
            render_figure(records)

    def test_compose_grid_places_cells_and_sizes_the_document(self):
        from repro.analysis import compose_grid

        cell = ('<svg xmlns="http://www.w3.org/2000/svg" width="100" '
                'height="80" viewBox="0 0 100 80"></svg>')
        svg = compose_grid([cell] * 3, title="grid", columns=2)
        # 2 columns wide, 2 rows tall, plus the 36px title banner.
        assert 'width="200"' in svg and 'height="196"' in svg
        assert '<svg x="100" y="36"' in svg and '<svg x="0" y="116"' in svg
        with pytest.raises(FigureError):
            compose_grid([])


# ----------------------------------------------------------------------
# end to end: one real stored campaign, shared across the CLI tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stored_campaign(tmp_path_factory):
    """A real 2-protocol × 3-repetition campaign persisted to a store."""
    root = tmp_path_factory.mktemp("analysis-store")
    spec = ExperimentSpec(
        name="fig12_ci_smoke",
        base=BASE,
        # num_nodes rides along as a (single-value) axis so the records
        # carry the fig12 x param.
        grid={"protocol": ["hotstuff", "2chainhs"], "num_nodes": [4]},
        repetitions=3,
    )
    result = api.campaign(spec, store=ResultStore(root))
    assert result.executed == 6
    return root, spec


@pytest.fixture()
def no_simulations(monkeypatch):
    """Poison every simulation entry point: analysis must never execute one."""
    def boom(*_args, **_kwargs):
        raise AssertionError("analysis executed a simulation")

    monkeypatch.setattr("repro.bench.runner.run_experiment", boom)
    monkeypatch.setattr("repro.experiments.runner.execute_payload", boom)
    monkeypatch.setattr("repro.bench.runner.run_cluster", boom)


class TestRepetitionStatistics:
    """Repetitions, asserted end-to-end through aggregation."""

    def test_repetitions_produce_distinct_samples(self):
        spec = ExperimentSpec(name="inc", base=BASE, repetitions=3)
        result = api.campaign(spec)
        seeds = [r["config"]["seed"] for r in result.records]
        assert len(set(seeds)) == 3
        (row,) = api.aggregate(result)
        assert row["reps"] == 3
        # Independent seeds: the samples differ, so there is real spread.
        assert row["throughput_tps_ci95"] > 0


class TestFacade:
    def test_aggregate_accepts_store_path_and_campaign_filter(self, stored_campaign):
        root, _spec = stored_campaign
        rows = api.aggregate(str(root), campaign="fig12_ci_smoke")
        assert [row["protocol"] for row in rows] == ["hotstuff", "2chainhs"]
        assert all(row["reps"] == 3 for row in rows)
        assert api.aggregate(str(root), campaign="other") == []

    def test_plot_is_pure_record_replay(self, stored_campaign, tmp_path,
                                        no_simulations):
        root, _spec = stored_campaign
        (drawn,) = api.plot(str(root), out=tmp_path / "figs")
        assert (drawn.path.name, drawn.campaign, drawn.figure) == (
            "fig12_ci_smoke.svg", "fig12_ci_smoke", "fig12")
        svg = drawn.path.read_text()
        assert "hotstuff" in svg and "2chainhs" in svg

    def test_a_missing_store_is_an_error_not_an_empty_one(self, tmp_path):
        typo = tmp_path / "typo"
        with pytest.raises(StoreError, match="no such result store"):
            api.aggregate(str(typo))
        with pytest.raises(StoreError, match="no such result store"):
            api.plot(typo, out=tmp_path / "figs")
        assert not typo.exists() and not (tmp_path / "figs").exists()

    def test_aggregate_is_pure_record_replay(self, stored_campaign, no_simulations):
        root, _spec = stored_campaign
        rows = api.aggregate(str(root))
        assert all(row["throughput_tps_ci95"] > 0 for row in rows)


class TestCli:
    def test_report_text_markdown_csv(self, stored_campaign, capsys):
        root, _spec = stored_campaign
        assert cli_main(["report", "-s", str(root)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == [
            "campaign", "params",
            "throughput_tps", "throughput_tps_ci95", "mean_latency_ms", "mean_latency_ms_ci95",
            "p99_latency_ms", "p99_latency_ms_ci95", "cgr", "cgr_ci95",
            "block_interval", "block_interval_ci95", "committed_tx", "committed_tx_ci95", "reps",
        ]
        assert len(lines) == 2 and "protocol=hotstuff" in lines[0]
        assert all(line.split()[-1] == "3" for line in lines)
        assert cli_main(["report", "-s", str(root), "-f", "markdown"]) == 0
        assert "| ---" in capsys.readouterr().out
        assert cli_main(["report", "-s", str(root), "-f", "csv"]) == 0
        assert "throughput_tps_ci95" in capsys.readouterr().out

    def test_report_metrics_and_json(self, stored_campaign, capsys):
        root, _spec = stored_campaign
        assert cli_main(["report", "-s", str(root), "-m", "throughput_tps",
                         "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [sorted(row) for row in rows] == [
            ["campaign", "params", "reps", "throughput_tps", "throughput_tps_ci95"]] * 2
        assert rows == [
            {c: row[c] for c in rows[0]} for row in api.aggregate(str(root))]

    def test_plot_writes_svg_and_reports_zero_executions(
        self, stored_campaign, tmp_path, no_simulations, capsys
    ):
        root, _spec = stored_campaign
        out = tmp_path / "figures"
        assert cli_main(["plot", "-s", str(root), "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "0 simulations executed" in printed
        svg = (out / "fig12_ci_smoke.svg").read_text()
        assert svg.startswith("<svg ") and len(svg) > 500

    def test_plot_custom_axes(self, stored_campaign, tmp_path, capsys):
        root, _spec = stored_campaign
        out = tmp_path / "figs"
        assert cli_main(["plot", "-s", str(root), "-o", str(out),
                         "--x", "protocol", "--y", "throughput_tps"]) == 1
        # protocol is a string param: not plottable as numeric x.
        assert "no plottable groups" in capsys.readouterr().err

    def test_report_missing_store_errors(self, tmp_path, capsys):
        assert cli_main(["report", "-s", str(tmp_path / "missing")]) == 1
        assert "error: no such result store" in capsys.readouterr().err

    def test_plot_of_a_trace_only_figure_is_an_unknown_figure(self, stored_campaign,
                                                               tmp_path, capsys):
        root, _spec = stored_campaign
        out = tmp_path / "figs"
        assert cli_main(["plot", "-s", str(root), "-o", str(out),
                         "--figure", "view_timeline"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: unknown figure 'view_timeline'; known: ")
        assert not out.exists()
