"""The paper's evaluation as data: the table, its engine, and the claims.

Structural tests run no simulation; the ``slow`` ones regenerate every
deterministic ci-scale table in memory and compare it, byte for byte, with
the committed ``benchmarks/results/<name>.txt`` — and check every claim of
the paper against it.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.analysis import figure_for_campaign
from repro.experiments import paper
from repro.experiments.cli import main

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
GOLDEN = json.loads((Path(__file__).parent / "golden" / "paper_run_ids.json").read_text())

DETERMINISTIC = [entry.name for entry in paper.ENTRIES if entry.deterministic]


def synthetic_record(run):
    """What a campaign record of this expanded run would look like."""
    record = {
        "params": run.params,
        "config": run.config.to_dict(),
        "metrics": {"throughput_tps": 100.0, "mean_latency": 0.05,
                    "chain_growth_rate": 1.0, "block_interval": 3.0},
        "consistent": True,
        "timeline": [[t * run.bucket, 100.0] for t in range(100)],
    }
    if run.scenario is not None:
        record["scenario"] = run.scenario.to_dict()
    return record


class TestTable:
    def test_names_are_unique_and_match_a_committed_table(self):
        names = [entry.name for entry in paper.ENTRIES]
        assert len(set(names)) == len(names) == 11
        assert sorted(names) == sorted(p.stem for p in RESULTS.glob("*.txt"))
        assert DETERMINISTIC == [n for n in names if n != "fig8_impl"]

    def test_titles_are_distinct(self):
        titles = [entry.title for entry in paper.ENTRIES]
        assert len(set(titles)) == len(titles)

    @pytest.mark.parametrize("golden", GOLDEN, ids=lambda g: f"{g['name']}-{g['scale']}")
    def test_expansion_matches_the_captured_run_ids(self, golden):
        """Same content hashes, same tags, same order as ``paper_run_ids.json``
        (``python tests/test_paper.py`` prints it): a change to an entry's
        configurations or scenario, or to what ``run_key`` hashes, shows here.

        A run id hashed ``config.to_dict()`` until it came to hash
        ``config.overrides()``, the fields that differ from their defaults
        (``tests/golden/config_defaults.json`` pins the defaults).  Every id
        moved then, as it had when four block-fetch switches left
        ``Configuration``; the document was re-captured each time, and a
        result store written before re-runs its points instead of resuming
        them.  A field every run leaves at its default no longer moves an
        id."""
        (entry,) = paper.select(golden["name"])
        spec = entry.spec(golden["scale"])
        assert spec.name == golden["name"]
        assert spec.bucket == golden["bucket"]
        assert [[run.run_id, run.params] for run in spec.expand()] == golden["runs"]
        assert len(entry.spec(golden["scale"], reps=3).expand()) == golden["reps3_length"]

    def test_the_golden_covers_every_entry_at_both_scales(self):
        assert sorted((g["name"], g["scale"]) for g in GOLDEN) == sorted(
            (entry.name, scale) for entry in paper.ENTRIES for scale in paper.SCALES
        )

    @pytest.mark.parametrize("entry", paper.ENTRIES, ids=lambda e: e.name)
    @pytest.mark.parametrize("scale", paper.SCALES)
    def test_columns_keys_and_claims_are_well_formed(self, entry, scale):
        run = entry.spec(scale).expand()[0]
        record = synthetic_record(run)
        row = {column.header: column.value(record) for column in entry.columns}
        headers = [column.header for column in entry.columns]
        assert len(set(headers)) == len(headers)
        assert all(value is not None for value in row.values())
        assert set(entry.keys) <= set(headers)
        assert entry.claims
        for sentence, holds in entry.claims:
            assert isinstance(sentence, str) and sentence
            assert callable(holds)

    def test_unknown_scale_is_rejected(self):
        with pytest.raises(paper.PaperError, match="unknown scale"):
            paper.TABLE2.spec("huge")

    def test_fig15_scenario_is_the_two_event_schedule(self):
        """The windows the three throughput columns average over come from
        the scenario the record carries."""
        run = paper.FIG15.spec("full").expand()[0]
        assert run.scenario.name == "responsiveness"
        assert [e.kind for e in run.scenario.events] == ["network-fluctuation", "crash-replica"]
        assert run.config.runtime == run.scenario.duration == 40.0
        record = synthetic_record(run)
        # 0.5 s buckets of 100 Tx/s, zeroed during the fluctuation (5 s - 15 s).
        record["timeline"] = [[t, 0.0 if 5.0 <= t < 15.0 else 100.0] for t in
                              (i * 0.5 for i in range(80))]
        row = {c.header: c.value(record) for c in paper.FIG15.columns}
        assert (row["before_tps"], row["during_tps"], row["after_crash_tps"]) == (100.0, 0.0, 100.0)

    def test_every_entry_plots_as_its_own_figure(self):
        for entry in paper.ENTRIES:
            assert figure_for_campaign(entry.name) is entry.figure
        # Prefix resolution: campaigns named after a figure get its axes.
        assert figure_for_campaign("fig12_plot_smoke") is paper.FIG12.figure
        assert figure_for_campaign("fig8_deploy") is paper.FIG8_IMPL.figure
        assert paper.FIG8_IMPL.figure is paper.FIG8_MODEL.figure

    def test_no_registry_was_added_for_paper_entries(self):
        assert len(api.available()) == 7


class TestRows:
    ROWS = paper.Rows([
        {"series": "A", "load": 8, "tput": 100.0, "lat": 9.0},
        {"series": "A", "load": 2, "tput": 300.0, "lat": 5.0},
        {"series": "B", "load": 2, "tput": 50.0, "lat": 7.0},
    ])

    def test_lookups(self):
        assert self.ROWS.max("tput", series="A") == 300.0
        assert self.ROWS.at("lat", series="B", load=2) == 7.0
        assert self.ROWS.curve("lat", by="load", series="A") == [5.0, 9.0]
        assert len(self.ROWS.where(load=2)) == 2

    def test_a_label_that_matches_no_row_is_an_error_not_a_zero(self):
        with pytest.raises(ValueError):
            self.ROWS.max("tput", series="C")
        with pytest.raises(ValueError):
            self.ROWS.at("tput", series="A")  # two rows: not a point


class TestSelect:
    def test_all_is_every_deterministic_entry(self):
        assert [e.name for e in paper.select("all")] == DETERMINISTIC

    def test_exact_name_and_unique_prefix(self):
        assert paper.select("fig8_impl") == [paper.FIG8_IMPL]
        assert paper.select("fig9") == [paper.FIG9]
        assert paper.select("table2") == [paper.TABLE2]

    def test_unknown_name_lists_every_candidate(self):
        with pytest.raises(SystemExit, match="matches no entry.*table2_arrival_vs_throughput"):
            main(["paper", "fig99"])

    def test_ambiguous_prefix_lists_the_matches(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["paper", "fig8"])
        message = str(excinfo.value)
        assert "ambiguous" in message
        assert "fig8_model_vs_implementation, fig8_impl" in message
        assert "fig9" not in message


class TestResultFiles:
    def test_only_ci_scale_single_repetition_is_canonical(self):
        assert paper.result_stem("fig9_block_sizes", "ci", 1) == "fig9_block_sizes"
        assert paper.result_stem("fig9_block_sizes", "full", 1) == "fig9_block_sizes_full"
        assert paper.result_stem("fig9_block_sizes", "ci", 3) == "fig9_block_sizes_ci95"
        assert paper.result_stem("fig9_block_sizes", "full", 3) == "fig9_block_sizes_full_ci95"

    def test_repetitions_write_ci95_columns_beside_the_canonical_table(self, tmp_path, capsys):
        assert main(["paper", "table2", "--reps", "2", "-w", "2", "-o", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["table2_arrival_vs_throughput_ci95.txt"]
        title, rule, header, *rows = (tmp_path / "table2_arrival_vs_throughput_ci95.txt") \
            .read_text().splitlines()
        assert title == paper.TABLE2.title and rule == "-" * len(title)
        assert header.split() == [
            "arrival_rate_tps", "throughput_tps", "throughput_tps_ci95", "ratio", "ratio_ci95",
            "mean_latency_ms", "mean_latency_ms_ci95", "reps",
        ]
        assert len(rows) == 4 and all(row.split()[-1] == "2" for row in rows)
        out = capsys.readouterr().out
        assert "8 runs (8 executed, 0 already stored)" in out
        assert "ok: " in out and "FAILED" not in out

    def test_report_prints_the_ci95_tables_means_and_intervals(self, tmp_path, capsys):
        """``report`` over the records ``paper --reps N`` stored prints, for
        every point, the throughput and CI of the entry's ``_ci95`` table:
        both go through the one aggregation."""
        store, out = str(tmp_path / "store"), tmp_path / "out"
        assert main(["paper", "table2", "--reps", "2", "-s", store, "-o", str(out)]) == 0
        _title, _rule, *table = (out / "table2_arrival_vs_throughput_ci95.txt") \
            .read_text().splitlines()
        capsys.readouterr()
        assert main(["report", "-s", store]) == 0
        report = capsys.readouterr().out.splitlines()

        def rows(lines):
            header, *cells = [line.split() for line in lines]
            return [dict(zip(header, row)) for row in cells]

        points = list(zip(rows(table), rows(report), strict=True))
        assert len(points) == 4
        for printed, reported in points:
            assert reported["params"] == f"arrival_rate={float(printed['arrival_rate_tps'])}"
            assert (reported["throughput_tps"], reported["throughput_tps_ci95"], reported["reps"]) \
                == (printed["throughput_tps"], printed["throughput_tps_ci95"], "2")

    def test_a_store_makes_the_second_run_free(self, tmp_path, capsys):
        args = ["paper", "table2", "-s", str(tmp_path / "store"), "-o", str(tmp_path / "out")]
        assert main(args) == 0
        first = (tmp_path / "out" / "table2_arrival_vs_throughput.txt").read_bytes()
        assert "(4 executed, 0 already stored)" in capsys.readouterr().out
        assert main(args) == 0
        assert "(0 executed, 4 already stored)" in capsys.readouterr().out
        assert (tmp_path / "out" / "table2_arrival_vs_throughput.txt").read_bytes() == first
        assert first == (RESULTS / "table2_arrival_vs_throughput.txt").read_bytes()


class TestClaims:
    def test_a_failing_claim_fails_the_command_and_names_itself(self, tmp_path, capsys, monkeypatch):
        sentence = "Throughput exceeds the speed of light"
        broken = dataclasses.replace(
            paper.TABLE2, claims=paper.TABLE2.claims + ((sentence, lambda rows: False),)
        )
        monkeypatch.setattr(paper, "ENTRIES", (broken,))
        assert main(["paper", "table2", "-o", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert f"FAILED: {sentence}" in captured.out
        assert f"ok: {paper.TABLE2.claims[0][0]}" in captured.out
        assert "1 claim(s) FAILED" in captured.err
        # The table is still written: the numbers are what they are.
        assert (tmp_path / "table2_arrival_vs_throughput.txt").exists()

    @pytest.mark.slow
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_committed_table_regenerates_byte_for_byte_and_its_claims_hold(self, name):
        before = sorted(p.name for p in RESULTS.iterdir())
        (result,) = api.paper(name)
        assert result.path is None and sorted(p.name for p in RESULTS.iterdir()) == before
        assert result.table + "\n" == (RESULTS / f"{name}.txt").read_text()
        assert [sentence for sentence, held in result.claims if not held] == []
        assert result.ok


def test_importing_the_facade_loads_no_subsystem_it_does_not_use():
    """``import repro.api`` is paid by every CLI call, campaign worker and
    benchmark child: the analytical model, the paper table and the deploy
    runtime (asyncio) load only when used."""
    code = (
        "import sys, repro.api; "
        "print([m for m in ('repro.model', 'repro.experiments.paper', 'asyncio') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src")}, check=True,
    )
    assert done.stdout.strip() == "[]"


def capture() -> str:
    """``paper_run_ids.json``: each entry's expansion at both scales, by name."""
    entries = []
    for entry in sorted(paper.ENTRIES, key=lambda e: e.name):
        for scale in paper.SCALES:
            spec = entry.spec(scale)
            head = json.dumps({
                "name": entry.name, "scale": scale, "bucket": spec.bucket,
                "reps3_length": len(entry.spec(scale, reps=3).expand()),
            })
            runs = ",\n".join(
                f"   {json.dumps([run.run_id, run.params])}" for run in spec.expand()
            )
            entries.append(f' {head[:-1]}, "runs": [\n{runs}\n  ]}}')
    return "[\n" + ",\n".join(entries) + "\n]"


if __name__ == "__main__":
    print(capture())
