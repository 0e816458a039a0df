"""Tests for the observability subsystem: tracing, export, CLI.

Pins the properties the subsystem is built around: the disabled path is a
true no-op (same RunMetrics with tracing on or off), the JSONL dump is
byte-deterministic for a given seed and pinned across commits
(``tests/golden/trace_records.json``; ``python tests/test_obs.py`` prints
it), ring-buffer wraparound degrades gracefully, malformed traces and unknown
category bits are rejected loudly, and every consumer (Perfetto export, SVG
timeline, fuzz violation bundling, the ``trace`` CLI) round-trips through the
same records.  The campaign progress reporter is tested here too.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro import api
from repro.analysis.figures import FigureError, render_view_timeline
from repro.bench.config import Configuration
from repro.bench.runner import build_cluster, run_experiment
from repro.experiments import CampaignProgress
from repro.experiments.cli import main
from repro.obs import (
    CATEGORY_BITS,
    TraceRecord,
    Tracer,
    category_mask,
    tracing,
    write_trace,
)
from repro.obs import trace as obs_trace
from repro.obs.export import (
    TraceFormatError,
    jsonl_lines,
    parse_jsonl,
    summarize,
    to_chrome_trace,
    to_text,
    validate_jsonl,
    view_spans,
    write_jsonl,
)
from repro.scenario import Scenario
from repro.scenario.events import CrashReplica, RecoverReplica


ROOT = Path(__file__).resolve().parent.parent
TRACE_GOLDEN = Path(__file__).parent / "golden" / "trace_records.json"
TRACE_SMOKE = ROOT / "examples" / "trace_smoke.json"
#: The pinned traces: the trace-smoke example and one fault-free run per protocol.
PINNED = ("trace_smoke", "hotstuff", "2chainhs", "streamlet", "fasthotstuff", "lbft")


def small_config(**overrides):
    params = dict(
        protocol="hotstuff",
        num_nodes=4,
        block_size=20,
        mempool_capacity=200,
        concurrency=8,
        num_clients=2,
        view_timeout=0.05,
        runtime=0.6,
        warmup=0.1,
        cooldown=0.2,
        cost_profile="fast",
        seed=11,
    )
    params.update(overrides)
    return Configuration(**params)


def crash_scenario():
    return Scenario(
        name="crash-recover",
        events=[CrashReplica(at=0.3, replica="last"),
                RecoverReplica(at=0.6, replica="last")],
    )


def trace_fingerprint(traced) -> dict:
    """Record count, count per ``category/kind`` and the JSONL file's sha256."""
    records = traced.records()
    kinds = Counter(f"{r.category}/{r.kind}" for r in records)
    text = "\n".join(jsonl_lines(records)) + "\n"
    return {
        "records": len(records),
        "kinds": dict(sorted(kinds.items())),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def traced_run(name: str):
    """The :data:`PINNED` run ``name``, traced."""
    if name == "trace_smoke":
        smoke = api.read_json(TRACE_SMOKE)
        return api.trace(api.load_config(smoke), smoke["scenario"])
    return api.trace(small_config(protocol=name, runtime=0.4))


def capture() -> dict:
    return {name: trace_fingerprint(traced_run(name)) for name in PINNED}


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_by_default(self):
        assert obs_trace.ACTIVE is None
        cluster = build_cluster(small_config())
        # One stream shared by everything that announces; untraced, only the
        # collector listens, so no per-message category is wanted.
        events = cluster.events
        assert cluster.network.events is events
        for replica in cluster.replicas.values():
            assert replica.events is events and replica.pacemaker.events is events
        for client in cluster.clients:
            assert client.events is events
        assert events.wants == cluster.metrics.mask
        per_message = (obs_trace.VIEW | obs_trace.PROPOSAL | obs_trace.VOTE
                       | obs_trace.QC | obs_trace.TIMEOUT | obs_trace.NET)
        assert not events.wants & per_message

    def test_emit_and_merge_order(self):
        tracer = Tracer()
        tracer.emit(0.2, "r1", obs_trace.VOTE, "vote", 2)
        tracer.emit(0.1, "r0", obs_trace.VIEW, "enter", 1)
        records = tracer.records()
        # Emission (seq) order, not timestamp order: deterministic merges.
        assert [r.replica for r in records] == ["r1", "r0"]
        assert records[0] == TraceRecord(0.2, "r1", "vote", "vote", 2, None)
        assert len(tracer) == 2

    def test_category_filter_drops_before_buffering(self):
        tracer = Tracer(categories=("view",))
        tracer.emit(0.0, "r0", obs_trace.VIEW, "enter", 1)
        tracer.emit(0.0, "r0", obs_trace.VOTE, "vote", 1)
        assert [r.category for r in tracer.records()] == ["view"]
        assert tracer.records_emitted == 1

    def test_ring_wraparound_keeps_newest(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit(float(i), "r0", obs_trace.COMMIT, "commit", i)
        records = tracer.records()
        assert len(records) == 4
        assert [r.view for r in records] == [6, 7, 8, 9]
        assert tracer.records_evicted == 6

    def test_unknown_category_bits_rejected(self):
        with pytest.raises(ValueError):
            Tracer(categories=1 << 30)
        with pytest.raises(ValueError):
            Tracer(categories="nonesuch")
        with pytest.raises(ValueError):
            category_mask(0)
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.emit(0.0, "r0", 1 << 30, "bad", 0)
        with pytest.raises(ValueError):
            # Multi-bit "category": a record belongs to exactly one.
            tracer.emit(0.0, "r0", obs_trace.VIEW | obs_trace.VOTE, "bad", 0)

    def test_tracing_context_restores_previous(self):
        assert obs_trace.ACTIVE is None
        with tracing() as outer:
            assert obs_trace.ACTIVE is outer
            with tracing() as inner:
                assert obs_trace.ACTIVE is inner
            assert obs_trace.ACTIVE is outer
        assert obs_trace.ACTIVE is None


# ----------------------------------------------------------------------
# semantics: tracing must not change the run
# ----------------------------------------------------------------------
class TestNoPerturbation:
    def test_traced_and_untraced_metrics_identical(self):
        config = small_config()
        untraced = run_experiment(config)
        with tracing() as tracer:
            traced = run_experiment(config)
        assert traced.metrics.to_dict() == untraced.metrics.to_dict()
        assert traced.highest_view == untraced.highest_view
        assert len(tracer.records()) > 0

    def test_traced_scenario_metrics_identical(self):
        config = small_config()
        untraced = run_experiment(config, crash_scenario())
        with tracing():
            traced = run_experiment(config, crash_scenario())
        assert traced.metrics.to_dict() == untraced.metrics.to_dict()

    def test_same_seed_jsonl_is_byte_identical(self):
        config = small_config()
        with tracing() as first:
            run_experiment(config)
        with tracing() as second:
            run_experiment(config)
        assert jsonl_lines(first.records()) == jsonl_lines(second.records())


# ----------------------------------------------------------------------
# instrumentation coverage
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_plain_run_covers_protocol_categories(self):
        with tracing() as tracer:
            run_experiment(small_config())
        categories = summarize(tracer.records())["categories"]
        for expected in ("view", "proposal", "vote", "qc", "commit", "client"):
            assert categories.get(expected, 0) > 0, expected

    def test_crash_scenario_emits_fault_and_net_records(self):
        with tracing() as tracer:
            run_experiment(small_config(), crash_scenario())
        records = tracer.records()
        faults = [r for r in records if r.category == "fault"]
        assert [f.kind for f in faults] == ["crash-replica", "recover-replica"]
        # Fault records land on the resolved replica's lane, not on a phantom
        # lane named after the scenario's "last" alias.
        assert faults[0].replica == "r3"
        assert {r.replica for r in records} == {"c0", "c1", "r0", "r1", "r2", "r3"}
        assert any(r.category == "timeout" for r in records)
        assert any(r.category == "net" for r in records)

    def test_checkpoint_records_emitted(self):
        config = small_config(checkpoint_interval=5, runtime=0.8)
        with tracing() as tracer:
            run_experiment(config)
        kinds = {r.kind for r in tracer.records() if r.category == "checkpoint"}
        assert "checkpoint" in kinds


# ----------------------------------------------------------------------
# export formats
# ----------------------------------------------------------------------
class TestExport:
    def _records(self):
        with tracing() as tracer:
            run_experiment(small_config(runtime=0.4))
        return tracer.records()

    def test_jsonl_round_trip(self, tmp_path):
        records = self._records()
        path = write_jsonl(records, tmp_path / "t.jsonl")
        header, parsed = validate_jsonl(path)
        assert header["records"] == len(records) == len(parsed)
        assert parsed == records

    def test_empty_trace_exports(self, tmp_path):
        path = write_jsonl([], tmp_path / "empty.jsonl")
        header, parsed = validate_jsonl(path)
        assert header["records"] == 0 and parsed == []
        doc = to_chrome_trace([])
        assert doc["traceEvents"] == []
        assert to_text([]) == ""
        assert view_spans([]) == {}
        with pytest.raises(FigureError):
            render_view_timeline([])

    def test_parse_rejects_malformed(self, tmp_path):
        with pytest.raises(TraceFormatError):
            parse_jsonl("")
        with pytest.raises(TraceFormatError):
            parse_jsonl('{"not_a_header": 1}')
        with pytest.raises(TraceFormatError):
            parse_jsonl('{"repro_trace": 999, "records": 0}')
        header = '{"repro_trace": 1, "records": 1}'
        with pytest.raises(TraceFormatError):
            parse_jsonl(header + "\n[0.0]")
        with pytest.raises(TraceFormatError):
            # Unknown category name.
            parse_jsonl(header + '\n[0.0,"r0","warp","x",0,null]')
        with pytest.raises(TraceFormatError):
            # Declared count mismatch.
            parse_jsonl('{"repro_trace": 1, "records": 5}'
                        '\n[0.0,"r0","view","enter",0,null]')

    def test_chrome_trace_is_perfetto_loadable_shape(self):
        records = self._records()
        doc = to_chrome_trace(records)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events, "no events exported"
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        for event in events:
            assert isinstance(event["pid"], int)
            assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert event["dur"] > 0
            if event["ph"] == "i":
                assert event["s"] in ("t", "g", "p")
        # Every replica has a process-name metadata record.
        named = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {r.replica for r in records} == named
        # The whole document is valid JSON.
        json.loads(json.dumps(doc))

    def test_view_spans_well_formed_after_wraparound(self):
        with tracing(capacity=64) as tracer:
            run_experiment(small_config(runtime=0.5))
        spans = view_spans(tracer.records())
        assert spans
        for replica_spans in spans.values():
            for span in replica_spans:
                assert span["end"] >= span["start"]
                assert span["outcome"] in ("committed", "timeout", "idle")

    def test_text_timeline_one_line_per_record(self):
        records = self._records()
        assert len(to_text(records).splitlines()) == len(records)

    def test_svg_timeline_renders(self):
        with tracing() as tracer:
            run_experiment(small_config(), crash_scenario())
        svg = render_view_timeline(tracer.records())
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "#009E73" in svg  # at least one committed view lane
        assert "crash-replica" in svg  # fault rule is labelled


# ----------------------------------------------------------------------
# export formats
# ----------------------------------------------------------------------
class TestWriteTrace:
    @pytest.mark.parametrize("sink, starts", [
        ("jsonl", '{"categories"'), ("perfetto", '{"displayTimeUnit"'),
        ("text", "    0.000000"), ("svg", "<svg"),
    ])
    def test_every_format_writes_its_file(self, tmp_path, sink, starts):
        tracer = Tracer()
        tracer.emit(0.0, "r0", obs_trace.VIEW, "enter", 1)
        out = write_trace(tracer.records(), tmp_path / "sub" / "t.out", sink)
        assert out == tmp_path / "sub" / "t.out"
        assert out.read_text().startswith(starts)

    # "chrome" and "timeline" were once other names of perfetto and svg.
    @pytest.mark.parametrize("sink", ["csv", "chrome", "timeline"])
    def test_unknown_format_is_refused(self, tmp_path, sink):
        known = "known: jsonl, perfetto, text, svg$"
        with pytest.raises(ValueError, match=f"unknown trace format '{sink}'; {known}"):
            write_trace([], tmp_path / "t.out", sink)
        assert not (tmp_path / "t.out").exists()


# ----------------------------------------------------------------------
# api.trace
# ----------------------------------------------------------------------
class TestApiTrace:
    def test_returns_traced_run_and_writes_out(self, tmp_path):
        out = tmp_path / "run.jsonl"
        traced = api.trace(small_config(runtime=0.4), out=out)
        assert obs_trace.ACTIVE is None
        assert traced.result.consistent
        assert len(traced.records()) > 0
        header, parsed = validate_jsonl(out)
        assert header["records"] == len(traced.records())

    def test_scenario_and_category_filter(self):
        traced = api.trace(
            small_config(runtime=0.7),
            scenario={"events": [
                {"kind": "crash-replica", "at": 0.3, "replica": "last"}]},
            categories=("fault", "view"),
        )
        categories = {r.category for r in traced.records()}
        assert categories <= {"fault", "view"}
        assert "fault" in categories


# ----------------------------------------------------------------------
# campaign progress
# ----------------------------------------------------------------------
class TestCampaignProgress:
    def test_campaign_progress_with_fake_clock(self):
        now = [0.0]
        lines = []
        progress = CampaignProgress(
            total=4, emit=lines.append, clock=lambda: now[0]
        )
        progress.start("a")
        progress.start("b")
        now[0] = 1.0
        progress.finish("a")
        now[0] = 2.0
        progress.finish("b")
        assert progress.done == 2
        assert progress.rate() == pytest.approx(1.0)
        assert progress.eta_seconds() == pytest.approx(2.0)
        assert lines[-1].startswith("campaign: 2/4 done")
        # A run far older than the median duration is flagged.
        progress.start("slowpoke")
        now[0] = 50.0
        assert progress.stragglers() == ["slowpoke"]
        assert "slowpoke" in progress.render()

    def test_a_run_past_factor_times_the_exact_median_is_a_straggler(self):
        now = [0.0]
        progress = CampaignProgress(total=5, emit=lambda line: None, clock=lambda: now[0])
        for run_id in ("a", "b", "c"):
            progress.start(run_id)
            now[0] += 1.0
            progress.finish(run_id)
        progress.start("slow")
        now[0] += 6.0
        # 6 s > 4 x the 1.0 s median (a power-of-two bucket would say 2.0 s).
        assert progress.stragglers() == ["slow"]

    def test_campaign_runner_reports_progress(self, tmp_path):
        lines = []
        progress = CampaignProgress(total=0, emit=lines.append)
        spec = api.grid(small_config(runtime=0.3), name="obs_progress",
                        seed=[11, 12])
        result = api.campaign(spec, progress=progress)
        assert result.executed == 2
        assert progress.total == 2  # runner re-binds total to pending count
        assert progress.done == 2
        assert len(lines) == 2


# ----------------------------------------------------------------------
# the same records as the parent commit
# ----------------------------------------------------------------------
class TestSameTraceAcrossCommits:
    """``tests/golden/trace_records.json`` pins what each run's tracer keeps.

    Captured with ``python tests/test_obs.py`` (which prints the document)
    before the tracer lost its histogram layer; a refactor that moves,
    adds or drops a retained record fails here.  The ``trace_smoke`` digest
    is also the sha256 of ``python -m repro run examples/trace_smoke.json
    --trace-out FILE``, which CI's trace-smoke job compares.
    """

    golden = json.loads(TRACE_GOLDEN.read_text())

    @pytest.mark.parametrize("name", PINNED)
    def test_records(self, name):
        assert trace_fingerprint(traced_run(name)) == self.golden[name]


# ----------------------------------------------------------------------
# fuzz violation trace bundling
# ----------------------------------------------------------------------
class TestFuzzTraceBundling:
    def test_violation_bundles_trace(self, tmp_path):
        from repro.fuzz import ORACLES, run_fuzz

        name = "obs-always-fails"

        @ORACLES.register(name)
        def _always(ctx):
            return ["forced violation (test_obs)"]

        # Registered oracles are process-global and run in every later audit:
        # clean up, or the rest of the suite sees violations.
        try:
            report = run_fuzz(budget=1, seed=0, artifacts=str(tmp_path),
                              shrink=False, oracles=[name])
        finally:
            ORACLES.unregister(name)
        assert not report.ok
        outcome = report.failures[0]
        assert outcome.trace_artifact is not None
        assert obs_trace.ACTIVE is None
        header, records = validate_jsonl(outcome.trace_artifact)
        assert len(records) > 0
        document = json.loads(open(outcome.artifact).read())
        assert document["trace_artifact"] == outcome.trace_artifact
        assert report.to_dict()["violations"][0]["trace_artifact"] == (
            outcome.trace_artifact
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "num_nodes": 4, "runtime": 0.4, "warmup": 0.1, "cooldown": 0.1,
            "seed": 11, "cost_profile": "fast", "block_size": 20,
            "concurrency": 8, "num_clients": 2, "view_timeout": 0.05,
            "mempool_capacity": 200,
        }))
        return path

    def test_run_trace_out_then_summarize(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        out = tmp_path / "t.jsonl"
        assert main(["run", str(config), "--trace-out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"trace: {out}" in stdout
        assert out.exists()
        assert obs_trace.ACTIVE is None

        assert main(["trace", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "valid trace:" in stdout
        assert any(line.startswith("records: ") for line in stdout.splitlines())

    def test_trace_convert_formats(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        out = tmp_path / "t.jsonl"
        main(["run", str(config), "--trace-out", str(out)])
        capsys.readouterr()

        perfetto = tmp_path / "t.perfetto.json"
        assert main(["trace", str(out), "-f", "perfetto",
                     "-o", str(perfetto)]) == 0
        doc = json.loads(perfetto.read_text())
        assert doc["traceEvents"]

        svg = tmp_path / "t.svg"
        assert main(["trace", str(out), "-f", "svg", "-o", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")
        capsys.readouterr()

    def test_trace_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not a trace\n")
        assert main(["trace", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1))
