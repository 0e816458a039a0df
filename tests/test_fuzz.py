"""Tests for the adversarial scenario fuzzer: generator determinism and
bounds, invariant oracles, the protocol×attack conformance matrix, store
resume / byte-identity, and the CLI subcommand.

The full 50-case campaign lives in ``TestFuzzCampaign`` behind the ``fuzz``
marker (tier-1 runs with ``-m "not fuzz"``; the CI fuzz-smoke job runs it).
"""

import json

import pytest

from repro.bench.config import Configuration
from repro.core.byzantine import STRATEGIES
from repro.experiments.cli import main
from repro.fuzz import (
    ORACLES,
    FuzzCase,
    OracleContext,
    audit,
    generate_case,
    generate_cases,
    register_oracle,
    run_fuzz,
)
from repro.protocols.registry import PROTOCOLS

ATTACKS = [s for s in STRATEGIES.available() if s != "honest"]


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


class TestGenerator:
    def test_same_seed_same_index_is_identical(self):
        a, b = generate_case(7, 3), generate_case(7, 3)
        assert a.to_dict() == b.to_dict()
        assert a.run_id == b.run_id

    def test_distinct_indices_are_distinct_runs(self):
        cases = generate_cases(seed=0, budget=10)
        assert len({case.run_id for case in cases}) == 10

    def test_protocol_cycle_covers_all_five(self):
        cases = generate_cases(seed=0, budget=len(PROTOCOLS.available()))
        assert {case.config.protocol for case in cases} == set(PROTOCOLS.available())

    def test_cases_are_valid_and_fault_bounded(self):
        for index in range(30):
            case = generate_case(seed=0, index=index)
            case.config.validate()
            f = (case.config.num_nodes - 1) // 3
            assert case.config.byzantine_nodes <= f
            # The unsafe flexible-quorum knob is for the negative control
            # only; generated cases must always use intersecting quorums.
            assert case.config.quorum_threshold == 0
            horizon = case.scenario.horizon(case.config)
            for event in case.scenario.events:
                assert 0 <= event.at <= horizon
            if case.liveness_eligible:
                assert case.config.byzantine_nodes == 0
                assert case.quiet_after + case.liveness_grace < (
                    case.config.warmup + case.config.runtime
                )

    def test_case_round_trips_through_json(self):
        case = generate_case(seed=2, index=4)
        clone = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert clone.to_dict() == case.to_dict()
        assert clone.run_id == case.run_id

    def test_run_spec_uses_the_campaign_content_hash(self):
        case = generate_case(seed=5, index=0)
        spec = case.run_spec()
        assert spec.run_id == case.run_id
        assert spec.campaign == f"fuzz-{case.seed}"
        payload = spec.payload()
        assert payload["config"] == case.config.to_dict()
        assert payload["scenario"] == case.scenario.to_dict()


class TestOracles:
    def test_builtin_oracles_are_registered(self):
        names = ORACLES.available()
        for name in ("agreement", "certified-safety", "dedup", "liveness"):
            assert name in names

    def test_clean_run_has_no_violations(self):
        outcome = audit(small_config())
        assert outcome.ok
        assert outcome.violations == []
        assert outcome.record["consistent"] is True
        assert outcome.record["metrics"]["committed_transactions"] > 0

    def test_custom_oracle_runs_and_reports(self):
        # Registered oracles are process-global and run in *every* later
        # audit, so clean up or the rest of the suite sees violations.
        name = "test-always-fires"

        @register_oracle(name)
        def always_fires(ctx: OracleContext):
            return [f"saw {len(ctx.honest_replicas())} honest replicas"]

        try:
            outcome = audit(small_config(), oracles=[name])
            assert [v.oracle for v in outcome.violations] == [name]
            assert "honest replicas" in outcome.violations[0].detail
        finally:
            ORACLES.unregister(name)
        assert name not in ORACLES

    def test_audit_skips_the_conditional_liveness_oracle(self):
        # A hand-built audit has no generator metadata bounding the fault
        # schedule, so the liveness oracle must pass vacuously.
        outcome = audit(small_config(), oracles=["liveness"])
        assert outcome.ok


@pytest.mark.slow
class TestConformanceMatrix:
    """Every protocol must survive every registered attack at small n:
    no invariant violation, and the same seed must reproduce the same
    committed chain (fingerprint) on a second run."""

    @pytest.mark.parametrize("protocol", PROTOCOLS.available())
    @pytest.mark.parametrize("strategy", ATTACKS)
    def test_protocol_survives_attack_deterministically(self, protocol, strategy):
        config = small_config(
            protocol=protocol,
            byzantine_nodes=1,
            strategy=strategy,
            election="hash",
        )
        first = audit(config)
        assert first.ok, [v.to_dict() for v in first.violations]
        assert first.record["consistent"] is True
        second = audit(config)
        assert second.fingerprint == first.fingerprint
        assert second.record == first.record


class TestHarness:
    def test_store_resume_and_byte_identity(self, tmp_path):
        store_a = tmp_path / "a"
        store_b = tmp_path / "b"
        first = run_fuzz(budget=3, seed=1, store=str(store_a))
        assert first.ok and first.executed == 3 and first.skipped == 0
        resumed = run_fuzz(budget=3, seed=1, store=str(store_a))
        assert resumed.ok and resumed.executed == 0 and resumed.skipped == 3
        run_fuzz(budget=3, seed=1, store=str(store_b))
        assert (store_a / "results.jsonl").read_bytes() == (
            store_b / "results.jsonl"
        ).read_bytes()

    def test_cli_fuzz_runs_and_reports(self, tmp_path, capsys):
        rc = main(
            ["fuzz", "--budget", "2", "--seed", "1", "--store", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "violations: 0" in out
        assert "case   0" in out and "case   1" in out

    def test_cli_fuzz_json_report(self, tmp_path, capsys):
        rc = main(
            ["fuzz", "--budget", "2", "--seed", "1", "--store", str(tmp_path),
             "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 1 and report["budget"] == 2
        assert report["violations"] == []


@pytest.mark.fuzz
class TestFuzzCampaign:
    """The acceptance campaign: ``python -m repro fuzz --budget 50 --seed 0``
    must explore all five protocols with zero invariant violations."""

    def test_budget_50_seed_0_is_clean(self, tmp_path):
        report = run_fuzz(budget=50, seed=0, store=str(tmp_path))
        assert report.ok, [v.to_dict() for v in report.violations]
        assert report.executed + report.skipped == 50
        assert set(report.protocols) == set(PROTOCOLS.available())
        assert all(count == 10 for count in report.protocols.values())
