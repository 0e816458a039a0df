"""Unit tests for the generic plugin registry machinery."""

import pytest

from repro.plugins import Registry, RegistryError


class TestRegistry:
    def test_add_and_get(self):
        reg = Registry("widget")
        reg.add("alpha", 1)
        assert reg.get("alpha") == 1
        assert "alpha" in reg

    def test_names_are_exact(self):
        reg = Registry("widget")
        reg.add("closed-loop", 1)
        for spelling in ("Closed-Loop", "closed_loop", "closedloop"):
            assert spelling not in reg
            with pytest.raises(RegistryError, match="available: closed-loop"):
                reg.get(spelling)
        # A spelling that differs is a different name, not a conflict.
        reg.add("closed_loop", 2)
        assert reg.available() == ["closed-loop", "closed_loop"]

    def test_decorator_form_returns_object(self):
        reg = Registry("widget")

        @reg.register("thing")
        class Thing:
            pass

        assert reg.get("thing") is Thing
        assert Thing.__name__ == "Thing"

    def test_available_preserves_registration_order(self):
        reg = Registry("widget")
        reg.add("zeta", 1)
        reg.add("alpha", 2)
        reg.add("mid", 3)
        assert reg.available() == ["zeta", "alpha", "mid"]

    def test_unknown_name_error_lists_available(self):
        reg = Registry("widget")
        reg.add("alpha", 1)
        reg.add("beta", 2)
        with pytest.raises(RegistryError, match="unknown widget 'gamma'.*alpha, beta"):
            reg.get("gamma")

    def test_duplicate_name_rejected(self):
        reg = Registry("widget")
        reg.add("alpha", 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.add("alpha", 2)
        assert reg.get("alpha") == 1

    def test_empty_name_rejected(self):
        reg = Registry("widget")
        with pytest.raises(RegistryError):
            reg.add("", 1)

    def test_decorator_with_a_taken_name_keeps_the_first(self):
        reg = Registry("widget")

        @reg.register("thing")
        class First:
            pass

        with pytest.raises(RegistryError, match="'thing' is already registered"):
            @reg.register("thing")
            class Second:
                pass

        assert reg.get("thing") is First

    def test_unregistered_name_can_be_added_again(self):
        reg = Registry("widget")
        reg.add("alpha", 1)
        reg.unregister("alpha")
        reg.add("alpha", 2)
        assert reg.get("alpha") == 2
        assert reg.available() == ["alpha"]

    def test_unregister_removes_entry(self):
        reg = Registry("widget")
        reg.add("alpha", 1)
        reg.unregister("alpha")
        assert "alpha" not in reg
        assert reg.available() == []
        with pytest.raises(RegistryError):
            reg.unregister("alpha")


class TestBuiltinRegistries:
    """The concrete extension points are populated under their exact names."""

    def test_protocols(self):
        from repro.protocols.registry import PROTOCOLS

        assert PROTOCOLS.available() == [
            "hotstuff", "2chainhs", "streamlet", "fasthotstuff", "lbft",
        ]
        for spelling in ("hs", "HotStuff", "2chs", "two-chain", "Fast-HotStuff"):
            assert spelling not in PROTOCOLS

    def test_strategies(self):
        from repro.core.byzantine import STRATEGIES, SilentReplica

        assert {"honest", "silence", "forking"} <= set(STRATEGIES.available())
        assert STRATEGIES.get("silence") is SilentReplica
        assert "silent" not in STRATEGIES

    def test_elections(self):
        from repro.election.election import ELECTIONS, RoundRobinElection

        assert ELECTIONS.available() == ["round-robin", "hash"]
        assert ELECTIONS.get("round-robin") is RoundRobinElection
        assert "rr" not in ELECTIONS

    def test_delay_models(self):
        from repro.network.delays import DELAY_MODELS, NormalDelay

        assert {"none", "fixed", "normal", "uniform", "composite"} <= set(
            DELAY_MODELS.available()
        )
        assert DELAY_MODELS.get("normal") is NormalDelay
        assert "gauss" not in DELAY_MODELS

    def test_scenario_events(self):
        from repro.scenario.events import SCENARIO_EVENTS

        assert {
            "crash-replica", "recover-replica", "network-fluctuation",
            "partition", "heal", "set-delay-model", "set-byzantine",
            "set-arrival-rate",
        } <= set(SCENARIO_EVENTS.available())
        assert "crash" not in SCENARIO_EVENTS

    def test_message_handlers(self):
        # Not a registry: the replica's dispatch table, keyed by the
        # message's exact class, the key ``deliver`` uses.
        from repro.core.replica import Replica
        from repro.types.messages import Message, ProposalMessage

        assert ProposalMessage in Replica.DISPATCH
        namesake = type("ProposalMessage", (Message,), {})
        assert namesake not in Replica.DISPATCH

    def test_oracles(self):
        from repro.fuzz.invariants import ORACLES

        assert {"agreement", "certified-safety", "dedup", "liveness"} <= set(
            ORACLES.available()
        )
        assert "certified_safety" not in ORACLES


class TestRegisteringNewImplementations:
    """A plugin plus a config entry is all it takes (the paper's claim)."""

    def test_new_protocol_runs_through_the_config(self):
        from repro import api
        from repro.protocols.hotstuff import HotStuffSafety
        from repro.protocols.registry import PROTOCOLS

        @api.register_protocol("test-hotstuff-clone")
        class CloneSafety(HotStuffSafety):
            pass

        try:
            result = api.run(
                {"protocol": "test-hotstuff-clone", "block_size": 20,
                 "runtime": 0.3, "warmup": 0.1, "cooldown": 0.1,
                 "concurrency": 5, "num_clients": 1, "cost_profile": "fast",
                 "view_timeout": 0.05}
            )
            assert result.consistent
            assert result.metrics.committed_blocks > 0
        finally:
            PROTOCOLS.unregister("test-hotstuff-clone")

    def test_new_strategy_runs_through_the_config(self):
        from repro import api
        from repro.core.byzantine import STRATEGIES, SilentReplica

        @api.register_strategy("test-mute")
        class MuteReplica(SilentReplica):
            pass

        try:
            result = api.run(
                {"byzantine_nodes": 1, "strategy": "test-mute", "block_size": 20,
                 "runtime": 0.3, "warmup": 0.1, "cooldown": 0.1,
                 "concurrency": 5, "num_clients": 1, "cost_profile": "fast",
                 "view_timeout": 0.05, "request_timeout": 0.2}
            )
            assert result.consistent
        finally:
            STRATEGIES.unregister("test-mute")

    def test_new_election_runs_through_the_config(self):
        from repro import api
        from repro.election.election import ELECTIONS, LeaderElection

        @api.register_election("test-always-r1")
        class AlwaysR1(LeaderElection):
            def leader(self, view):
                return "r1"

        try:
            result = api.run(
                {"election": "test-always-r1", "block_size": 20,
                 "runtime": 0.3, "warmup": 0.1, "cooldown": 0.1,
                 "concurrency": 5, "num_clients": 1, "cost_profile": "fast",
                 "view_timeout": 0.05}
            )
            assert result.consistent
            assert result.metrics.committed_blocks > 0
        finally:
            ELECTIONS.unregister("test-always-r1")
