"""Unit tests for the simulated crypto substrate."""

import pytest

from repro.crypto.costs import CryptoCostModel
from repro.crypto.digest import digest_bytes, digest_fields
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signatures import Signature, sign, verify


class TestDigest:
    def test_digest_is_hex_sha256(self):
        assert len(digest_bytes(b"abc")) == 64

    def test_digest_fields_is_deterministic(self):
        assert digest_fields("a", 1, None) == digest_fields("a", 1, None)

    def test_field_framing_prevents_collisions(self):
        assert digest_fields("ab", "c") != digest_fields("a", "bc")

    def test_type_tags_prevent_cross_type_collisions(self):
        assert digest_fields(1) != digest_fields("1")
        assert digest_fields(1.0) != digest_fields(1)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            digest_fields(object())

    def test_bool_is_distinct_from_int(self):
        assert digest_fields(True) != digest_fields(1)


class TestKeys:
    def test_generation_is_deterministic(self):
        a = KeyPair.generate("r0", deployment_seed=1)
        b = KeyPair.generate("r0", deployment_seed=1)
        assert a.secret == b.secret
        assert a.public_key == b.public_key

    def test_different_nodes_get_different_keys(self):
        a = KeyPair.generate("r0")
        b = KeyPair.generate("r1")
        assert a.secret != b.secret

    def test_different_seeds_give_different_keys(self):
        a = KeyPair.generate("r0", deployment_seed=1)
        b = KeyPair.generate("r0", deployment_seed=2)
        assert a.secret != b.secret

    def test_registry_registers_and_returns(self):
        registry = KeyRegistry()
        key = registry.register("r0")
        assert registry.get("r0") is key
        assert "r0" in registry
        assert len(registry) == 1

    def test_registry_register_is_idempotent(self):
        registry = KeyRegistry()
        assert registry.register("r0") is registry.register("r0")

    def test_registry_unknown_node_raises(self):
        registry = KeyRegistry()
        with pytest.raises(KeyError):
            registry.get("nobody")

    def test_known_nodes_sorted(self):
        registry = KeyRegistry()
        registry.register("r2")
        registry.register("r0")
        assert registry.known_nodes() == ["r0", "r2"]


class TestSignatures:
    def setup_method(self):
        self.registry = KeyRegistry()
        self.keypair = self.registry.register("r0")

    def test_sign_and_verify_roundtrip(self):
        signature = sign(self.keypair, "deadbeef")
        assert verify(self.registry, signature)

    def test_forged_tag_fails(self):
        signature = sign(self.keypair, "deadbeef")
        forged = Signature(signer="r0", digest="deadbeef", tag=b"\x00" * 32)
        assert not verify(self.registry, forged)

    def test_wrong_signer_claim_fails(self):
        signature = sign(self.keypair, "deadbeef")
        self.registry.register("r1")
        impostor = Signature(signer="r1", digest=signature.digest, tag=signature.tag)
        assert not verify(self.registry, impostor)

    def test_unknown_signer_fails_without_raising(self):
        ghost_key = KeyPair.generate("ghost")
        signature = sign(ghost_key, "deadbeef")
        assert not verify(self.registry, signature)

    def test_different_digests_give_different_tags(self):
        a = sign(self.keypair, "aa")
        b = sign(self.keypair, "bb")
        assert a.tag != b.tag


class TestCostModel:
    def test_proposal_build_scales_with_transactions(self):
        costs = CryptoCostModel()
        assert costs.proposal_build_cost(400) > costs.proposal_build_cost(0)

    def test_proposal_verify_scales_with_transactions(self):
        costs = CryptoCostModel()
        delta = costs.proposal_verify_cost(100) - costs.proposal_verify_cost(0)
        assert delta == pytest.approx(100 * costs.per_transaction_time)

    def test_vote_costs_match_sign_and_verify(self):
        costs = CryptoCostModel()
        assert costs.vote_build_cost() == costs.sign_time
        assert costs.vote_verify_cost() == costs.verify_time

    def test_timeout_costs_match_sign_and_verify(self):
        costs = CryptoCostModel()
        assert costs.timeout_build_cost() == costs.sign_time
        assert costs.timeout_verify_cost() == costs.verify_time

    def test_scaled_multiplies_every_cost(self):
        costs = CryptoCostModel()
        doubled = costs.scaled(2.0)
        assert doubled.sign_time == pytest.approx(2 * costs.sign_time)
        assert doubled.per_transaction_time == pytest.approx(2 * costs.per_transaction_time)
        assert doubled.qc_verify_time == pytest.approx(2 * costs.qc_verify_time)

    def test_scaled_returns_new_instance(self):
        costs = CryptoCostModel()
        assert costs.scaled(1.0) is not costs
