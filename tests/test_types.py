"""Unit tests for the core data types."""

import dataclasses

import pytest

from repro.types.block import GENESIS_ID, compute_block_id, make_block, make_genesis
from repro.types.certificates import QuorumCertificate, TimeoutCertificate, timeout_digest, vote_digest
from repro.types.messages import (
    ClientReply,
    Message,
    ProposalMessage,
    VoteMessage,
)
from repro.types import sizes
from repro.types.transaction import Transaction

from helpers import make_transactions


class TestTransaction:
    def test_create_assigns_unique_ids(self):
        a = Transaction.create("c0", 0, created_at=0.0)
        b = Transaction.create("c0", 1, created_at=0.0)
        assert a.txid != b.txid

    def test_create_records_client_and_time(self):
        tx = Transaction.create("c7", 0, created_at=1.25, payload_size=128)
        assert tx.client_id == "c7"
        assert tx.created_at == 1.25
        assert tx.payload_size == 128

    def test_default_operation_is_put(self):
        tx = Transaction.create("c0", 0, created_at=0.0)
        assert tx.operation == "put"

    def test_hash_by_txid(self):
        tx = Transaction.create("c0", 0, created_at=0.0)
        assert hash(tx) == hash(tx.txid)

    def test_instances_are_slots_only(self):
        # One object to the cyclic collector per transaction, not two: no
        # ``__dict__`` beside the slots, however the instance was built.
        built = Transaction.create("c0", 4, created_at=0.0)
        by_hand = Transaction("c0", "put", "k", "v", 0, 0.0, 5)
        for tx in (built, by_hand):
            assert not hasattr(tx, "__dict__")
            with pytest.raises(AttributeError):
                tx.note = "no room for this"
        assert set(Transaction.__slots__) == {*Transaction._fields, "txid"}

    def test_txid_is_client_and_sequence(self):
        # The id is spelled from the two fields, however the object is built;
        # it is not a field itself, so nothing can make it disagree.
        created = Transaction.create(client_id="c7", created_at=0.0, payload_size=128,
                                     key="k1", value="v1", sequence=12)
        assert created.txid == "tx-c7-12"
        assert Transaction("c7", "put", "k1", "v1", 128, 0.0, 12) == created
        assert Transaction("c7", "get", "k2", "", 0, 1.0, 12).txid == "tx-c7-12"
        assert "txid" not in Transaction._fields
        with pytest.raises(TypeError):
            Transaction("tx-c7-12", "c7", "put", "k1", "v1", 128, 0.0, 12)


class TestGenesis:
    def test_genesis_has_height_zero_and_no_parent(self):
        genesis, qc = make_genesis()
        assert genesis.height == 0
        assert genesis.parent_id is None
        assert genesis.is_genesis
        assert qc.is_genesis

    def test_genesis_qc_certifies_genesis(self):
        genesis, qc = make_genesis()
        assert qc.block_id == genesis.block_id == GENESIS_ID


class TestBlock:
    def test_make_block_links_to_parent(self):
        genesis, qc = make_genesis()
        block = make_block(1, genesis, qc, "r0", make_transactions(3))
        assert block.parent_id == genesis.block_id
        assert block.height == 1
        assert block.view == 1
        assert block.num_transactions == 3

    def test_block_id_depends_on_content(self):
        genesis, _qc = make_genesis()
        txs = make_transactions(2)
        a = compute_block_id(1, genesis.block_id, "r0", txs)
        b = compute_block_id(2, genesis.block_id, "r0", txs)
        c = compute_block_id(1, genesis.block_id, "r1", txs)
        assert len({a, b, c}) == 3

    def test_payload_bytes_sums_transaction_payloads(self):
        genesis, qc = make_genesis()
        txs = make_transactions(4, payload_size=100)
        block = make_block(1, genesis, qc, "r0", txs)
        assert block.payload_bytes == 400

    def test_non_genesis_block_is_not_genesis(self):
        genesis, qc = make_genesis()
        block = make_block(1, genesis, qc, "r0", ())
        assert not block.is_genesis


class TestCertificates:
    def test_vote_digest_depends_on_block_and_view(self):
        assert vote_digest("b1", 1) != vote_digest("b1", 2)
        assert vote_digest("b1", 1) != vote_digest("b2", 1)

    def test_timeout_digest_depends_on_view(self):
        assert timeout_digest(1) != timeout_digest(2)

    def test_non_genesis_qc_is_not_genesis(self):
        qc = QuorumCertificate(block_id="b1", view=3, signers=frozenset({"r0"}))
        assert not qc.is_genesis

    def test_tc_holds_high_qc_view(self):
        tc = TimeoutCertificate(view=4, signers=frozenset({"r0", "r1", "r2"}), high_qc_view=3)
        assert tc.high_qc_view == 3


class TestMessages:
    def test_a_message_is_its_fields(self):
        # Nothing rides beside the content: the base declares what every
        # kind carries, and a kind adds only its own fields.
        assert [f.name for f in dataclasses.fields(Message)] == ["sender", "size_bytes"]
        assert [f.name for f in dataclasses.fields(ClientReply)] == [
            "sender", "size_bytes", "txid", "committed_at", "replica", "status"]
        assert not hasattr(ClientReply("r0", 48), "__dict__")

    def test_a_kind_takes_its_own_fields_positionally(self):
        # A message is its fields: a kind's own follow sender, size_bytes.
        by_name = ClientReply(sender="r0", size_bytes=48, txid="tx-c0-1",
                              committed_at=2.0, replica="r1", status="rejected")
        assert ClientReply("r0", 48, "tx-c0-1", 2.0, "r1", "rejected") == by_name
        with pytest.raises(TypeError):
            ClientReply("r0", 48, "tx-c0-1", 2.0, "r1", "rejected", 7)
        with pytest.raises(TypeError):
            VoteMessage("r0", 10, None, "", 7)

    def test_client_reply_default_status(self):
        reply = ClientReply(sender="r0", size_bytes=10)
        assert reply.status == "committed"

    def test_proposal_message_holds_block_and_view(self):
        genesis, qc = make_genesis()
        block = make_block(1, genesis, qc, "r0", ())
        msg = ProposalMessage(sender="r0", size_bytes=100, block=block, view=1)
        assert msg.block is block
        assert msg.view == 1
        assert msg.forwarded_by == ""

    def test_vote_message_default_not_forwarded(self):
        msg = VoteMessage(sender="r0", size_bytes=10, vote=None)
        assert msg.forwarded_by == ""


class TestSizes:
    def test_transaction_size_includes_payload(self):
        assert sizes.transaction_size(100) == sizes.TX_HEADER_SIZE + 100

    def test_qc_size_scales_with_signers(self):
        assert sizes.qc_size(3) - sizes.qc_size(2) == sizes.SIGNATURE_SIZE

    def test_block_size_scales_with_transactions(self):
        small = sizes.block_size(100, 0, 3)
        large = sizes.block_size(400, 0, 3)
        assert large - small == 300 * sizes.TX_HEADER_SIZE

    def test_block_size_scales_with_payload(self):
        no_payload = sizes.block_size(100, 0, 3)
        with_payload = sizes.block_size(100, 128, 3)
        assert with_payload - no_payload == 100 * 128

    def test_proposal_size_matches_block_size_for_uniform_payload(self):
        genesis, qc = make_genesis()
        block = make_block(1, genesis, qc, "r0", make_transactions(10, payload_size=64))
        assert sizes.proposal_size(block, 3) == sizes.block_size(10, 64, 3)

    def test_vote_smaller_than_block(self):
        assert sizes.VOTE_SIZE < sizes.block_size(100, 0, 3)

    def test_client_request_size_includes_payload(self):
        assert sizes.client_request_size(256) == sizes.CLIENT_REQUEST_OVERHEAD + 256
