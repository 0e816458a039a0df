"""Unit tests for the core data types."""

import pytest

from repro.types.block import GENESIS_ID, compute_block_id, make_block, make_genesis
from repro.types.certificates import QuorumCertificate, TimeoutCertificate, timeout_digest, vote_digest
from repro.types.messages import (
    UNASSIGNED_MESSAGE_ID,
    ClientReply,
    ProposalMessage,
    VoteMessage,
)
from repro.types.sizes import SizeModel
from repro.types.transaction import Transaction

from helpers import make_transactions


class TestTransaction:
    def test_create_assigns_unique_ids(self):
        a = Transaction.create("c0", created_at=0.0)
        b = Transaction.create("c0", created_at=0.0)
        assert a.txid != b.txid

    def test_create_records_client_and_time(self):
        tx = Transaction.create("c7", created_at=1.25, payload_size=128)
        assert tx.client_id == "c7"
        assert tx.created_at == 1.25
        assert tx.payload_size == 128

    def test_default_operation_is_put(self):
        tx = Transaction.create("c0", created_at=0.0)
        assert tx.operation == "put"

    def test_hash_by_txid(self):
        tx = Transaction.create("c0", created_at=0.0)
        assert hash(tx) == hash(tx.txid)

    def test_instances_are_slots_only(self):
        # One object to the cyclic collector per transaction, not two: no
        # ``__dict__`` beside the slots, however the instance was built.
        built = Transaction.create("c0", created_at=0.0, sequence=4)
        by_hand = Transaction(txid="hand-built", client_id="c0")
        for tx in (built, by_hand):
            assert not hasattr(tx, "__dict__")
            with pytest.raises(AttributeError):
                tx.note = "no room for this"
        assert set(Transaction.__slots__) == {*Transaction._fields, "canonical_session"}

    def test_canonical_session_is_derived_at_construction(self):
        assert Transaction.create("c7", 0.0, sequence=12).canonical_session == ("c7", 12)
        # The process-wide counter behind ``create`` without a sequence.
        counted = Transaction.create("c0", created_at=0.0)
        assert counted.canonical_session == ("c0", counted.sequence)
        assert counted.txid == f"tx-c0-{counted.sequence}"
        # Hand-built: canonical only if the id is what create would have made.
        assert Transaction(txid="tx-c0-5", client_id="c0", sequence=5).canonical_session == ("c0", 5)
        assert Transaction(txid="tx-c0-5", client_id="c0", sequence=6).canonical_session is None
        assert Transaction(txid="tx-c0-5", client_id="c1", sequence=5).canonical_session is None
        assert Transaction(txid="hand-built", client_id="c0", sequence=5).canonical_session is None


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
    def test_messages_start_unassigned(self):
        # Ids are stamped by the transport that first carries the message
        # (see test_network.py), not at construction — construction must not
        # consult any process-global counter.
        a = ClientReply(sender="r0", size_bytes=10)
        b = ClientReply(sender="r0", size_bytes=10)
        assert a.message_id == b.message_id == UNASSIGNED_MESSAGE_ID

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


class TestSizeModel:
    def setup_method(self):
        self.sizes = SizeModel()

    def test_transaction_size_includes_payload(self):
        assert self.sizes.transaction_size(100) == self.sizes.tx_header_size + 100

    def test_qc_size_scales_with_signers(self):
        assert self.sizes.qc_size(3) - self.sizes.qc_size(2) == self.sizes.signature_size

    def test_block_size_scales_with_transactions(self):
        small = self.sizes.block_size(100, 0, 3)
        large = self.sizes.block_size(400, 0, 3)
        assert large - small == 300 * self.sizes.tx_header_size

    def test_block_size_scales_with_payload(self):
        no_payload = self.sizes.block_size(100, 0, 3)
        with_payload = self.sizes.block_size(100, 128, 3)
        assert with_payload - no_payload == 100 * 128

    def test_block_size_for_matches_block_size_for_uniform_payload(self):
        txs = make_transactions(10, payload_size=64)
        assert self.sizes.block_size_for(txs, 3) == self.sizes.block_size(10, 64, 3)

    def test_vote_smaller_than_block(self):
        assert self.sizes.vote_size() < self.sizes.block_size(100, 0, 3)

    def test_client_request_size_includes_payload(self):
        assert (
            self.sizes.client_request_size(256)
            == self.sizes.client_request_overhead + 256
        )
