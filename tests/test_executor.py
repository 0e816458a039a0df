"""Unit tests for the key-value execution layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.executor.kvstore import OPERATIONS, KeyValueStore, TxidDedup
from repro.types.transaction import Transaction

from helpers import make_transaction


def tx(operation="put", key="k", value="v"):
    return make_transaction(operation=operation, key=key, value=value)


class TestKeyValueStore:
    def test_put_then_get(self):
        store = KeyValueStore()
        store.apply(tx(operation="put", key="a", value="1"))
        assert store.get("a") == "1"
        assert len(store) == 1

    def test_get_operation_returns_value(self):
        store = KeyValueStore()
        store.apply(tx(operation="put", key="a", value="1"))
        assert store.apply(tx(operation="get", key="a")) == "1"

    def test_get_missing_key(self):
        store = KeyValueStore()
        assert store.apply(tx(operation="get", key="missing")) is None

    def test_delete_removes_key(self):
        store = KeyValueStore()
        store.apply(tx(operation="put", key="a", value="1"))
        store.apply(tx(operation="delete", key="a"))
        assert store.get("a") is None

    def test_unknown_operation_raises(self):
        store = KeyValueStore()
        with pytest.raises(ValueError):
            store.apply(tx(operation="increment", key="a"))

    def test_reapply_is_idempotent(self):
        store = KeyValueStore()
        transaction = tx(operation="put", key="a", value="1")
        store.apply(transaction)
        store.apply(transaction)
        assert store.operations_applied == 1
        assert store.transaction_applied(transaction)

    def test_transaction_applied_false_for_unknown(self):
        assert not KeyValueStore().transaction_applied(tx())

    def test_equal_client_and_sequence_are_one_transaction(self):
        # However each was built, two transactions with one (client_id,
        # sequence) pair are one transaction: the second takes no effect,
        # before a checkpoint and after one is installed.
        store = KeyValueStore()
        built = Transaction("c0", "put", "a", "1", 0, 0.0, 5)
        created = Transaction.create("c0", 5, 0.0, key="a", value="2")
        assert built.txid == created.txid == "tx-c0-5"
        store.apply(built)
        assert store.transaction_applied(created)
        assert store.apply(created) is None
        assert store.operations_applied == 1 and store.get("a") == "1"
        clone = KeyValueStore()
        clone.restore(store.snapshot())
        assert clone.snapshot().dedup.sessions == (("c0", -1, (5,)),)
        assert clone.transaction_applied(created)
        clone.apply_batch([created, Transaction.create("c0", 6, 0.0, key="a", value="3")])
        assert clone.operations_applied == 2 and clone.get("a") == "3"

    def test_state_digest_reflects_content(self):
        a = KeyValueStore()
        b = KeyValueStore()
        a.apply(tx(operation="put", key="x", value="1"))
        b.apply(tx(operation="put", key="x", value="1"))
        assert a.state_digest() == b.state_digest()
        b.apply(tx(operation="put", key="y", value="2"))
        assert a.state_digest() != b.state_digest()

    def test_last_write_wins(self):
        store = KeyValueStore()
        store.apply(tx(operation="put", key="a", value="1"))
        store.apply(tx(operation="put", key="a", value="2"))
        assert store.get("a") == "2"


class TestBoundedDedup:
    """The applied-txid index holds bounded memory on runs of any length."""

    def _tx(self, client, seq, key="k", value="v"):
        return Transaction.create(client, seq, 0.0, key=key, value=value)

    def test_dedup_correctness_within_the_window(self):
        store = KeyValueStore(dedup_window=8)
        for seq in range(8):
            store.apply(self._tx("c0", seq, key=f"k{seq}"))
        # Every id inside the window dedups exactly.
        before = store.operations_applied
        for seq in range(8):
            store.apply(self._tx("c0", seq, key=f"k{seq}", value="dup"))
        assert store.operations_applied == before
        assert all(store.get(f"k{s}") == "v" for s in range(8))

    def test_memory_stays_bounded_over_long_histories(self):
        window = 64
        store = KeyValueStore(dedup_window=window)
        for seq in range(20_000):
            store.apply(self._tx("c0", seq, key=f"k{seq % 16}"))
        # O(window), not O(committed transactions).
        assert store.dedup_entries() <= window + 1
        assert store.operations_applied == 20_000
        # Recent ids still dedup; the compacted floor is conservative:
        # everything below it counts as applied (never double-applies).
        assert store.transaction_applied(self._tx("c0", 19_999))
        assert store.transaction_applied(self._tx("c0", 1))
        assert store.apply(self._tx("c0", 1)) is None
        assert store.operations_applied == 20_000

    def test_sessions_are_per_client(self):
        store = KeyValueStore(dedup_window=8)
        store.apply(self._tx("c0", 5))
        assert store.transaction_applied(self._tx("c0", 5))
        assert not store.transaction_applied(self._tx("c1", 5))

    def test_interleaved_global_sequences(self):
        # A client's sequences may reach the store with gaps; gaps must not
        # count as applied.
        store = KeyValueStore(dedup_window=8)
        store.apply(self._tx("c0", 0))
        store.apply(self._tx("c1", 1))
        store.apply(self._tx("c0", 2))
        applied = store.transaction_applied
        assert applied(self._tx("c0", 0)) and applied(self._tx("c0", 2))
        assert not applied(self._tx("c0", 1))
        assert not applied(self._tx("c1", 0))

    def test_snapshot_round_trips_the_bounded_state(self):
        store = KeyValueStore(dedup_window=16)
        for seq in range(100):
            store.apply(self._tx("c0", seq))
        clone = KeyValueStore(dedup_window=16)
        clone.restore(store.snapshot())
        assert clone.dedup_entries() == store.dedup_entries()
        assert clone.transaction_applied(self._tx("c0", 99))
        assert clone.transaction_applied(self._tx("c0", 0))  # below the floor: conservative
        assert clone.snapshot() == store.snapshot()

    def test_snapshots_of_equal_state_are_identical(self):
        a, b = KeyValueStore(dedup_window=8), KeyValueStore(dedup_window=8)
        for store in (a, b):
            for seq in (3, 1, 2):
                store.apply(self._tx("c0", seq))
        assert a.snapshot() == b.snapshot()

    def test_window_must_be_sane(self):
        with pytest.raises(ValueError):
            KeyValueStore(dedup_window=1)


# --------------------------------------------------------------------------
# the per-block commit call


_CLIENTS = ("c0", "c1")
_KEYS = ("a", "b", "c")


@st.composite
def _transactions(draw):
    """A transaction that collides with its neighbours in every way a block's can."""
    client = draw(st.sampled_from(_CLIENTS))
    return Transaction.create(
        client, draw(st.integers(0, 12)), 0.0,
        operation=draw(st.sampled_from(("put", "put", "get", "delete", "frob"))),
        key=draw(st.sampled_from(_KEYS)), value=f"v{draw(st.integers(0, 3))}",
    )


def _apply_one_by_one(store, batch):
    """The loop ``Replica._commit`` ran before the batch call: one ``apply`` each."""
    result, invalid = None, 0
    for transaction in batch:
        try:
            result = store.apply(transaction)
        except ValueError:
            result, invalid = None, invalid + 1
    return result, invalid


class TestApplyBatch:
    @settings(max_examples=200, deadline=None)
    @given(batches=st.lists(st.lists(_transactions(), max_size=12), max_size=5))
    def test_batch_equals_a_loop_of_single_applies(self, batches):
        # Window 4: sessions overflow mid-batch.
        batched, looped = KeyValueStore(dedup_window=4), KeyValueStore(dedup_window=4)
        invalid = 0
        for batch in batches:
            last_read = batched.apply_batch(batch)
            expected_read, skipped = _apply_one_by_one(looped, batch)
            invalid += skipped
            assert last_read == expected_read
            assert batched.snapshot() == looped.snapshot()
            assert batched.operations_applied == looped.operations_applied
            assert batched.dedup_entries() == looped.dedup_entries()
        assert batched.operations_invalid == invalid
        assert looped.operations_invalid == 0  # apply refuses before counting anything

    @settings(max_examples=100, deadline=None)
    @given(transactions=st.lists(_transactions(), max_size=30))
    def test_the_index_and_the_batch_loop_key_alike(self, transactions):
        # TxidDedup's calls (the replica's replied index) and apply_batch's
        # inlined loop make the same update: a transaction is fresh to one
        # exactly when it is to the other, and the sessions end equal.
        store, index = KeyValueStore(dedup_window=4), TxidDedup(window=4)
        for transaction in transactions:
            if transaction.operation not in OPERATIONS:
                continue
            applied = store.operations_applied
            store.apply_batch([transaction])
            assert index.add_transaction(transaction) == (store.operations_applied > applied)
            assert index.contains_transaction(transaction)
        assert index.state() == store.snapshot().dedup

    def test_forked_block_committed_after_the_main_chain_changes_nothing(self):
        store = KeyValueStore()
        main = [Transaction.create("c0", i, 0.0, key="a", value=f"v{i}") for i in range(4)]
        store.apply_batch(main)
        before = store.snapshot()
        # The fork carried two of the same requests plus an overwrite of its own.
        fork = [main[1], Transaction.create("c1", 0, 0.0, key="a", value="fork"), main[3]]
        store.apply_batch(fork)
        assert store.operations_applied == before.operations_applied + 1
        assert store.get("a") == "fork"
        store.apply_batch(fork)
        assert store.operations_applied == before.operations_applied + 1

    def test_window_overflow_inside_a_batch(self):
        store = KeyValueStore(dedup_window=4)
        batch = [Transaction.create("c0", i, 0.0, key=f"k{i}") for i in range(7)]
        store.apply_batch(batch + batch[:2])
        # The fifth add halved the window: floor 2, then 3..6 tracked exactly;
        # the two repeats fall at or below the floor.
        assert store.snapshot().dedup.sessions == (("c0", 2, (3, 4, 5, 6)),)
        assert store.operations_applied == 7

    def test_unknown_operation_is_a_counted_no_op_in_a_block(self):
        store = KeyValueStore()
        odd = Transaction.create("c0", 1, 0.0, operation="frob", key="a")
        store.apply_batch([tx(key="a", value="1"), odd, odd])
        assert store.operations_invalid == 2
        assert store.operations_applied == 1
        assert not store.transaction_applied(odd)
        assert store.get("a") == "1"

    def test_single_apply_refuses_an_unknown_operation_before_recording_it(self):
        store = KeyValueStore()
        odd = Transaction.create("c0", 1, 0.0, operation="frob")
        with pytest.raises(ValueError):
            store.apply(odd)
        assert not store.transaction_applied(odd)
        assert store.operations_applied == 0 and store.operations_invalid == 0

    def test_returns_what_the_last_transaction_read(self):
        store = KeyValueStore()
        read = tx(operation="get", key="a")
        assert store.apply_batch([tx(key="a", value="1"), read]) == "1"
        assert store.apply_batch([read]) is None  # a repeat takes no effect
        assert store.apply_batch([tx(operation="get", key="a"), tx(key="b")]) is None
