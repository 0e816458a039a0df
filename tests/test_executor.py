"""Unit tests for the key-value execution layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.executor.kvstore import KeyValueStore
from repro.types.transaction import Transaction


def tx(operation="put", key="k", value="v", txid=None):
    base = Transaction.create("c0", created_at=0.0, operation=operation, key=key, value=value)
    if txid is None:
        return base
    return Transaction(
        txid=txid,
        client_id="c0",
        operation=operation,
        key=key,
        value=value,
    )


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
        assert store.was_applied(transaction.txid)

    def test_was_applied_false_for_unknown(self):
        assert not KeyValueStore().was_applied("nope")

    def test_state_digest_reflects_content(self):
        a = KeyValueStore()
        b = KeyValueStore()
        a.apply(tx(operation="put", key="x", value="1", txid="t1"))
        b.apply(tx(operation="put", key="x", value="1", txid="t2"))
        assert a.state_digest() == b.state_digest()
        b.apply(tx(operation="put", key="y", value="2", txid="t3"))
        assert a.state_digest() != b.state_digest()

    def test_last_write_wins(self):
        store = KeyValueStore()
        store.apply(tx(operation="put", key="a", value="1", txid="t1"))
        store.apply(tx(operation="put", key="a", value="2", txid="t2"))
        assert store.get("a") == "2"


class TestBoundedDedup:
    """The applied-txid index holds bounded memory on runs of any length."""

    def _tx(self, client, seq, key="k", value="v"):
        return Transaction(txid=f"tx-{client}-{seq}", client_id=client,
                           operation="put", key=key, value=value)

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
        assert store.was_applied("tx-c0-19999")
        assert store.was_applied("tx-c0-1")
        assert store.apply(self._tx("c0", 1)) is None
        assert store.operations_applied == 20_000

    def test_sessions_are_per_client(self):
        store = KeyValueStore(dedup_window=8)
        store.apply(self._tx("c0", 5))
        assert store.was_applied("tx-c0-5")
        assert not store.was_applied("tx-c1-5")

    def test_interleaved_global_sequences(self):
        # The global tx counter interleaves clients, so per-client sequences
        # have gaps; gaps must not count as applied.
        store = KeyValueStore(dedup_window=8)
        store.apply(self._tx("c0", 0))
        store.apply(self._tx("c1", 1))
        store.apply(self._tx("c0", 2))
        assert store.was_applied("tx-c0-0") and store.was_applied("tx-c0-2")
        assert not store.was_applied("tx-c0-1")
        assert not store.was_applied("tx-c1-0")

    def test_non_canonical_txids_use_the_bounded_fifo(self):
        store = KeyValueStore(dedup_window=4)
        for i in range(4):
            store.apply(tx(operation="put", key=f"k{i}", txid=f"custom-{i}!"))
        assert store.was_applied("custom-0!")
        store.apply(tx(operation="put", key="k5", txid="custom-5!"))
        # FIFO bound: the oldest synthetic id is forgotten.
        assert not store.was_applied("custom-0!")
        assert store.was_applied("custom-5!")

    def test_snapshot_round_trips_the_bounded_state(self):
        store = KeyValueStore(dedup_window=16)
        for seq in range(100):
            store.apply(self._tx("c0", seq))
        store.apply(tx(operation="put", key="x", txid="weird-id"))
        clone = KeyValueStore(dedup_window=16)
        clone.restore(store.snapshot())
        assert clone.dedup_entries() == store.dedup_entries()
        assert clone.was_applied("tx-c0-99")
        assert clone.was_applied("tx-c0-0")  # below the floor: conservative
        assert clone.was_applied("weird-id")
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
    seq = draw(st.integers(0, 12))
    shape = draw(st.sampled_from(("canonical", "parsed", "hand-built")))
    if shape == "canonical":  # what a client builds: session read off the object
        txid = f"tx-{client}-{seq}"
    elif shape == "parsed":   # same id, another sequence: session parsed from the string
        txid, seq = f"tx-{client}-{seq}", seq + 100
    else:                     # the bounded FIFO of raw ids
        txid = f"odd-{seq % 6}"
    return Transaction(
        txid=txid, client_id=client, sequence=seq,
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
        # Window 4: sessions overflow (and the raw-id FIFO evicts) mid-batch.
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

    def test_forked_block_committed_after_the_main_chain_changes_nothing(self):
        store = KeyValueStore()
        main = [Transaction.create("c0", 0.0, key="a", value=f"v{i}", sequence=i) for i in range(4)]
        store.apply_batch(main)
        before = store.snapshot()
        # The fork carried two of the same requests plus an overwrite of its own.
        fork = [main[1], Transaction.create("c1", 0.0, key="a", value="fork", sequence=0), main[3]]
        store.apply_batch(fork)
        assert store.operations_applied == before.operations_applied + 1
        assert store.get("a") == "fork"
        store.apply_batch(fork)
        assert store.operations_applied == before.operations_applied + 1

    def test_window_overflow_inside_a_batch(self):
        store = KeyValueStore(dedup_window=4)
        batch = [Transaction.create("c0", 0.0, key=f"k{i}", sequence=i) for i in range(7)]
        store.apply_batch(batch + batch[:2])
        # The fifth add halved the window: floor 2, then 3..6 tracked exactly;
        # the two repeats fall at or below the floor.
        assert store.snapshot().dedup.sessions == (("c0", 2, (3, 4, 5, 6)),)
        assert store.operations_applied == 7

    def test_unknown_operation_is_a_counted_no_op_in_a_block(self):
        store = KeyValueStore()
        odd = Transaction.create("c0", 0.0, operation="frob", key="a", sequence=1)
        store.apply_batch([tx(key="a", value="1"), odd, odd])
        assert store.operations_invalid == 2
        assert store.operations_applied == 1
        assert not store.was_applied(odd.txid)
        assert store.get("a") == "1"

    def test_single_apply_refuses_an_unknown_operation_before_recording_it(self):
        store = KeyValueStore()
        odd = Transaction.create("c0", 0.0, operation="frob", sequence=1)
        with pytest.raises(ValueError):
            store.apply(odd)
        assert not store.was_applied(odd.txid)
        assert store.operations_applied == 0 and store.operations_invalid == 0

    def test_returns_what_the_last_transaction_read(self):
        store = KeyValueStore()
        read = tx(operation="get", key="a")
        assert store.apply_batch([tx(key="a", value="1"), read]) == "1"
        assert store.apply_batch([read]) is None  # a repeat takes no effect
        assert store.apply_batch([tx(operation="get", key="a"), tx(key="b")]) is None
