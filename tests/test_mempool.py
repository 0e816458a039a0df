"""Unit tests for the mempool."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mempool.mempool import Mempool
from repro.types.transaction import Transaction

from helpers import make_transactions


class TestAdd:
    def test_add_and_len(self):
        pool = Mempool(capacity=10)
        txs = make_transactions(3)
        for tx in txs:
            assert pool.add(tx)
        assert len(pool) == 3

    def test_duplicate_pending_rejected(self):
        pool = Mempool(capacity=10)
        (tx,) = make_transactions(1)
        assert pool.add(tx)
        assert not pool.add(tx)
        assert pool.total_rejected == 1

    def test_capacity_enforced(self):
        pool = Mempool(capacity=2)
        txs = make_transactions(3)
        assert pool.add(txs[0])
        assert pool.add(txs[1])
        assert not pool.add(txs[2])
        assert len(pool) == pool.capacity

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Mempool(capacity=0)

    def test_contains_by_txid(self):
        pool = Mempool()
        (tx,) = make_transactions(1)
        pool.add(tx)
        assert tx.txid in pool

    def test_already_proposed_transaction_rejected(self):
        pool = Mempool()
        (tx,) = make_transactions(1)
        pool.add(tx)
        pool.next_batch(1)
        assert not pool.add(tx)

    def test_each_refusal_counts_once(self):
        pool = Mempool(capacity=2)
        proposed, pending, extra = make_transactions(3)
        pool.add(proposed)
        pool.next_batch(1)
        pool.add(pending)
        assert not pool.add(pending)  # pending duplicate
        assert pool.total_rejected == 1
        assert not pool.add(proposed)  # proposed duplicate
        assert pool.total_rejected == 2
        pool.add(extra)
        assert not pool.add(make_transactions(1)[0])  # full
        assert pool.total_rejected == 3
        assert not pool.add(pending)  # a duplicate and full: still one refusal
        assert pool.total_rejected == 4
        assert (pool.total_added, pool.snapshot_ids()) == (3, [pending.txid, extra.txid])


class TestBatching:
    def test_next_batch_is_fifo(self):
        pool = Mempool()
        txs = make_transactions(5)
        for tx in txs:
            pool.add(tx)
        batch = pool.next_batch(3)
        assert [t.txid for t in batch] == [t.txid for t in txs[:3]]
        assert len(pool) == 2

    def test_next_batch_smaller_than_request(self):
        pool = Mempool()
        txs = make_transactions(2)
        for tx in txs:
            pool.add(tx)
        assert len(pool.next_batch(400)) == 2

    def test_next_batch_zero_or_negative(self):
        pool = Mempool()
        pool.add(make_transactions(1)[0])
        assert pool.next_batch(0) == ()
        assert pool.next_batch(-1) == ()

    def test_next_batch_of_empty_pool(self):
        assert Mempool().next_batch(1) == ()

    def test_a_partial_batch_leaves_the_rest_at_the_front(self):
        pool = Mempool()
        txs = make_transactions(5)
        for tx in txs:
            pool.add(tx)
        pool.next_batch(2)
        assert pool.snapshot_ids() == [t.txid for t in txs[2:]]
        assert [t.txid for t in pool.next_batch(1)] == [txs[2].txid]


class TestRequeue:
    def test_requeued_transactions_go_to_front(self):
        pool = Mempool()
        txs = make_transactions(4)
        for tx in txs:
            pool.add(tx)
        forked = pool.next_batch(2)
        pool.requeue_front(forked)
        order = pool.snapshot_ids()
        assert order[:2] == [t.txid for t in forked]
        assert order[2:] == [t.txid for t in txs[2:]]

    def test_requeue_ignores_capacity(self):
        pool = Mempool(capacity=2)
        txs = make_transactions(2)
        for tx in txs:
            pool.add(tx)
        batch = pool.next_batch(2)
        extra = make_transactions(2)
        for tx in extra:
            pool.add(tx)
        requeued = pool.requeue_front(batch)
        assert requeued == 2
        assert len(pool) == 4

    def test_requeue_skips_still_pending(self):
        pool = Mempool()
        txs = make_transactions(2)
        for tx in txs:
            pool.add(tx)
        assert pool.requeue_front(txs) == 0

    def test_requeued_transaction_can_be_batched_again(self):
        pool = Mempool()
        (tx,) = make_transactions(1)
        pool.add(tx)
        batch = pool.next_batch(1)
        pool.requeue_front(batch)
        assert pool.next_batch(1)[0].txid == tx.txid


class TestCommitted:
    def test_mark_committed_removes_pending_copy(self):
        pool = Mempool()
        txs = make_transactions(3)
        for tx in txs:
            pool.add(tx)
        assert pool.mark_committed([txs[1]]) == [txs[1]]
        assert txs[1].txid not in pool
        assert len(pool) == 2

    def test_mark_committed_clears_proposed_marker(self):
        pool = Mempool()
        (tx,) = make_transactions(1)
        pool.add(tx)
        pool.next_batch(1)
        assert tx.txid in pool
        assert pool.mark_committed([tx]) == [tx]
        assert tx.txid not in pool
        # A committed transaction re-offered by a confused client is accepted
        # again only because the pool no longer tracks it; the replica-level
        # executor is what prevents double execution.
        assert pool.add(tx)

    def test_counters(self):
        pool = Mempool()
        txs = make_transactions(2)
        for tx in txs:
            pool.add(tx)
        batch = pool.next_batch(2)
        pool.requeue_front(batch)
        assert pool.total_added == 2
        assert pool.total_requeued == 2


def _mark_committed_per_transaction(pool, transactions):
    """``Mempool.mark_committed`` as it was before it became set algebra over
    a block's ids: the reference the per-block version must match, and the
    transactions it held."""
    held = []
    for tx in transactions:
        if tx.txid in pool._proposed_ids:
            held.append(tx)
        pool._proposed_ids.discard(tx.txid)
        if tx.txid in pool._pending_ids:
            held.append(tx)
            pool._pending_ids.discard(tx.txid)
            try:
                pool._queue.remove(tx)
            except ValueError:
                pass
    return held


def _state(pool):
    return pool.snapshot_ids(), sorted(pool._pending_ids), sorted(pool._proposed_ids)


class TestMarkCommittedPerBlock:
    UNIVERSE = [Transaction.create("c0", i, 0.0, key=f"k{i}") for i in range(10)]
    # Same ids on other objects: an equal copy (what a decoded frame is) and
    # one that differs in a field (``queue.remove`` does not find it).
    COPIES = [Transaction.create("c0", i, 0.0, key=f"k{i}") for i in range(10)]
    ALTERED = [Transaction.create("c0", i, 0.0, key=f"k{i}", value="other") for i in range(10)]

    @settings(max_examples=300, deadline=None)
    @given(
        added=st.lists(st.sampled_from(UNIVERSE), max_size=10),
        proposed=st.integers(0, 6),
        # Duplicates inside the block, ids the pool never saw, ids it queues,
        # ids it proposed.
        block=st.lists(st.sampled_from(UNIVERSE + COPIES + ALTERED), max_size=12),
        forked=st.lists(st.sampled_from(UNIVERSE), max_size=6),
    )
    def test_matches_the_per_transaction_loop(self, added, proposed, block, forked):
        actual, reference = Mempool(capacity=20), Mempool(capacity=20)
        for pool in (actual, reference):
            for tx in added:
                pool.add(tx)
            pool.next_batch(proposed)
        held = actual.mark_committed(block)
        assert list(held) == _mark_committed_per_transaction(reference, block)
        assert _state(actual) == _state(reference)
        # What is left behaves the same: recycled fork transactions go in front.
        assert actual.requeue_front(forked) == reference.requeue_front(forked)
        assert _state(actual) == _state(reference)
        assert actual.next_batch(20) == reference.next_batch(20)

    def test_block_that_misses_the_queue_leaves_it_alone(self):
        pool = Mempool()
        mine, theirs = make_transactions(3), make_transactions(4)
        for tx in mine:
            pool.add(tx)
        assert pool.mark_committed(theirs) == ()
        assert pool.snapshot_ids() == [tx.txid for tx in mine]
