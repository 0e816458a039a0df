"""The mempool: a bounded bidirectional queue of pending transactions.

New transactions arrive at the back; transactions recovered from forked
(abandoned) blocks are re-inserted at the front so they are re-proposed
first — exactly the behaviour the paper relies on when measuring latency
under the forking attack (§VI-C).  Each replica has its own local mempool,
which avoids cluster-wide duplicate checks (paper §III-E).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Sequence, Set, Tuple

from repro.types.transaction import Transaction


class Mempool:
    """Pending-transaction queue with front re-insertion for forked blocks."""

    def __init__(self, capacity: int = 1000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._queue: Deque[Transaction] = deque()
        self._pending_ids: Set[str] = set()
        self._proposed_ids: Set[str] = set()
        self.total_added = 0
        self.total_rejected = 0
        self.total_requeued = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, txid: str) -> bool:
        return txid in self._pending_ids

    def add(self, transaction: Transaction) -> bool:
        """Append a new client transaction; returns False if rejected.

        Rejection happens when the pool is full (backpressure, the knob that
        bounds client concurrency) or when the transaction is already pending
        or already proposed.  Called once per client request, so every test
        is inline and the id is read once.
        """
        txid = transaction.txid
        pending = self._pending_ids
        queue = self._queue
        if txid in pending or txid in self._proposed_ids or len(queue) >= self.capacity:
            self.total_rejected += 1
            return False
        queue.append(transaction)
        pending.add(txid)
        self.total_added += 1
        return True

    def requeue_front(self, transactions: Iterable[Transaction]) -> int:
        """Re-insert transactions from forked blocks at the front of the queue.

        The capacity limit is deliberately not enforced here: these
        transactions were already admitted once and dropping them would lose
        client requests.
        """
        staged: List[Transaction] = []
        for tx in transactions:
            if tx.txid in self._pending_ids:
                continue
            self._proposed_ids.discard(tx.txid)
            staged.append(tx)
        for tx in reversed(staged):
            self._queue.appendleft(tx)
            self._pending_ids.add(tx.txid)
            self.total_requeued += 1
        return len(staged)

    def next_batch(self, max_size: int) -> Tuple[Transaction, ...]:
        """Pop up to ``max_size`` transactions for a new proposal.

        Bamboo's batching strategy: take everything available up to the block
        size, even if that is fewer than a full block.
        """
        if max_size <= 0:
            return ()
        count = min(max_size, len(self._queue))
        batch = []
        for _ in range(count):
            tx = self._queue.popleft()
            self._pending_ids.discard(tx.txid)
            self._proposed_ids.add(tx.txid)
            batch.append(tx)
        return tuple(batch)

    def mark_committed(self, transactions: Sequence[Transaction], txids: Sequence[str]) -> None:
        """Forget a committed block's transactions (garbage collection).

        ``txids`` are the transactions' ids in the same order, which the
        committing replica has already listed.  Set algebra over them: a
        replica proposed 1/n of a block and almost never still queues any of
        it, so the per-transaction loop runs only for a block that hits the
        queue.
        """
        self._proposed_ids.difference_update(txids)
        pending = self._pending_ids
        if pending.isdisjoint(txids):
            return
        queue = self._queue
        for tx in transactions:
            if tx.txid in pending:
                # Committed via another replica's proposal while still queued
                # locally; drop the local copy to avoid proposing a duplicate.
                pending.discard(tx.txid)
                try:
                    queue.remove(tx)
                except ValueError:
                    pass

    def snapshot_ids(self) -> List[str]:
        """Ids of all pending transactions in queue order (for tests)."""
        return [tx.txid for tx in self._queue]
