"""In-memory key-value execution layer.

The paper's evaluation focuses on protocol-level performance and uses an
in-memory key-value store as the execution layer (§III-D).  The store applies
committed transactions in commit order and remembers which transaction ids
have been applied, which lets the replica avoid re-proposing transactions
that already committed via another branch.

Bounded dedup memory
--------------------
Remembering *every* applied txid forever is O(committed transactions) even
after checkpointing bounded the forest.  :class:`TxidDedup` replaces the
executor's unbounded set with
per-client session tracking: a transaction is its ``(client_id, sequence)``
pair, recorded as a sequence number in its client's session, and each
session keeps only a bounded window of recent sequences plus a *floor* —
every sequence at or below the floor is conservatively treated as already
applied.  Duplicates always arrive close together (a transaction re-proposed
from a forked block, or a client retry within its timeout), so dedup remains
exact within the window; only a transaction committing more than a whole
window of its client's later transactions *after* them could be mistaken —
and the mistake is refusal to double-apply, never a double apply.  Because
floors advance purely as a function of the applied history, which commit
order makes identical on every honest replica, the state machine stays
deterministic.  The pair is read off the transaction's own fields, never
parsed out of its txid string.

The index holds O(clients × window) entries, independent of run length —
and snapshots (:class:`KVSnapshot`, shipped in ``SnapshotResponse``) shrink
accordingly.  The replica's replied-txid index (``_replied_txids``) reuses
:class:`TxidDedup` directly.  Whom a replica answers needs no index of its
own: the replica's mempool is the routing record, holding each admitted
request until it commits (a refused one is answered on arrival), so no
per-transaction structure grows with run length anymore
(``tools/memory_smoke.py`` asserts all of these bounds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.types.transaction import Transaction

#: Per-session dedup window.  Duplicate applies can only arise
#: within the uncommitted fork window plus client retry horizon — a few
#: hundred transactions at the simulated scales — so 4096 is generous.
DEFAULT_DEDUP_WINDOW = 4096

#: What the state machine executes.  Admission
#: (``Replica._process_client_request``) refuses anything else; the commit
#: path skips it.
OPERATIONS = frozenset({"put", "get", "delete"})


class _Session:
    """One client's applied-sequence history: a floor plus recent window."""

    __slots__ = ("floor", "pending")

    def __init__(self, floor: int = -1, pending: Optional[Set[int]] = None) -> None:
        #: Every sequence <= floor counts as applied (conservative).
        self.floor = floor
        #: Applied sequences above the floor (the exact recent window).
        self.pending: Set[int] = pending if pending is not None else set()

    def __contains__(self, seq: int) -> bool:
        return seq <= self.floor or seq in self.pending

    def shrink(self, window: int) -> None:
        """Halve an overflowing window (rare: amortized O(1) per add).

        Keeps the most recent half exactly; everything at or below the new
        floor becomes "applied" by fiat.
        """
        ordered = sorted(self.pending)
        dropped = ordered[: len(ordered) - window // 2]
        self.floor = dropped[-1]
        self.pending = set(ordered[len(dropped):])


@dataclass(frozen=True)
class DedupState:
    """Immutable, serialization-friendly copy of a :class:`TxidDedup`.

    ``sessions`` holds ``(client, floor, sorted pending sequences)`` rows in
    client order.  Two replicas with equal applied history produce
    byte-identical states.
    """

    sessions: Tuple[Tuple[str, int, Tuple[int, ...]], ...]

    @property
    def entry_count(self) -> int:
        """Entries a serialized snapshot ships (for wire-size accounting):
        one per tracked sequence, one floor per session."""
        return sum(1 + len(pending) for _, _, pending in self.sessions)


class TxidDedup:
    """Bounded-memory applied-transaction index (see module docstring)."""

    def __init__(self, window: int = DEFAULT_DEDUP_WINDOW) -> None:
        if window < 2:
            raise ValueError(f"dedup window must be >= 2, got {window}")
        self.window = window
        self._sessions: Dict[str, _Session] = {}

    def contains_transaction(self, transaction: Transaction) -> bool:
        """True if ``transaction``'s ``(client_id, sequence)`` already counts as applied."""
        session = self._sessions.get(transaction.client_id)
        return session is not None and transaction.sequence in session

    def add_transaction(self, transaction: Transaction) -> bool:
        """Record ``transaction`` as applied; False if it already counted as applied."""
        session = self._sessions.get(transaction.client_id)
        if session is None:
            session = self._sessions[transaction.client_id] = _Session()
        seq = transaction.sequence
        if seq in session:
            return False
        session.pending.add(seq)
        if len(session.pending) > self.window:
            session.shrink(self.window)
        return True

    def entry_count(self) -> int:
        """Sequences + floors currently held (the memory bound)."""
        return sum(1 + len(s.pending) for s in self._sessions.values())

    def state(self) -> DedupState:
        """Freeze into an immutable :class:`DedupState` (canonical order)."""
        return DedupState(
            sessions=tuple(
                (client, session.floor, tuple(sorted(session.pending)))
                for client, session in sorted(self._sessions.items())
            ),
        )

    def restore(self, state: DedupState) -> None:
        """Replace the index's content with a frozen state."""
        self._sessions = {
            client: _Session(floor=floor, pending=set(pending))
            for client, floor, pending in state.sessions
        }


@dataclass(frozen=True)
class KVSnapshot:
    """An immutable copy of the executor state at a committed height.

    Taken by the checkpoint subsystem (:mod:`repro.checkpoint`) and shipped
    inside ``SnapshotResponse`` messages; ``items`` is sorted and ``dedup``
    canonically ordered, so two replicas with equal state produce
    byte-identical snapshots.
    """

    items: Tuple[Tuple[str, str], ...]
    dedup: DedupState
    operations_applied: int

    @property
    def payload_bytes(self) -> int:
        """Raw key/value bytes carried by the snapshot (for size accounting)."""
        return sum(len(key) + len(value) for key, value in self.items)


class KeyValueStore:
    """Deterministic key-value state machine."""

    def __init__(self, dedup_window: int = DEFAULT_DEDUP_WINDOW) -> None:
        self._data: Dict[str, str] = {}
        self._applied = TxidDedup(window=dedup_window)
        self.operations_applied = 0
        #: Committed transactions whose operation is not in :data:`OPERATIONS`
        #: (admission refuses them, so only a Byzantine proposer's block
        #: carries one).  A local counter, not part of a snapshot.
        self.operations_invalid = 0
        #: Whether a transaction already counts as applied — the index's own
        #: method, asked once per client request.
        self.transaction_applied = self._applied.contains_transaction

    def apply_batch(self, transactions: Iterable[Transaction]) -> Optional[str]:
        """Apply a committed block's transactions, in order, in one call.

        Total: a transaction naming an unknown operation is counted in
        :attr:`operations_invalid` before any state is touched and changes
        nothing, on every replica alike.  Re-applying a transaction id is a
        no-op too: commits are idempotent, so a transaction that appears both
        in a forked block and in the main chain only takes effect once.

        The loop body is the one place "dedup by session, then put / get /
        delete" is written out (:meth:`TxidDedup.add_transaction` makes the
        same session update through calls): it runs once per committed
        transaction per replica.  Returns what the last transaction read —
        ``None`` unless that was a ``get`` taking effect — which is all
        :meth:`apply` needs.
        """
        sessions = self._applied._sessions
        window = self._applied.window
        data = self._data
        result = None
        fresh = 0
        for transaction in transactions:
            result = None
            operation = transaction.operation
            if operation not in OPERATIONS:
                self.operations_invalid += 1
                continue
            client = transaction.client_id
            session = sessions.get(client)
            if session is None:
                session = sessions[client] = _Session()
            seq = transaction.sequence
            pending = session.pending
            if seq <= session.floor or seq in pending:
                continue
            pending.add(seq)
            if len(pending) > window:
                session.shrink(window)
            fresh += 1
            if operation == "put":
                data[transaction.key] = transaction.value
            elif operation == "get":
                result = data.get(transaction.key)
            else:
                data.pop(transaction.key, None)
        self.operations_applied += fresh
        return result

    def apply(self, transaction: Transaction) -> Optional[str]:
        """Apply one committed transaction; returns the read result for gets.

        :meth:`apply_batch` on a batch of one, except that an unknown
        operation is the caller's error here (nothing is recorded).
        """
        if transaction.operation not in OPERATIONS:
            raise ValueError(f"unknown operation {transaction.operation!r}")
        return self.apply_batch((transaction,))

    def get(self, key: str) -> Optional[str]:
        """Read a key directly (used by tests and examples)."""
        return self._data.get(key)

    def dedup_entries(self) -> int:
        """Dedup-index entries currently held (bounded, see module docs)."""
        return self._applied.entry_count()

    def snapshot(self) -> KVSnapshot:
        """Copy the current state into an immutable :class:`KVSnapshot`."""
        return KVSnapshot(
            items=tuple(sorted(self._data.items())),
            dedup=self._applied.state(),
            operations_applied=self.operations_applied,
        )

    def restore(self, snapshot: KVSnapshot) -> None:
        """Replace the store's state with ``snapshot`` (checkpoint install)."""
        self._data = dict(snapshot.items)
        self._applied.restore(snapshot.dedup)
        self.operations_applied = snapshot.operations_applied

    def state_digest(self) -> int:
        """A cheap state fingerprint for cross-replica consistency checks."""
        return hash(frozenset(self._data.items()))

    def __len__(self) -> int:
        return len(self._data)
