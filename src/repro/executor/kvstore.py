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
per-client session tracking: a txid of the canonical ``tx-<client>-<seq>``
shape is recorded as a sequence number in its client's session, and each
session keeps only a bounded window of recent sequences plus a *floor* —
every sequence at or below the floor is conservatively treated as already
applied.  Duplicates always arrive close together (a transaction re-proposed
from a forked block, or a client retry within its timeout), so dedup remains
exact within the window; only a transaction committing more than a whole
window of its client's later transactions *after* them could be mistaken —
and the mistake is refusal to double-apply, never a double apply.  Because
floors advance purely as a function of the applied history, which commit
order makes identical on every honest replica, the state machine stays
deterministic.  A transaction is canonical when its own ``client_id`` and
``sequence`` spell its txid (:attr:`Transaction.canonical_session`); any
other transaction (tests, custom clients) is recorded and looked up by its
raw txid in a bounded FIFO, never by parsing the id string, so a txid that
merely looks like ``tx-<client>-<seq>`` cannot mark that session's sequence
applied.

The index holds O(clients × window) entries, independent of run length —
and snapshots (:class:`KVSnapshot`, shipped in ``SnapshotResponse``) shrink
accordingly.  The replica's reply-routing state gets the same treatment:
``_replied_txids`` reuses :class:`TxidDedup` directly and ``_origin_clients``
is a bounded FIFO (:class:`repro.core.replica.OriginIndex`), so no
per-transaction structure grows with run length anymore
(``tools/memory_smoke.py`` asserts all of these bounds).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.types.transaction import Transaction

#: Per-session (and extras) dedup window.  Duplicate applies can only arise
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
    client order; ``extras`` the non-canonical txids in insertion order.
    Two replicas with equal applied history produce byte-identical states.
    """

    sessions: Tuple[Tuple[str, int, Tuple[int, ...]], ...]
    extras: Tuple[str, ...]

    @property
    def entry_count(self) -> int:
        """Entries a serialized snapshot ships (for wire-size accounting):
        one per tracked sequence, one floor per session, one per extra id."""
        return len(self.extras) + sum(1 + len(pending) for _, _, pending in self.sessions)


class TxidDedup:
    """Bounded-memory applied-transaction index (see module docstring)."""

    def __init__(self, window: int = DEFAULT_DEDUP_WINDOW) -> None:
        if window < 2:
            raise ValueError(f"dedup window must be >= 2, got {window}")
        self.window = window
        self._sessions: Dict[str, _Session] = {}
        #: FIFO of non-canonical txids; ids older than the window are
        #: *forgotten* (they would re-apply), which only affects synthetic
        #: ids — canonical client traffic always takes the session path.
        self._extras: "OrderedDict[str, None]" = OrderedDict()

    def _add_extra(self, txid: str) -> bool:
        if txid in self._extras:
            return False
        self._extras[txid] = None
        while len(self._extras) > self.window:
            self._extras.popitem(last=False)
        return True

    def _add_sequence(self, client: str, seq: int) -> bool:
        session = self._sessions.get(client)
        if session is None:
            session = self._sessions[client] = _Session()
        if seq <= session.floor or seq in session.pending:
            return False
        session.pending.add(seq)
        if len(session.pending) > self.window:
            session.shrink(self.window)
        return True

    def contains_transaction(self, transaction: Transaction) -> bool:
        """True if ``transaction`` already counts as applied.

        A canonical transaction is looked up by its own ``(client_id,
        sequence)`` pair (:attr:`Transaction.canonical_session`), any other
        by its raw txid.
        """
        session_key = transaction.canonical_session
        if session_key is None:
            return transaction.txid in self._extras
        session = self._sessions.get(session_key[0])
        return session is not None and session_key[1] in session

    def add_transaction(self, transaction: Transaction) -> bool:
        """Record ``transaction`` as applied; False if it already counted as applied.

        Keyed exactly as :meth:`contains_transaction` looks it up.
        """
        session_key = transaction.canonical_session
        if session_key is None:
            return self._add_extra(transaction.txid)
        return self._add_sequence(*session_key)

    def entry_count(self) -> int:
        """Sequences + floors + extras currently held (the memory bound)."""
        return len(self._extras) + sum(
            1 + len(s.pending) for s in self._sessions.values()
        )

    def state(self) -> DedupState:
        """Freeze into an immutable :class:`DedupState` (canonical order)."""
        return DedupState(
            sessions=tuple(
                (client, session.floor, tuple(sorted(session.pending)))
                for client, session in sorted(self._sessions.items())
            ),
            extras=tuple(self._extras),
        )

    def restore(self, state: DedupState) -> None:
        """Replace the index's content with a frozen state."""
        self._sessions = {
            client: _Session(floor=floor, pending=set(pending))
            for client, floor, pending in state.sessions
        }
        self._extras = OrderedDict((txid, None) for txid in state.extras)


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
        applied = self._applied
        sessions = applied._sessions
        window = applied.window
        data = self._data
        result = None
        fresh = 0
        for transaction in transactions:
            result = None
            operation = transaction.operation
            if operation not in OPERATIONS:
                self.operations_invalid += 1
                continue
            session_key = transaction.canonical_session
            if session_key is not None:
                client, seq = session_key
                session = sessions.get(client)
                if session is None:
                    session = sessions[client] = _Session()
                pending = session.pending
                if seq <= session.floor or seq in pending:
                    continue
                pending.add(seq)
                if len(pending) > window:
                    session.shrink(window)
            elif not applied._add_extra(transaction.txid):
                continue
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
