"""Client transactions (requests) replicated by the protocols."""

from __future__ import annotations

import itertools
from typing import Optional

_COUNTER = itertools.count()


class Transaction:
    """A client operation to be ordered by the blockchain.

    The execution layer is a simple key-value store (as in the paper), so a
    transaction carries an operation, a key, and a value.  ``payload_size``
    is the number of *extra* payload bytes attached to the request; it feeds
    the NIC/bandwidth model but its contents are irrelevant, so no actual
    byte string is materialized.

    A plain slotted class rather than a frozen dataclass: transactions are
    created on the client hot path (one per request), and the
    frozen-dataclass ``object.__setattr__`` per field costs several times a
    direct slot write.  Slots also mean an instance is one object to the
    cyclic collector, with no ``__dict__`` beside it.  Treat instances as
    immutable all the same — they are shared between the mempool, blocks,
    and every replica that applies them.

    ``canonical_session`` is ``(client_id, sequence)`` when the txid has the
    canonical ``tx-<client>-<seq>`` shape, else ``None`` (hand-built ids,
    which take the dedup index's string paths).  It is derived once, here,
    for every way a transaction comes to exist — ``create``, the wire codec,
    a test — so no replica that applies the object re-parses its id.
    """

    _fields = (
        "txid", "client_id", "operation", "key", "value",
        "payload_size", "created_at", "sequence",
    )
    __slots__ = _fields + ("canonical_session",)

    def __init__(
        self,
        txid: str,
        client_id: str,
        operation: str = "put",
        key: str = "",
        value: str = "",
        payload_size: int = 0,
        created_at: float = 0.0,
        sequence: Optional[int] = None,
    ) -> None:
        self.txid = txid
        self.client_id = client_id
        self.operation = operation
        self.key = key
        self.value = value
        self.payload_size = payload_size
        self.created_at = created_at
        self.sequence = sequence = next(_COUNTER) if sequence is None else sequence
        self.canonical_session = (
            (client_id, sequence) if txid == f"tx-{client_id}-{sequence}" else None
        )

    @classmethod
    def create(
        cls,
        client_id: str,
        created_at: float,
        payload_size: int = 0,
        operation: str = "put",
        key: Optional[str] = None,
        value: str = "",
        sequence: Optional[int] = None,
    ) -> "Transaction":
        """Build a transaction with a unique id.

        Pass an explicit per-client ``sequence`` for ids that are
        deterministic across repeated runs in one process (clients do: their
        ``(client_id, sequence)`` pair is unique cluster-wide); the default
        falls back to a process-global counter.
        """
        if sequence is None:
            sequence = next(_COUNTER)
        return cls(
            txid=f"tx-{client_id}-{sequence}",
            client_id=client_id,
            operation=operation,
            key=key if key is not None else f"k{sequence % 1024}",
            value=value,
            payload_size=payload_size,
            created_at=created_at,
            sequence=sequence,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Transaction:
            return NotImplemented
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self) -> int:
        return hash(self.txid)

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"Transaction({parts})"
