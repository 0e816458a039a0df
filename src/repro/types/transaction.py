"""Client transactions (requests) replicated by the protocols."""

from __future__ import annotations

from typing import Optional


class Transaction:
    """A client operation to be ordered by the blockchain.

    The execution layer is a simple key-value store (as in the paper), so a
    transaction carries an operation, a key, and a value.  ``payload_size``
    is the number of *extra* payload bytes attached to the request; it feeds
    the NIC/bandwidth model but its contents are irrelevant, so no actual
    byte string is materialized.

    A transaction *is* its ``(client_id, sequence)`` pair: a client numbers
    its requests, so the pair is unique cluster-wide, and the executor
    dedups by it.  ``txid`` is that pair spelled ``tx-<client>-<sequence>``,
    formatted once, here, for every way a transaction comes to exist
    (``create``, the wire codec, a test); it is not a field, so it never
    travels the wire and can never disagree with the pair.

    A plain slotted class rather than a frozen dataclass: transactions are
    created on the client hot path (one per request), and the
    frozen-dataclass ``object.__setattr__`` per field costs several times a
    direct slot write.  Slots also mean an instance is one object to the
    cyclic collector, with no ``__dict__`` beside it.  Treat instances as
    immutable all the same — they are shared between the mempool, blocks,
    and every replica that applies them.
    """

    _fields = (
        "client_id", "operation", "key", "value",
        "payload_size", "created_at", "sequence",
    )
    __slots__ = _fields + ("txid",)

    def __init__(
        self,
        client_id: str,
        operation: str,
        key: str,
        value: str,
        payload_size: int,
        created_at: float,
        sequence: int,
    ) -> None:
        self.client_id = client_id
        self.operation = operation
        self.key = key
        self.value = value
        self.payload_size = payload_size
        self.created_at = created_at
        self.sequence = sequence
        self.txid = f"tx-{client_id}-{sequence}"

    @classmethod
    def create(
        cls,
        client_id: str,
        sequence: int,
        created_at: float,
        payload_size: int = 0,
        operation: str = "put",
        key: Optional[str] = None,
        value: str = "",
    ) -> "Transaction":
        """Build a client's ``sequence``-th transaction (key ``k<sequence % 1024>`` by default)."""
        # Positional, in ``_fields`` order: one is built per request, and a
        # keyword call costs about twice as much.
        return cls(
            client_id, operation, key if key is not None else f"k{sequence % 1024}",
            value, payload_size, created_at, sequence,
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
