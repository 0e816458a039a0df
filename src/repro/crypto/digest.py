"""Hashing helpers used for block identifiers and message digests."""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

Hashable = Union[str, bytes, int, float, None]


def digest_bytes(data: bytes) -> str:
    """Return the hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def digest_fields(*fields: Hashable) -> str:
    """Digest a sequence of primitive fields with unambiguous framing.

    Each field is rendered with a type tag and a length prefix so that
    ``digest_fields("ab", "c") != digest_fields("a", "bc")``.
    """
    hasher = hashlib.sha256()
    for field in fields:
        encoded = _encode(field)
        hasher.update(len(encoded).to_bytes(4, "big"))
        hasher.update(encoded)
    return hasher.hexdigest()


def digest_strings(fields: Iterable[str]) -> str:
    """Digest an iterable of strings; equals ``digest_fields(*fields)``.

    Specialized for the block-id hot path (one digest over every txid in a
    block): the frames are assembled into a single buffer and hashed with
    one C-level update instead of two per field.
    """
    parts = []
    append = parts.append
    for field in fields:
        encoded = field.encode("utf-8")
        append((len(encoded) + 1).to_bytes(4, "big"))
        append(b"S")
        append(encoded)
    return hashlib.sha256(b"".join(parts)).hexdigest()


def _encode(field: Hashable) -> bytes:
    if field is None:
        return b"N"
    if isinstance(field, bytes):
        return b"B" + field
    if isinstance(field, str):
        return b"S" + field.encode("utf-8")
    if isinstance(field, bool):
        return b"O" + (b"1" if field else b"0")
    if isinstance(field, int):
        return b"I" + str(field).encode("ascii")
    if isinstance(field, float):
        return b"F" + repr(field).encode("ascii")
    raise TypeError(f"cannot digest field of type {type(field)!r}")
