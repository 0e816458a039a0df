"""Pure-Python Ed25519 (RFC 8032): the reference, and the fallback signer.

The simulation charges *modeled* CPU costs for cryptography and authenticates
with cheap HMAC tags (:mod:`repro.crypto.keys`).  The deployment runtime
(:mod:`repro.transport`) instead *measures* crypto cost, which requires an
actual signature scheme.  It signs through OpenSSL on the libcrypto CPython
already links (:mod:`repro.crypto.openssl`), and this module has two jobs
beside it: it is the RFC 8032 reference every native result is compared
against in ``tests/test_ed25519.py``, and it is the signer on a CPython whose
libcrypto lacks the EVP Ed25519 calls.  The repo takes no crypto dependency:
the pyca ``cryptography`` binding signs as fast as the ``ctypes`` route, but
four of its keys hold 7.3 MB more than ``import repro.api`` alone, where four
``ctypes`` keys hold 0.8 MB (and four keys here, with their tables, 3.0 MB);
in a deployment that was +21 % peak RSS, beyond the benchmark's 15 % bound.
So Ed25519 is built here from the RFC 8032 reference equations on the
standard library alone: twisted-Edwards point arithmetic in extended
homogeneous coordinates, SHA-512 key expansion, and the canonical
little-endian encodings.

Every scalar multiplication is fixed-base: a key is expanded once
(:class:`SigningKey`, :class:`VerifyKey`) and multiplies through a table of
signed windows — row ``i`` holds ``[j * 2**(w * i)]P`` for ``1 <= j <=
2**(w - 1)``, stored affine, and a negative digit reads the same entry
mirrored — so ``[s]P`` is one mixed addition per row and no doublings.  The
tables are sized by use.  The base point's is one object per process and
serves seven of the ten multiplications of a consensus view (each sign's
``[r]B``, each verify's ``[S]B``): ``w = 8``, 33 rows of 128 entries, ~1.2 MB,
~40 ms to build.  Each public key's table of ``-A`` serves that key's
``[k](-A)`` only: ``w = 6``, 43 rows of 32, ~350 kB, ~12 ms.  So a signature
costs at most 33 additions and a verification 76 (``tests/test_ed25519.py``
holds those two numbers).  Every table is built on first use, never at import.

This is a correctness-first implementation (validated against the RFC 8032
test vectors and a naive double-and-add reference in
``tests/test_ed25519.py``), not a constant-time one — fine for benchmarking a
reproduction, unsuitable for protecting real secrets.  Speed is a hundred-odd
microseconds per operation (sign ~0.14 ms, verify ~0.30 ms through the key
registry on the reference host), about three times OpenSSL's.
"""

from __future__ import annotations

import functools
import hashlib
from typing import List, Optional, Tuple

__all__ = ["BACKEND", "SigningKey", "VerifyKey", "public_key", "sign", "verify",
           "SIGNATURE_SIZE", "SEED_SIZE"]

#: What a deployment report names this signer.
BACKEND = "python"

#: Ed25519 signatures are 64 bytes; seeds and public keys 32.
SIGNATURE_SIZE = 64
SEED_SIZE = 32

_P = 2 ** 255 - 19
_L = 2 ** 252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)

#: A point is (X, Y, Z, T) in extended homogeneous coordinates with
#: x = X/Z, y = Y/Z, x*y = T/Z.
_Point = Tuple[int, int, int, int]

_IDENTITY: _Point = (0, 1, 1, 0)


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _point_add(p: _Point, q: _Point) -> _Point:
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = 2 * t1 * t2 * _D % _P
    d = 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _recover_x(y: int, sign_bit: int) -> int:
    """Solve the curve equation for x given y (RFC 8032 §5.1.3)."""
    if y >= _P:
        raise ValueError("invalid point encoding: y out of range")
    x2 = (y * y - 1) * pow(_D * y * y + 1, _P - 2, _P) % _P
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P != 0:
        x = x * _SQRT_M1 % _P
    if (x * x - x2) % _P != 0:
        raise ValueError("invalid point encoding: not on the curve")
    if x == 0 and sign_bit == 1:
        raise ValueError("invalid point encoding: x is zero with sign bit set")
    if x & 1 != sign_bit:
        x = _P - x
    return x


# The standard base point: y = 4/5, x recovered with the even sign.
_BY = 4 * pow(5, _P - 2, _P) % _P
_BX = _recover_x(_BY, 0)
_B: _Point = (_BX, _BY, 1, _BX * _BY % _P)


def _point_compress(p: _Point) -> bytes:
    x, y, z, _ = p
    zinv = pow(z, -1, _P)
    x, y = x * zinv % _P, y * zinv % _P
    return int.to_bytes(y | ((x & 1) << 255), 32, "little")


def _point_decompress(data: bytes) -> _Point:
    if len(data) != 32:
        raise ValueError("invalid point encoding: expected 32 bytes")
    encoded = int.from_bytes(data, "little")
    y = encoded & ((1 << 255) - 1)
    x = _recover_x(y, encoded >> 255)
    return (x, y, 1, x * y % _P)


def _expand_seed(seed: bytes) -> Tuple[int, bytes]:
    """Derive the clamped scalar and the nonce prefix from a 32-byte seed."""
    if len(seed) != SEED_SIZE:
        raise ValueError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    digest = _sha512(seed)
    scalar = int.from_bytes(digest[:32], "little")
    scalar &= (1 << 254) - 8
    scalar |= 1 << 254
    return scalar, digest[32:]


#: A table entry is an affine point as (y + x, y - x, 2 * d * x * y).
_Table = List[List[Tuple[int, int, int]]]

#: Window widths: wide for the one table every key shares, narrower for the
#: table each public key holds of its own (sizes in the module docstring).
_BASE_WINDOW = 8
_KEY_WINDOW = 6


def _build_table(point: _Point, width: int) -> _Table:
    """The signed ``width``-bit window table: ``rows[i][j - 1] = [j * 2**(width * i)]point``.

    ``1 <= j <= 2**(width - 1)``; the negative digits reuse the same entries.
    ``256 // width + 1`` rows cover any scalar below ``2**256`` plus the carry
    out of its top window.
    """
    half = 1 << (width - 1)
    points = []
    for _ in range(256 // width + 1):
        row = [point]
        for _ in range(half - 1):
            row.append(_point_add(row[-1], point))
        points += row
        point = _point_add(row[-1], row[-1])
    # Make every entry affine with one inversion for all Z (Montgomery's trick).
    partial = [1]
    for p in points:
        partial.append(partial[-1] * p[2] % _P)
    inverse = pow(partial[-1], -1, _P)
    entries = []
    for (x, y, z, _), before in zip(reversed(points), reversed(partial[:-1])):
        zinv, inverse = inverse * before % _P, inverse * z % _P
        x, y = x * zinv % _P, y * zinv % _P
        entries.append(((y + x) % _P, (y - x) % _P, 2 * _D * x * y % _P))
    entries.reverse()
    return [entries[i:i + half] for i in range(0, len(entries), half)]


@functools.cache
def _base_table() -> _Table:
    return _build_table(_B, _BASE_WINDOW)


def _table_mul(scalar: int, table: _Table, start: _Point = _IDENTITY) -> _Point:
    """``start + [scalar]P`` for the point ``table`` was built from (``scalar < 2**256``).

    The scalar is recoded into signed digits of the table's own width, one per
    row: a window above ``2**(width - 1)`` becomes ``window - 2**width`` and
    carries one into the next.  ``-(x, y)`` is ``(-x, y)``, so a negative digit
    reads the stored entry with ``y + x`` and ``y - x`` swapped and ``2dxy``
    negated.  One mixed addition per non-zero digit, no doublings.
    """
    x, y, z, t = start
    half = len(table[0])
    width = half.bit_length()
    full = half + half
    mask = full - 1
    carry = 0
    for row in table:
        digit = (scalar & mask) + carry
        scalar >>= width
        carry = digit > half
        if carry:
            digit -= full
        if digit:
            if digit > 0:
                y_plus_x, y_minus_x, t2d = row[digit - 1]
            else:
                y_minus_x, y_plus_x, t2d = row[-digit - 1]
                t2d = -t2d
            a = (y - x) * y_minus_x % _P
            b = (y + x) * y_plus_x % _P
            c = t * t2d % _P
            d = z + z
            e, f, g, h = b - a, d - c, d + c, b + a
            x, y, z, t = e * f % _P, g * h % _P, f * g % _P, e * h % _P
    return (x, y, z, t)


class VerifyKey:
    """A public key expanded once: its encoding, ``-A`` and ``-A``'s window table.

    Raises ``ValueError`` for an encoding that is not a curve point.
    """

    __slots__ = ("encoded", "_negated", "_table")

    def __init__(self, encoded: bytes) -> None:
        x, y, _, t = _point_decompress(encoded)
        self.encoded = bytes(encoded)
        self._negated: _Point = (-x % _P, y, 1, -t % _P)
        self._table: Optional[_Table] = None

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check ``signature`` over ``message``; ``False`` for anything malformed."""
        if len(signature) != SIGNATURE_SIZE:
            return False
        r_enc = bytes(signature[:32])
        s = int.from_bytes(signature[32:], "little")
        if s >= _L:
            return False
        if self._table is None:
            self._table = _build_table(self._negated, _KEY_WINDOW)
        k = int.from_bytes(_sha512(r_enc + self.encoded + message), "little") % _L
        # Cofactorless check [S]B - [k]A == R, stricter than the RFC's cofactored
        # equation and what common implementations enforce.  Comparing encodings
        # also rejects every R that does not decode (y >= p, off the curve, x = 0
        # with the sign bit set): compression never produces one.
        return _point_compress(_table_mul(k, self._table, _table_mul(s, _base_table()))) == r_enc


class SigningKey:
    """A private seed expanded once: clamped scalar, nonce prefix, public key."""

    __slots__ = ("_scalar", "_prefix", "verify_key")

    def __init__(self, seed: bytes) -> None:
        self._scalar, self._prefix = _expand_seed(seed)
        self.verify_key = VerifyKey(_point_compress(_table_mul(self._scalar, _base_table())))

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` (RFC 8032 §5.1.6)."""
        r = int.from_bytes(_sha512(self._prefix + message), "little") % _L
        r_enc = _point_compress(_table_mul(r, _base_table()))
        k = int.from_bytes(_sha512(r_enc + self.verify_key.encoded + message), "little") % _L
        return r_enc + int.to_bytes((r + k * self._scalar) % _L, 32, "little")


#: Public keys expanded by the module-level :func:`verify`.  Bounded: the keys
#: come from the caller (possibly off the wire) and each holds a ~350 kB table.
#: A malformed key raises and is therefore never cached.
_expanded_verify_key = functools.lru_cache(maxsize=16)(VerifyKey)


def public_key(seed: bytes) -> bytes:
    """The 32-byte public key for a 32-byte private seed."""
    return SigningKey(seed).verify_key.encoded


def sign(seed: bytes, message: bytes) -> bytes:
    """Sign ``message`` with the private ``seed`` (expanded on every call)."""
    return SigningKey(seed).sign(message)


def verify(pub: bytes, message: bytes, signature: bytes) -> bool:
    """Check ``signature`` over ``message`` against a public key.

    Returns ``False`` (never raises) for malformed encodings or forged
    signatures, matching the discard-garbage contract of
    :func:`repro.crypto.signatures.verify`.
    """
    try:
        key = _expanded_verify_key(bytes(pub))
    except ValueError:
        return False
    return key.verify(message, signature)
