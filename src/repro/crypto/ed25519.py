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
``ctypes`` keys hold 0.8 MB; in a deployment that was +21 % peak RSS, beyond
the benchmark's 15 % bound.  So Ed25519 is built here from the RFC 8032
reference equations on the standard library alone: twisted-Edwards point
arithmetic in extended homogeneous coordinates, SHA-512 key expansion, the
canonical little-endian encodings, and one bit-by-bit double-and-add
(:func:`_scalar_mul`) for key derivation, signing and both products of
verification.  A key is expanded once (:class:`SigningKey`,
:class:`VerifyKey`) and holds no precomputation beyond its decoded point.

This is a correctness-first implementation (validated against the RFC 8032
test vectors and a naive reference of its own in ``tests/test_ed25519.py``),
not a constant-time one — fine for benchmarking a reproduction, unsuitable
for protecting real secrets.  It is not fast either: one scalar
multiplication is ~1.2 ms on the 2-core reference VM, so a signature costs
~1.2 ms and a verification ~2.4 ms, about 25 times OpenSSL's.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

__all__ = ["BACKEND", "SigningKey", "VerifyKey", "SIGNATURE_SIZE", "SEED_SIZE"]

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


def _scalar_mul(scalar: int, point: _Point) -> _Point:
    """``[scalar]point``, bit by bit: double-and-add (RFC 8032 §6)."""
    result = _IDENTITY
    while scalar > 0:
        if scalar & 1:
            result = _point_add(result, point)
        point = _point_add(point, point)
        scalar >>= 1
    return result


def _point_equal(p: _Point, q: _Point) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0


class VerifyKey:
    """A public key decoded once: its encoding and its point ``A``.

    Raises ``ValueError`` for an encoding that is not a curve point.
    """

    __slots__ = ("encoded", "_point")

    def __init__(self, encoded: bytes) -> None:
        self._point = _point_decompress(encoded)
        self.encoded = bytes(encoded)

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check ``signature`` over ``message`` (RFC 8032 §5.1.7).

        ``False`` for anything malformed, never an exception.
        """
        if len(signature) != SIGNATURE_SIZE:
            return False
        r_enc = bytes(signature[:32])
        try:
            r_point = _point_decompress(r_enc)
        except ValueError:
            return False
        s = int.from_bytes(signature[32:], "little")
        if s >= _L:
            return False
        k = int.from_bytes(_sha512(r_enc + self.encoded + message), "little") % _L
        # Cofactorless [S]B == R + [k]A, stricter than the RFC's cofactored
        # equation and what common implementations enforce.
        return _point_equal(_scalar_mul(s, _B), _point_add(r_point, _scalar_mul(k, self._point)))


class SigningKey:
    """A private seed expanded once: clamped scalar, nonce prefix, public key."""

    __slots__ = ("_scalar", "_prefix", "verify_key")

    def __init__(self, seed: bytes) -> None:
        self._scalar, self._prefix = _expand_seed(seed)
        self.verify_key = VerifyKey(_point_compress(_scalar_mul(self._scalar, _B)))

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` (RFC 8032 §5.1.6)."""
        r = int.from_bytes(_sha512(self._prefix + message), "little") % _L
        r_enc = _point_compress(_scalar_mul(r, _B))
        k = int.from_bytes(_sha512(r_enc + self.verify_key.encoded + message), "little") % _L
        return r_enc + int.to_bytes((r + k * self._scalar) % _L, 32, "little")
