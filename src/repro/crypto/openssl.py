"""Ed25519 through OpenSSL's EVP API, on the libcrypto CPython already links.

:mod:`hashlib` is backed by ``_hashlib``, an extension linked against
OpenSSL's libcrypto, and every CPython >= 3.10 requires OpenSSL >= 1.1.1,
whose EVP interface signs and verifies Ed25519 (``EVP_PKEY_new_raw_*_key``,
``EVP_DigestSign`` / ``EVP_DigestVerify``).  :func:`load` opens ``_hashlib``
with :mod:`ctypes` — the loader hands back the library already mapped, and a
symbol lookup through it reaches its libcrypto — binds those calls and checks
them against RFC 8032's first test vector.  So the repo takes no dependency,
and nothing here is imported before the first Ed25519 key is used
(:func:`repro.crypto.keys.ed25519_signer`): ``import repro.api`` never loads
:mod:`ctypes`.

:class:`SigningKey` and :class:`VerifyKey` have the interface of their
namesakes in :mod:`repro.crypto.ed25519`, which stays the RFC 8032 reference
and the signer wherever these calls do not load.  Each key owns one
``EVP_PKEY``, freed by a finalizer when the key dies; each operation owns one
``EVP_MD_CTX``, freed in a ``finally``.  Lengths are checked before every
foreign call, and a public key must decode to a curve point by the reference's
rule, so both backends accept and refuse the same inputs.
"""

from __future__ import annotations

import ctypes
import weakref
from ctypes import POINTER, byref, c_char_p, c_int, c_size_t, c_void_p
from types import SimpleNamespace

from repro.crypto import ed25519

__all__ = ["BACKEND", "SigningKey", "VerifyKey", "load"]

#: What a deployment report names this signer.
BACKEND = "openssl"

#: ``EVP_PKEY_ED25519``, i.e. ``NID_ED25519``.
_EVP_PKEY_ED25519 = 1087

#: Every call as ``name: (restype, argtypes)``.  Handles (``EVP_PKEY *``,
#: ``EVP_MD_CTX *``, and the unused ``ENGINE *`` / ``EVP_MD *`` /
#: ``EVP_PKEY_CTX **``, always NULL) are ``c_void_p``: the default ``int``
#: restype would truncate a pointer.  Byte buffers are ``c_char_p``.
_PROTOTYPES = {
    "EVP_PKEY_new_raw_private_key": (c_void_p, [c_int, c_void_p, c_char_p, c_size_t]),
    "EVP_PKEY_new_raw_public_key": (c_void_p, [c_int, c_void_p, c_char_p, c_size_t]),
    "EVP_PKEY_get_raw_public_key": (c_int, [c_void_p, c_char_p, POINTER(c_size_t)]),
    "EVP_PKEY_free": (None, [c_void_p]),
    "EVP_MD_CTX_new": (c_void_p, []),
    "EVP_MD_CTX_free": (None, [c_void_p]),
    "EVP_DigestSignInit": (c_int, [c_void_p, c_void_p, c_void_p, c_void_p, c_void_p]),
    "EVP_DigestSign": (c_int, [c_void_p, c_char_p, POINTER(c_size_t), c_char_p, c_size_t]),
    "EVP_DigestVerifyInit": (c_int, [c_void_p, c_void_p, c_void_p, c_void_p, c_void_p]),
    "EVP_DigestVerify": (c_int, [c_void_p, c_char_p, c_size_t, c_char_p, c_size_t]),
}

#: The bound calls, one attribute per prototype (set by :func:`load`).
_lib = SimpleNamespace()

#: RFC 8032 §7.1, test 1: seed, public key, and the signature of b"".
_RFC_SEED = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
_RFC_PUBLIC = bytes.fromhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
_RFC_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")


def load() -> bool:
    """Bind the calls and check them on the RFC vector; ``False`` if either fails."""
    global _lib
    try:
        import _hashlib

        library = ctypes.CDLL(_hashlib.__file__)
        bound = {}
        for name, (restype, argtypes) in _PROTOTYPES.items():
            function = library[name]
            function.restype, function.argtypes = restype, argtypes
            bound[name] = function
    except (ImportError, OSError, AttributeError):
        return False
    _lib = SimpleNamespace(**bound)
    try:
        key = SigningKey(_RFC_SEED)
        return (key.verify_key.encoded == _RFC_PUBLIC
                and key.sign(b"") == _RFC_SIGNATURE
                and key.verify_key.verify(b"", _RFC_SIGNATURE))
    except (ValueError, RuntimeError):
        return False


def _owned_key(new, raw: bytes, owner: object) -> int:
    """An ``EVP_PKEY`` made from ``raw`` by ``new``, freed when ``owner`` dies."""
    pkey = new(_EVP_PKEY_ED25519, None, raw, len(raw))
    if not pkey:
        raise ValueError("libcrypto refused the Ed25519 key")
    weakref.finalize(owner, _lib.EVP_PKEY_free, pkey)
    return pkey


class VerifyKey:
    """A public key held by libcrypto.

    Raises ``ValueError`` for an encoding that is not a curve point.
    """

    __slots__ = ("encoded", "_pkey", "__weakref__")

    def __init__(self, encoded: bytes) -> None:
        ed25519.VerifyKey(encoded)  # the reference's rule: 32 bytes that decode
        self.encoded = bytes(encoded)
        self._pkey = _owned_key(_lib.EVP_PKEY_new_raw_public_key, self.encoded, self)

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check ``signature`` over ``message``; ``False`` for anything malformed."""
        if len(signature) != ed25519.SIGNATURE_SIZE:
            return False
        ctx = _lib.EVP_MD_CTX_new()
        if not ctx:
            raise MemoryError("EVP_MD_CTX_new")
        try:
            return (_lib.EVP_DigestVerifyInit(ctx, None, None, None, self._pkey) == 1
                    and _lib.EVP_DigestVerify(ctx, signature, len(signature),
                                              message, len(message)) == 1)
        finally:
            _lib.EVP_MD_CTX_free(ctx)


class SigningKey:
    """A private seed held by libcrypto, and its public key."""

    __slots__ = ("_pkey", "verify_key", "__weakref__")

    def __init__(self, seed: bytes) -> None:
        if len(seed) != ed25519.SEED_SIZE:
            raise ValueError(f"seed must be {ed25519.SEED_SIZE} bytes, got {len(seed)}")
        self._pkey = _owned_key(_lib.EVP_PKEY_new_raw_private_key, bytes(seed), self)
        encoded = ctypes.create_string_buffer(32)
        size = c_size_t(len(encoded))
        if _lib.EVP_PKEY_get_raw_public_key(self._pkey, encoded, byref(size)) != 1 or size.value != 32:
            raise RuntimeError("EVP_PKEY_get_raw_public_key failed")
        self.verify_key = VerifyKey(encoded.raw)

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` (RFC 8032 §5.1.6)."""
        ctx = _lib.EVP_MD_CTX_new()
        if not ctx:
            raise MemoryError("EVP_MD_CTX_new")
        try:
            signature = ctypes.create_string_buffer(ed25519.SIGNATURE_SIZE)
            size = c_size_t(len(signature))
            if (_lib.EVP_DigestSignInit(ctx, None, None, None, self._pkey) != 1
                    or _lib.EVP_DigestSign(ctx, signature, byref(size), message, len(message)) != 1
                    or size.value != ed25519.SIGNATURE_SIZE):
                raise RuntimeError("EVP_DigestSign failed")
            return signature.raw
        finally:
            _lib.EVP_MD_CTX_free(ctx)
