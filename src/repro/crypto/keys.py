"""Key pairs and the cluster-wide key registry.

Two signing schemes share one interface:

* ``hmac`` — the original simulated scheme.  Tags are HMAC-SHA256 over the
  digest; verification recomputes the tag, which works because the registry
  holds every node's secret (a stand-in for a permissioned PKI).  Cheap and
  deterministic, so the discrete-event model charges *modeled* crypto costs
  instead.
* ``ed25519`` — real RFC 8032 signatures, used by the deployment runtime
  (:mod:`repro.transport`), where crypto cost is *measured* wall-clock work.
  They go through OpenSSL's EVP API on the libcrypto CPython already links
  (:mod:`repro.crypto.openssl`: ~46 µs to sign, ~110 µs to verify through
  the registry on a 2-core reference VM), or through the pure-Python
  :mod:`repro.crypto.ed25519`, RFC 8032's reference equations (~1.2 / ~2.4
  ms), on a CPython whose libcrypto lacks those calls.
  :func:`ed25519_signer` makes that choice once per process;
  ``python -m repro deploy`` reports it as ``signing backend:``.

Both expose ``mac(message) -> tag`` and ``verify_tag(message, tag) -> bool``,
so :func:`repro.crypto.signatures.verify` needs no knowledge of the scheme.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import ModuleType
from typing import Dict

from repro.crypto import ed25519


@cache
def ed25519_signer() -> ModuleType:
    """The module :class:`Ed25519KeyPair` signs through, chosen once per process.

    :mod:`repro.crypto.openssl` if libcrypto exports its calls and they
    reproduce an RFC 8032 vector, else :mod:`repro.crypto.ed25519`.  Both
    define ``SigningKey``, ``VerifyKey`` and ``BACKEND`` (the report's name).
    Imported on first call, so :mod:`ctypes` loads with the first Ed25519 key.
    """
    from repro.crypto import openssl

    return openssl if openssl.load() else ed25519


@dataclass(frozen=True)
class KeyPair:
    """A replica's HMAC-based signing identity (simulation default).

    The "private key" is an HMAC secret derived from the node id and a
    deployment seed; the "public key" is its hash.  Verification requires
    knowing the secret, which the :class:`KeyRegistry` holds for every node —
    this mirrors a permissioned deployment where the membership (and hence
    every public key) is fixed in the configuration.
    """

    node_id: str
    secret: bytes = field(repr=False)

    @property
    def public_key(self) -> str:
        """Hex identifier of the public half of the key."""
        return hashlib.sha256(b"pub:" + self.secret).hexdigest()

    def mac(self, message: bytes) -> bytes:
        """Return the raw authentication tag over ``message``."""
        return hmac.digest(self.secret, message, "sha256")

    def verify_tag(self, message: bytes, tag: bytes) -> bool:
        """Check an authentication tag produced by :meth:`mac`."""
        return hmac.compare_digest(self.mac(message), tag)

    @classmethod
    def generate(cls, node_id: str, deployment_seed: int = 0) -> "KeyPair":
        """Deterministically derive the key pair for ``node_id``."""
        secret = hashlib.sha256(f"key:{deployment_seed}:{node_id}".encode("utf-8")).digest()
        return cls(node_id=node_id, secret=secret)


@dataclass(frozen=True)
class Ed25519KeyPair:
    """A replica's Ed25519 signing identity (deployment mode).

    ``secret`` is the 32-byte RFC 8032 seed.  The same deterministic
    derivation as :class:`KeyPair` keeps deployments reproducible: the seed is
    a hash of the node id and deployment seed, so every process in a cluster
    derives the same membership without key exchange.

    The key is expanded once, on first use, by :func:`ed25519_signer`, and
    the expansion (libcrypto's key handles, or the pure-Python scalar, nonce
    prefix and public point) lives and dies with this object: the membership
    is fixed, so a :class:`KeyRegistry` of n nodes holds n expansions and
    nothing is ever keyed by bytes off the wire.
    """

    node_id: str
    secret: bytes = field(repr=False)

    @cached_property
    def _key(self):
        return ed25519_signer().SigningKey(self.secret)

    @property
    def public_key(self) -> str:
        """Hex encoding of the 32-byte Ed25519 public key."""
        return self.public_key_bytes.hex()

    @property
    def public_key_bytes(self) -> bytes:
        return self._key.verify_key.encoded

    def mac(self, message: bytes) -> bytes:
        """Sign ``message``; the 64-byte signature is the tag."""
        return self._key.sign(message)

    def verify_tag(self, message: bytes, tag: bytes) -> bool:
        """Verify an Ed25519 signature against this node's public key."""
        return self._key.verify_key.verify(message, tag)

    @classmethod
    def generate(cls, node_id: str, deployment_seed: int = 0) -> "Ed25519KeyPair":
        """Deterministically derive the key pair for ``node_id``."""
        secret = hashlib.sha256(f"ed25519:{deployment_seed}:{node_id}".encode("utf-8")).digest()
        return cls(node_id=node_id, secret=secret)


#: Signing scheme name -> key-pair class.
SIGNING_SCHEMES = {
    "hmac": KeyPair,
    "ed25519": Ed25519KeyPair,
}


def available_schemes() -> list[str]:
    """Names of the registered signing schemes."""
    return sorted(SIGNING_SCHEMES)


class KeyRegistry:
    """Holds the key pairs of every node in the deployment.

    In a permissioned blockchain the validator set and its public keys are
    part of the static configuration, so every replica can verify every other
    replica's signatures.  The registry plays that role for both the
    simulation (``scheme="hmac"``) and the real-transport deployment
    (``scheme="ed25519"``).
    """

    def __init__(self, deployment_seed: int = 0, scheme: str = "hmac") -> None:
        if scheme not in SIGNING_SCHEMES:
            raise ValueError(
                f"unknown signing scheme {scheme!r}; expected one of {available_schemes()}"
            )
        self.deployment_seed = deployment_seed
        self.scheme = scheme
        self._keypair_class = SIGNING_SCHEMES[scheme]
        self._keys: Dict[str, object] = {}

    def register(self, node_id: str):
        """Create (or return) the key pair for ``node_id``."""
        if node_id not in self._keys:
            self._keys[node_id] = self._keypair_class.generate(node_id, self.deployment_seed)
        return self._keys[node_id]

    def get(self, node_id: str):
        """Return the key pair for a registered node."""
        if node_id not in self._keys:
            raise KeyError(f"unknown node: {node_id!r}")
        return self._keys[node_id]

    def known_nodes(self) -> list[str]:
        """All node ids with registered keys."""
        return sorted(self._keys)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._keys

    def __len__(self) -> int:
        return len(self._keys)
