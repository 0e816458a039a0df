"""Both Ed25519 signers: RFC 8032 vectors, a naive reference, edge encodings.

:mod:`repro.crypto.ed25519` multiplies through precomputed signed-window
tables.  The reference below is the implementation it replaced — bit-by-bit
double-and-add on the RFC's equations, its own arithmetic, nothing shared with
the module — so the differential tests pin every public key and signature
byte for byte and the accept set of ``verify`` case by case.  The OpenSSL
signer (:mod:`repro.crypto.openssl`) runs the RFC vectors and every edge case
beside it, and a property pins the two byte for byte on random input.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ed25519, openssl
from repro.crypto.keys import KeyRegistry, ed25519_signer
from repro.crypto.signatures import sign, verify


# --------------------------------------------------------------------------
# reference implementation (kept naive on purpose)

P = 2 ** 255 - 19
L = 2 ** 252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, P - 2, P)) % P
SQRT_M1 = pow(2, (P - 1) // 4, P)


def ref_add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * D % P
    d = 2 * z1 * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def ref_mul(scalar, point):
    result = (0, 1, 1, 0)
    while scalar > 0:
        if scalar & 1:
            result = ref_add(result, point)
        point = ref_add(point, point)
        scalar >>= 1
    return result


def ref_equal(p, q):
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def ref_recover_x(y, sign_bit):
    if y >= P:
        raise ValueError("y out of range")
    x2 = (y * y - 1) * pow(D * y * y + 1, P - 2, P) % P
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P != 0:
        x = x * SQRT_M1 % P
    if (x * x - x2) % P != 0:
        raise ValueError("not on the curve")
    if x == 0 and sign_bit == 1:
        raise ValueError("x is zero with sign bit set")
    if x & 1 != sign_bit:
        x = P - x
    return x


BY = 4 * pow(5, P - 2, P) % P
BX = ref_recover_x(BY, 0)
B = (BX, BY, 1, BX * BY % P)


def ref_compress(p):
    x, y, z, _ = p
    zinv = pow(z, P - 2, P)
    x, y = x * zinv % P, y * zinv % P
    return int.to_bytes(y | ((x & 1) << 255), 32, "little")


def ref_decompress(data):
    if len(data) != 32:
        raise ValueError("expected 32 bytes")
    encoded = int.from_bytes(data, "little")
    y = encoded & ((1 << 255) - 1)
    x = ref_recover_x(y, encoded >> 255)
    return (x, y, 1, x * y % P)


def ref_expand(seed):
    digest = hashlib.sha512(seed).digest()
    scalar = int.from_bytes(digest[:32], "little")
    scalar &= (1 << 254) - 8
    scalar |= 1 << 254
    return scalar, digest[32:]


def ref_public_key(seed):
    return ref_compress(ref_mul(ref_expand(seed)[0], B))


def ref_sign(seed, message):
    scalar, prefix = ref_expand(seed)
    pub = ref_compress(ref_mul(scalar, B))
    r = int.from_bytes(hashlib.sha512(prefix + message).digest(), "little") % L
    r_enc = ref_compress(ref_mul(r, B))
    k = int.from_bytes(hashlib.sha512(r_enc + pub + message).digest(), "little") % L
    return r_enc + int.to_bytes((r + k * scalar) % L, 32, "little")


def ref_verify(pub, message, signature):
    if len(pub) != 32 or len(signature) != 64:
        return False
    try:
        a_point = ref_decompress(pub)
        r_point = ref_decompress(signature[:32])
    except ValueError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    k = int.from_bytes(hashlib.sha512(signature[:32] + pub + message).digest(), "little") % L
    return ref_equal(ref_mul(s, B), ref_add(r_point, ref_mul(k, a_point)))


def flip(data: bytes, bit: int) -> bytes:
    return (int.from_bytes(data, "little") ^ (1 << bit)).to_bytes(len(data), "little")


def encode(y: int, sign_bit: int = 0) -> bytes:
    return (y | (sign_bit << 255)).to_bytes(32, "little")


# --------------------------------------------------------------------------
# the two signers, behind the module-level calls of repro.crypto.ed25519


def module_calls(module):
    """``public_key`` / ``sign`` / ``verify`` as ``ed25519`` defines them, on ``module``'s keys."""

    def verify_with(pub, message, signature):
        try:
            key = module.VerifyKey(pub)
        except ValueError:
            return False
        return key.verify(message, signature)

    return SimpleNamespace(
        public_key=lambda seed: module.SigningKey(seed).verify_key.encoded,
        sign=lambda seed, message: module.SigningKey(seed).sign(message),
        verify=verify_with, SigningKey=module.SigningKey, VerifyKey=module.VerifyKey,
    )


def native_signer():
    """The OpenSSL signer, or a skip on a CPython whose libcrypto lacks it."""
    if ed25519_signer() is not openssl:
        pytest.skip("this CPython's libcrypto exports no EVP Ed25519 calls")
    return module_calls(openssl)


@pytest.fixture(params=["python", "openssl"])
def signer(request):
    return ed25519 if request.param == "python" else native_signer()


@pytest.fixture(scope="module")
def native():
    return native_signer()


# --------------------------------------------------------------------------
# RFC 8032 §7.1

MESSAGE_1024 = bytes.fromhex(
    "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98"
    "fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8"
    "79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d"
    "658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc"
    "1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe"
    "ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e"
    "06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef"
    "efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7"
    "aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1"
    "85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2"
    "d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24"
    "554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270"
    "88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc"
    "2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07"
    "07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba"
    "b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a"
    "ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e"
    "c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7"
    "51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c"
    "42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8"
    "ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df"
    "f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08"
    "d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649"
    "de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4"
    "88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3"
    "2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e"
    "6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f"
    "b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5"
    "0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1"
    "369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d"
    "b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c"
    "0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0"
)

#: (name, seed, public key, message, signature)
RFC8032_VECTORS = [
    ("test 1",
     "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
     b"",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"),
    ("test 2",
     "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     b"\x72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"),
    ("test 3",
     "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     b"\xaf\x82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"),
    ("test 1024",
     "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
     "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e",
     MESSAGE_1024,
     "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350"
     "aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03"),
    ("test SHA(abc)",
     "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
     "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
     hashlib.sha512(b"abc").digest(),
     "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
     "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"),
]


@pytest.mark.parametrize("name,seed,pub,message,signature", RFC8032_VECTORS,
                         ids=[v[0] for v in RFC8032_VECTORS])
def test_rfc8032_vector(signer, name, seed, pub, message, signature):
    seed, pub, signature = bytes.fromhex(seed), bytes.fromhex(pub), bytes.fromhex(signature)
    assert len(MESSAGE_1024) == 1023
    assert signer.public_key(seed) == pub
    assert signer.sign(seed, message) == signature
    assert signer.verify(pub, message, signature)
    assert not signer.verify(pub, message + b"x", signature)
    assert not signer.verify(pub, message, flip(signature, 0))


# --------------------------------------------------------------------------
# differential against the reference


def test_keys_and_signatures_are_byte_identical_to_the_reference():
    rng = random.Random(8032)
    other = ed25519.SigningKey(rng.randbytes(32)).verify_key
    for _ in range(200):
        seed, message = rng.randbytes(32), rng.randbytes(rng.randrange(0, 96))
        key = ed25519.SigningKey(seed)
        own, signature = key.verify_key, key.sign(message)
        assert own.encoded == ref_public_key(seed) == ed25519.public_key(seed)
        assert signature == ref_sign(seed, message) == ed25519.sign(seed, message)

        cases = {
            "valid": (own, message, signature, True),
            "bit-flipped R": (own, message, flip(signature, rng.randrange(256)), False),
            "bit-flipped S": (own, message, flip(signature, 256 + rng.randrange(256)), False),
            "altered message": (own, message + b"!", signature, False),
            "wrong signer": (other, message, signature, False),
        }
        for label, (verify_key, case_message, case_signature, expected) in cases.items():
            assert verify_key.verify(case_message, case_signature) is expected, label
            assert ref_verify(verify_key.encoded, case_message, case_signature) is expected, label
    assert ed25519.verify(own.encoded, message, signature)


@settings(max_examples=40, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), message=st.binary(max_size=96),
       bit=st.integers(0, 511))
def test_openssl_is_byte_identical_to_the_python_signer(native, seed, message, bit):
    key, reference = native.SigningKey(seed), ed25519.SigningKey(seed)
    assert key.verify_key.encoded == reference.verify_key.encoded
    signature = key.sign(message)
    assert signature == reference.sign(message)
    assert key.verify_key.verify(message, signature) and reference.verify_key.verify(message, signature)
    flipped = flip(signature, bit)
    assert key.verify_key.verify(message, flipped) is reference.verify_key.verify(message, flipped)


def test_wrong_lengths_never_reach_libcrypto(native, monkeypatch):
    key = native.SigningKey(SEED)

    def foreign(*args):
        raise AssertionError("a foreign call")

    monkeypatch.setattr(openssl, "_lib", SimpleNamespace(**dict.fromkeys(openssl._PROTOTYPES, foreign)))
    for seed in (b"", SEED[:31], SEED + b"\x00"):
        with pytest.raises(ValueError):
            native.SigningKey(seed)
    for pub in (b"", PUB[:31], PUB + b"\x00"):
        with pytest.raises(ValueError):
            native.VerifyKey(pub)
    for signature in (b"", SIGNATURE[:63], SIGNATURE + b"\x00"):
        assert key.verify_key.verify(MESSAGE, signature) is False


# --------------------------------------------------------------------------
# the kernel on its own: signed-window recoding at both table widths


#: Neither the base point nor of small order, so no table row degenerates.
KERNEL_POINT = ref_mul(8032, B)


@pytest.fixture(scope="module", params=[ed25519._BASE_WINDOW, ed25519._KEY_WINDOW],
                ids=lambda width: f"w={width}")
def kernel_table(request):
    return request.param, ed25519._build_table(KERNEL_POINT, request.param)


def every_window(value: int, width: int) -> int:
    """The scalar below 2**256 whose ``width``-bit windows all equal ``value``."""
    return sum(value << shift for shift in range(0, 256, width)) % 2 ** 256


def test_table_mul_matches_the_reference_on_recoding_edges(kernel_table):
    width, table = kernel_table
    half, top = 1 << (width - 1), (1 << width) - 1
    rng = random.Random(width)
    scalars = {
        "0": 0, "1": 1, "L - 1": L - 1, "2**252": 2 ** 252,
        "2**255 - 1": 2 ** 255 - 1,
        "2**256 - 1": 2 ** 256 - 1,                          # carry into the top row
        "all windows 2**(w-1)": every_window(half, width),   # largest positive digit
        "all windows 2**(w-1)+1": every_window(half + 1, width),  # smallest that carries
        "all windows 2**w-1": every_window(top, width),      # carry through every row
        "one window 2**w-1 then 0s": top,
        **{f"random {i}": rng.getrandbits(256) for i in range(60)},
    }
    assert len(table) == 256 // width + 1 and {len(row) for row in table} == {half}
    start = ref_mul(3, B)
    for label, scalar in scalars.items():
        expected = ref_mul(scalar, KERNEL_POINT)
        assert ref_equal(ed25519._table_mul(scalar, table), expected), label
        assert ref_equal(ed25519._table_mul(scalar, table, start),
                         ref_add(start, expected)), label


def test_additions_per_operation():
    """The gate on what the window tables buy: one mixed addition per table
    row, so the shapes bound the work (4-bit unsigned windows: 64 and 128)."""
    key = ed25519.SigningKey(SEED)
    assert key.verify_key.verify(MESSAGE, key.sign(MESSAGE))
    base, own = ed25519._base_table(), key.verify_key._table
    assert len(base) <= 33                  # sign: [r]B
    assert len(base) + len(own) <= 76       # verify: [S]B + [k](-A)
    # ... and what they cost in memory: ~1.2 MB once, ~350 kB per public key.
    assert sum(map(len, base)) <= 33 * 128 and sum(map(len, own)) <= 43 * 32


# --------------------------------------------------------------------------
# edge encodings: False, never an exception, and the reference agrees


def first_off_curve_y() -> int:
    y = 2
    while True:
        try:
            ref_recover_x(y, 0)
        except ValueError:
            return y
        y += 1


SEED = bytes.fromhex(RFC8032_VECTORS[0][1])
PUB = bytes.fromhex(RFC8032_VECTORS[0][2])
MESSAGE = b"edge"
SIGNATURE = ref_sign(SEED, MESSAGE)
OFF_CURVE = encode(first_off_curve_y())


def forge_with_r(r_enc: bytes) -> bytes:
    """A signature that satisfies [S]B = R + [k]A if ``r_enc`` decodes to the identity."""
    scalar, _ = ref_expand(SEED)
    k = int.from_bytes(hashlib.sha512(r_enc + PUB + MESSAGE).digest(), "little") % L
    return r_enc + int.to_bytes(k * scalar % L, 32, "little")


def rejected(signer, pub: bytes, signature: bytes) -> bool:
    assert ref_verify(pub, MESSAGE, signature) is False
    return signer.verify(pub, MESSAGE, signature) is False


class TestEdgeEncodings:
    def test_forgery_helper_is_sound(self, signer):
        # With the canonical identity the forged equation holds, so the
        # rejections below are due to the encoding of R alone.
        canonical = forge_with_r(encode(1))
        assert ref_verify(PUB, MESSAGE, canonical) and signer.verify(PUB, MESSAGE, canonical)

    def test_s_not_below_group_order(self, signer):
        s = int.from_bytes(SIGNATURE[32:], "little")
        assert rejected(signer, PUB, SIGNATURE[:32] + int.to_bytes(s + L, 32, "little"))
        assert rejected(signer, PUB, SIGNATURE[:32] + int.to_bytes(L, 32, "little"))
        assert rejected(signer, PUB, SIGNATURE[:32] + b"\xff" * 32)

    def test_r_with_y_not_below_p(self, signer):
        assert rejected(signer, PUB, forge_with_r(encode(P + 1)))

    def test_r_with_zero_x_and_sign_bit(self, signer):
        assert rejected(signer, PUB, forge_with_r(encode(1, sign_bit=1)))

    def test_r_off_curve(self, signer):
        assert rejected(signer, PUB, OFF_CURVE + SIGNATURE[32:])
        assert rejected(signer, PUB, forge_with_r(OFF_CURVE))

    @pytest.mark.parametrize("pub", [
        OFF_CURVE,
        encode(P + 1),                  # identity, y not reduced
        encode(1, sign_bit=1),          # identity, x = 0 with the sign bit
        encode(1),                      # identity
        encode(P - 1),                  # order 2
        encode(0),                      # order 4
        bytes.fromhex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"),  # order 8
    ], ids=["off-curve", "y>=p", "x=0 sign=1", "identity", "order 2", "order 4", "order 8"])
    def test_degenerate_public_key(self, signer, pub):
        assert rejected(signer, pub, SIGNATURE)

    def test_small_order_keys_are_what_they_claim(self):
        order8 = ref_decompress(bytes.fromhex(
            "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"))
        assert ref_compress(ref_mul(8, order8)) == encode(1) != ref_compress(ref_mul(4, order8))
        assert ref_compress(ref_mul(4, ref_decompress(encode(0)))) == encode(1)
        assert ref_compress(ref_mul(2, ref_decompress(encode(P - 1)))) == encode(1)

    @pytest.mark.parametrize("pub,accepted", [
        (encode(1), True), (encode(P - 1), False), (encode(0), False),
    ], ids=["identity", "order 2", "order 4"])
    def test_small_order_key_with_the_trivial_signature(self, signer, pub, accepted):
        # R = identity, S = 0 satisfies [S]B = R + [k]A for A the identity:
        # the cofactorless equation accepts it, and both signers agree.
        trivial = encode(1) + bytes(32)
        assert ref_verify(pub, MESSAGE, trivial) is accepted
        assert signer.verify(pub, MESSAGE, trivial) is accepted

    @pytest.mark.parametrize("pub,signature", [
        (PUB, b""), (PUB, SIGNATURE[:63]), (PUB, SIGNATURE + b"\x00"),
        (b"", SIGNATURE), (PUB[:31], SIGNATURE), (PUB + b"\x00", SIGNATURE),
    ])
    def test_wrong_lengths(self, signer, pub, signature):
        assert rejected(signer, pub, signature)

    def test_malformed_seed_raises(self, signer):
        with pytest.raises(ValueError):
            signer.sign(b"short", b"")
        with pytest.raises(ValueError):
            signer.VerifyKey(OFF_CURVE)


# --------------------------------------------------------------------------
# who owns the precomputation


class TestKeyExpansionOwnership:
    def test_module_level_cache_is_bounded_and_skips_invalid_keys(self):
        cache = ed25519._expanded_verify_key
        cache.cache_clear()
        bound = cache.cache_info().maxsize
        assert bound is not None and bound < 100

        assert not ed25519.verify(OFF_CURVE, MESSAGE, SIGNATURE)
        assert not ed25519.verify(b"short", MESSAGE, SIGNATURE)
        assert cache.cache_info().currsize == 0

        rng = random.Random(500)
        keys = {rng.randbytes(32) for _ in range(500)}
        valid = 0
        for pub in keys:
            assert not ed25519.verify(pub, MESSAGE, SIGNATURE)
            try:
                ref_decompress(pub)
                valid += 1
            except ValueError:
                pass
        # About half of all 32-byte strings decode to a point; only those were
        # expanded, and only the most recent ``bound`` are still held.
        assert len(keys) == 500 and valid > bound
        assert cache.cache_info().currsize == bound
        cache.cache_clear()

    def test_registry_keys_never_touch_the_module_level_cache(self):
        cache = ed25519._expanded_verify_key
        cache.cache_clear()
        registry = KeyRegistry(scheme="ed25519")
        signatures = [sign(registry.register(f"r{i}"), "deadbeef") for i in range(4)]
        assert all(verify(registry, signature) for signature in signatures)
        assert cache.cache_info().currsize == 0
        # Each key pair owns its expansion; equal key pairs do not share one.
        again = KeyRegistry(scheme="ed25519").register("r0")
        assert again == registry.get("r0") and again._key is not registry.get("r0")._key


# --------------------------------------------------------------------------
# what the OpenSSL signer holds, and what it gives back


def counted_lib(made, freed):
    """``openssl._lib`` with every handle it makes and frees recorded."""
    real = openssl._lib
    lib = SimpleNamespace(**vars(real))

    def making(function):
        def call(*args):
            made.append(function(*args))
            return made[-1]
        return call

    def freeing(function):
        def call(handle):
            freed.append(handle)
            function(handle)
        return call

    for name in ("EVP_PKEY_new_raw_private_key", "EVP_PKEY_new_raw_public_key", "EVP_MD_CTX_new"):
        setattr(lib, name, making(getattr(real, name)))
    for name in ("EVP_PKEY_free", "EVP_MD_CTX_free"):
        setattr(lib, name, freeing(getattr(real, name)))
    return lib


class TestOpenSSLHandles:
    def test_every_handle_is_freed(self, native, monkeypatch):
        made, freed = [], []
        monkeypatch.setattr(openssl, "_lib", counted_lib(made, freed))
        key = native.SigningKey(SEED)
        signature = key.sign(MESSAGE)
        assert key.verify_key.verify(MESSAGE, signature)
        assert not key.verify_key.verify(MESSAGE, flip(signature, 3))
        # Two keys live with their owner; the three contexts are already gone.
        assert (len(made), len(freed)) == (5, 3) and all(made)
        del key
        assert sorted(made) == sorted(freed)

    def test_a_failed_sign_raises_and_frees_its_context(self, native, monkeypatch):
        key = native.SigningKey(SEED)
        made, freed = [], []
        monkeypatch.setattr(openssl, "_lib", counted_lib(made, freed))
        monkeypatch.setattr(openssl._lib, "EVP_DigestSign", lambda *args: 0)
        with pytest.raises(RuntimeError):
            key.sign(MESSAGE)
        assert made == freed and len(made) == 1

    def test_anything_but_one_from_verify_is_false(self, native, monkeypatch):
        key = native.SigningKey(SEED)
        signature = key.sign(MESSAGE)
        for code in (0, -1, 2):
            monkeypatch.setattr(openssl._lib, "EVP_DigestVerify", lambda *args, code=code: code)
            assert key.verify_key.verify(MESSAGE, signature) is False


# --------------------------------------------------------------------------
# which signer a process uses


@pytest.fixture
def lookup_fails(monkeypatch):
    """Choose the signer again with a symbol no libcrypto exports."""
    monkeypatch.setitem(openssl._PROTOTYPES, "EVP_no_such_call", (None, []))
    ed25519_signer.cache_clear()
    yield
    ed25519_signer.cache_clear()


class TestSignerChoice:
    def test_registry_keys_sign_through_openssl(self, native):
        assert ed25519_signer() is openssl
        assert isinstance(KeyRegistry(scheme="ed25519").register("r0")._key, openssl.SigningKey)

    def test_a_failed_lookup_signs_through_python_with_the_same_tags(self, lookup_fails):
        assert ed25519_signer() is ed25519 and not openssl.load()
        registry = KeyRegistry(scheme="ed25519")
        keypair = registry.register("r0")
        assert isinstance(keypair._key, ed25519.SigningKey)
        signature = sign(keypair, "deadbeef")
        assert signature.tag == ref_sign(keypair.secret, b"deadbeef")
        assert verify(registry, signature)

    @pytest.mark.parametrize("backend", ["openssl", "python"])
    def test_a_deployment_commits_and_names_its_signer(self, backend, request, capsys):
        from repro.experiments.cli import main

        request.getfixturevalue("native" if backend == "openssl" else "lookup_fails")
        assert main(["deploy", "--nodes", "4", "--rate", "30", "--runtime", "0.6",
                     "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"signing backend: {backend}" in lines and "consistent: true" in lines
        committed = next(line for line in lines if line.startswith("committed transactions: "))
        assert int(committed.rpartition(" ")[2]) > 0

    def test_a_simulated_run_never_loads_ctypes(self):
        code = (
            "import sys; from repro import api; "
            "r = api.run({'block_size': 20, 'runtime': 0.5, 'warmup': 0.1, 'cooldown': 0.1, "
            "'concurrency': 5, 'num_clients': 1, 'cost_profile': 'fast', 'view_timeout': 0.05}); "
            "assert r.consistent and r.metrics.committed_transactions > 0; "
            "print([m for m in ('ctypes', 'repro.crypto.openssl') if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}, check=True,
        )
        assert done.stdout.strip() == "[]"
