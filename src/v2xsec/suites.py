"""Signature and key-agreement suites.

Two interchangeable backends share one wire format:

* ``P224Suite`` is the real thing: ECDSA over NIST P-224 with SHA-256, and
  ECDH on the same curve for hybrid encryption. This is the default wherever
  a key is generated.
* ``FastHashSuite`` is a deterministic, insecure stand-in that preserves every
  byte length (57-byte uncompressed points, signatures that fit the same
  fixed field). Large simulations select it to keep runs tractable; nothing
  produced with it offers any security.

Given the same seeded ``rng``, both draw the same values per key, so a seed
fixes the key material of either suite. ``VerdictMemo`` sits in front of
either one for the length of a simulation run and answers repeated
verifications of the same signature from memory.

Signatures travel in a fixed-width field of ``SIG_FIELD_LEN`` bytes: the
DER-encoded signature followed by zero padding. DER is self-delimiting, so
the original encoding is recovered exactly; parsers reject nonzero padding.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from random import Random

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)

POINT_LEN = 57  # uncompressed X9.62 point on P-224: 0x04 || X(28) || Y(28)
SCALAR_LEN = 28
SIG_FIELD_LEN = 64  # fixed on-wire field; DER P-224 signatures are <= 64 bytes

_CURVE = ec.SECP224R1()
_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D  # of P-224
# RFC 6979 nonces: a key and a message fix the signature.
_ECDSA = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
_CACHE_MAX = 65536  # entries a cache holds before it is cleared


class SuiteError(Exception):
    """Raised for malformed keys or points handed to a suite."""


def pad_signature(der: bytes) -> bytes:
    if len(der) > SIG_FIELD_LEN:
        raise SuiteError(f"signature {len(der)}B exceeds {SIG_FIELD_LEN}B field")
    return der + b"\x00" * (SIG_FIELD_LEN - len(der))


def unpad_signature(field: bytes) -> bytes:
    """Recover the DER signature from a fixed-width field.

    Rejects fields whose padding is not all zero, so every byte of the wire
    encoding is covered by integrity checks.
    """
    if len(field) != SIG_FIELD_LEN:
        raise SuiteError(f"signature field must be {SIG_FIELD_LEN}B, got {len(field)}")
    if len(field) < 2 or field[0] != 0x30 or field[1] > SIG_FIELD_LEN - 2:
        raise SuiteError("malformed DER signature header")
    der_len = 2 + field[1]
    if any(field[der_len:]):
        raise SuiteError("nonzero padding after DER signature")
    return field[:der_len]


class P224Suite:
    """ECDSA over NIST P-224 (SHA-256) plus ECDH for hybrid encryption.

    Signatures use RFC 6979 nonces, so the same key and data always give the
    same signature.
    """

    name = "p224"

    def generate_keypair(self, rng: Random | None = None) -> tuple[object, bytes]:
        """Return an opaque private handle and the 57-byte public point.

        With ``rng`` the scalar is ``rng.randbytes(28)`` reduced mod the curve
        order (drawn again on zero), the same draw ``FastHashSuite`` makes, so
        a seeded ``rng`` makes the key reproducible and exactly as secret as
        the seed. Without it the key comes from the operating system's CSPRNG.
        """
        if rng is None:
            priv = ec.generate_private_key(_CURVE)
        else:
            scalar = 0
            while not scalar:
                scalar = int.from_bytes(rng.randbytes(SCALAR_LEN), "big") % _ORDER
            priv = ec.derive_private_key(scalar, _CURVE)
        return priv, self._public_bytes(priv.public_key())

    def sign(self, private_handle: object, data: bytes) -> bytes:
        assert isinstance(private_handle, ec.EllipticCurvePrivateKey)
        return private_handle.sign(data, _ECDSA)

    def verify(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        try:
            pub = self._load_public(public_key)
            signature = bytes(signature)  # the bindings below take bytes only
            # Round-trip through the (r, s) pair to reject DER with trailing
            # garbage or non-canonical encodings before OpenSSL sees it.
            r, s = decode_dss_signature(signature)
            if encode_dss_signature(r, s) != signature:
                return False
            pub.verify(signature, data, _ECDSA)
            return True
        except (ValueError, InvalidSignature, SuiteError):
            return False

    def ecdh_sender(self, public_key: bytes, rng: Random | None = None) -> tuple[bytes, bytes]:
        """Fresh ephemeral exchange toward ``public_key``.

        Returns ``(ephemeral_public_point, shared_secret)``.
        """
        pub = self._load_public(public_key)
        eph = ec.generate_private_key(_CURVE)
        shared = eph.exchange(ec.ECDH(), pub)
        return self._public_bytes(eph.public_key()), shared

    def ecdh_receiver(self, private_handle: object, ephemeral_public: bytes) -> bytes:
        assert isinstance(private_handle, ec.EllipticCurvePrivateKey)
        return private_handle.exchange(ec.ECDH(), self._load_public(ephemeral_public))

    def private_scalar_bytes(self, private_handle: object) -> bytes:
        assert isinstance(private_handle, ec.EllipticCurvePrivateKey)
        return private_handle.private_numbers().private_value.to_bytes(SCALAR_LEN, "big")

    @staticmethod
    def _public_bytes(pub: ec.EllipticCurvePublicKey) -> bytes:
        return pub.public_bytes(
            serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint
        )

    @staticmethod
    def _load_public(data: bytes) -> ec.EllipticCurvePublicKey:
        if len(data) != POINT_LEN or data[0] != 0x04:
            raise SuiteError("public key must be a 57-byte uncompressed point")
        try:
            return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, bytes(data))
        except ValueError as exc:
            raise SuiteError(str(exc)) from exc


class FastHashSuite:
    """Size-faithful mock suite for simulation workloads. Provides no security.

    Keys are hash-derived from a 28-byte scalar; a "signature" is an HMAC-like
    digest bound to the public point, re-encoded with a DER-style header so it
    rides in the same fixed field as a real signature. Key agreement derives
    the shared secret from the two public points alone, which keeps encrypt
    and decrypt consistent without any trapdoor.

    Every verdict is computed afresh; a simulation remembers verdicts for the
    length of a run in its ``VerdictMemo``.
    """

    name = "fast"
    _SIG_BODY = 32
    _SIG_LEN = 2 + _SIG_BODY
    _SIG_HEADER = bytes([0x30, _SIG_BODY])

    def __init__(self) -> None:
        self._pub_cache: dict[bytes, bytes] = {}

    def generate_keypair(self, rng: Random | None = None) -> tuple[object, bytes]:
        scalar = rng.randbytes(SCALAR_LEN) if rng is not None else os.urandom(SCALAR_LEN)
        return scalar, self._derive_public(scalar)

    def sign(self, private_handle: object, data: bytes) -> bytes:
        assert isinstance(private_handle, bytes)
        pub = self._derive_public(private_handle)
        return self._SIG_HEADER + hashlib.sha256(pub + data).digest()

    def verify(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        return self._check(public_key, data, signature)

    def _check(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        if len(public_key) != POINT_LEN or public_key[0] != 0x04:
            return False
        if len(signature) != self._SIG_LEN or signature[0] != 0x30:
            return False
        expected = hashlib.sha256(public_key + data).digest()
        return hmac.compare_digest(signature[2:], expected)

    def ecdh_sender(self, public_key: bytes, rng: Random | None = None) -> tuple[bytes, bytes]:
        eph_scalar = rng.randbytes(SCALAR_LEN) if rng is not None else os.urandom(SCALAR_LEN)
        eph_pub = self._derive_public(eph_scalar)
        return eph_pub, self._shared(eph_pub, public_key)

    def ecdh_receiver(self, private_handle: object, ephemeral_public: bytes) -> bytes:
        assert isinstance(private_handle, bytes)
        return self._shared(ephemeral_public, self._derive_public(private_handle))

    def private_scalar_bytes(self, private_handle: object) -> bytes:
        assert isinstance(private_handle, bytes)
        return private_handle

    def _derive_public(self, scalar: bytes) -> bytes:
        cached = self._pub_cache.get(scalar)
        if cached is not None:
            return cached
        x = hashlib.sha256(b"fastsuite-x" + scalar).digest()[:28]
        y = hashlib.sha256(b"fastsuite-y" + scalar).digest()[:28]
        public = b"\x04" + x + y
        if len(self._pub_cache) > _CACHE_MAX:
            self._pub_cache.clear()
        self._pub_cache[scalar] = public
        return public

    @staticmethod
    def _shared(ephemeral_public: bytes, recipient_public: bytes) -> bytes:
        return hashlib.sha256(b"fastsuite-dh" + ephemeral_public + recipient_public).digest()[:28]


class VerdictMemo:
    """A suite that remembers the verdicts of one simulation run.

    A verdict is a pure function of (public key, data, signature). In a
    simulation every beacon reaches several receivers with the same three
    values, and each receiver checks the same certificate on first contact,
    so ``verify`` asks the wrapped suite once per distinct triple and answers
    repeats, failures included, from a dict. Callers still ask for every
    check and get the answer a fresh computation would give. Input that
    cannot be a dict key, such as a ``bytearray``, goes straight to the
    suite, and the dict is cleared when it reaches 65,536 entries. Build one
    per run, so that nothing carries over from one run to the next; every
    other operation is the wrapped suite's own.
    """

    def __init__(self, suite: SignatureSuite) -> None:
        self.name = suite.name
        self.sign = suite.sign
        self.generate_keypair = suite.generate_keypair
        self.ecdh_sender = suite.ecdh_sender
        self.ecdh_receiver = suite.ecdh_receiver
        self.private_scalar_bytes = suite.private_scalar_bytes
        self._verify = suite.verify
        self._verdicts: dict[tuple[bytes, bytes, bytes], bool] = {}

    def verify(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        key = (public_key, data, signature)
        try:
            verdict = self._verdicts.get(key)
        except TypeError:  # unhashable input, e.g. a bytearray
            return self._verify(public_key, data, signature)
        if verdict is None:
            verdict = self._verify(public_key, data, signature)
            if len(self._verdicts) >= _CACHE_MAX:
                self._verdicts.clear()
            self._verdicts[key] = verdict
        return verdict


SignatureSuite = P224Suite | FastHashSuite | VerdictMemo

_SUITES: dict[str, SignatureSuite] = {"p224": P224Suite(), "fast": FastHashSuite()}


def get_suite(name: str) -> SignatureSuite:
    try:
        return _SUITES[name]
    except KeyError:
        raise SuiteError(f"unknown crypto suite {name!r} (choose from {sorted(_SUITES)})") from None
