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
verifications of the same signature from memory, keeping an LRU of the 4,096
most recently asked verdicts: enough for every check of a fresh beacon.

Only ``P224Suite`` and the ECIES functions of ``hsm`` use the
``cryptography`` library, and they load it on first use (see ``_crypto``),
so a ``crypto=fast`` run never imports it.

Signatures travel in a fixed-width field of ``SIG_FIELD_LEN`` bytes: the
DER-encoded signature followed by zero padding. DER is self-delimiting, so
the original encoding is recovered exactly; parsers reject nonzero padding.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
from random import Random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import _crypto

POINT_LEN = 57  # uncompressed X9.62 point on P-224: 0x04 || X(28) || Y(28)
SCALAR_LEN = 28
SIG_FIELD_LEN = 64  # fixed on-wire field; DER P-224 signatures are <= 64 bytes

# Verdicts a VerdictMemo holds: about 9 simulated seconds of the densest
# shipped scenario, against a freshness window of 1 s.
_CAPACITY = 4096


class SuiteError(Exception):
    """Raised for malformed keys or points handed to a suite."""


def is_point(data: bytes) -> bool:
    """Whether ``data`` has the form of an uncompressed P-224 point."""
    return len(data) == POINT_LEN and data[0] == 0x04


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
    same signature. Building one costs nothing; the first operation loads
    ``cryptography``.
    """

    def generate_keypair(self, rng: Random | None = None) -> tuple[object, bytes]:
        """Return an opaque private handle and the 57-byte public point.

        With ``rng`` the scalar is ``rng.randbytes(28)`` reduced mod the curve
        order (drawn again on zero), the same draw ``FastHashSuite`` makes, so
        a seeded ``rng`` makes the key reproducible and exactly as secret as
        the seed. Without it the key comes from the operating system's CSPRNG.
        """
        from . import _crypto
        if rng is None:
            priv = _crypto.ec.generate_private_key(_crypto.CURVE)
        else:
            scalar = 0
            while not scalar:
                scalar = int.from_bytes(rng.randbytes(SCALAR_LEN), "big") % _crypto.ORDER
            priv = _crypto.ec.derive_private_key(scalar, _crypto.CURVE)
        return priv, self._public_bytes(priv.public_key())

    def sign(self, private_handle: object, data: bytes) -> bytes:
        from . import _crypto
        assert isinstance(private_handle, _crypto.ec.EllipticCurvePrivateKey)
        return private_handle.sign(data, _crypto.ECDSA)

    def verify(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        from . import _crypto
        try:
            pub = self._load_public(public_key)
            signature = bytes(signature)  # the bindings below take bytes only
            # Round-trip through the (r, s) pair to reject DER with trailing
            # garbage or non-canonical encodings before OpenSSL sees it.
            r, s = _crypto.decode_dss_signature(signature)
            if _crypto.encode_dss_signature(r, s) != signature:
                return False
            pub.verify(signature, data, _crypto.ECDSA)
            return True
        except (ValueError, _crypto.InvalidSignature, SuiteError):
            return False

    def ecdh_sender(self, public_key: bytes, rng: Random | None = None) -> tuple[bytes, bytes]:
        """Fresh ephemeral exchange toward ``public_key``.

        The ephemeral key is drawn like any other key (``generate_keypair``),
        so a seeded ``rng`` fixes it. Returns ``(ephemeral_public_point,
        shared_secret)``.
        """
        from . import _crypto
        pub = self._load_public(public_key)
        eph, eph_public = self.generate_keypair(rng)
        return eph_public, eph.exchange(_crypto.ECDH, pub)

    def ecdh_receiver(self, private_handle: object, ephemeral_public: bytes) -> bytes:
        from . import _crypto
        assert isinstance(private_handle, _crypto.ec.EllipticCurvePrivateKey)
        return private_handle.exchange(_crypto.ECDH, self._load_public(ephemeral_public))

    def private_scalar_bytes(self, private_handle: object) -> bytes:
        from . import _crypto
        assert isinstance(private_handle, _crypto.ec.EllipticCurvePrivateKey)
        return private_handle.private_numbers().private_value.to_bytes(SCALAR_LEN, "big")

    @staticmethod
    def _public_bytes(pub: _crypto.ec.EllipticCurvePublicKey) -> bytes:
        from . import _crypto
        return pub.public_bytes(_crypto.serialization.Encoding.X962,
                                _crypto.serialization.PublicFormat.UncompressedPoint)

    @staticmethod
    def _load_public(data: bytes) -> _crypto.ec.EllipticCurvePublicKey:
        from . import _crypto
        if not is_point(data):
            raise SuiteError("public key must be a 57-byte uncompressed point")
        try:
            return _crypto.ec.EllipticCurvePublicKey.from_encoded_point(_crypto.CURVE, bytes(data))
        except ValueError as exc:
            raise SuiteError(str(exc)) from exc


class FastHashSuite:
    """Size-faithful mock suite for simulation workloads. Provides no security.

    Keys are hash-derived from a 28-byte scalar, and the private handle is
    the pair ``(scalar, public point)``; a "signature" is an HMAC-like digest
    bound to the public point, re-encoded with a DER-style header so it rides
    in the same fixed field as a real signature. Key agreement derives the
    shared secret from the two public points alone, which keeps encrypt and
    decrypt consistent without any trapdoor.

    The suite keeps no state: every verdict is computed afresh, and a
    simulation remembers the verdicts it can still ask for in its
    ``VerdictMemo``.
    """

    _SIG_BODY = 32
    _SIG_LEN = 2 + _SIG_BODY
    _SIG_HEADER = bytes([0x30, _SIG_BODY])

    def generate_keypair(self, rng: Random | None = None) -> tuple[object, bytes]:
        scalar = rng.randbytes(SCALAR_LEN) if rng is not None else os.urandom(SCALAR_LEN)
        public = self._derive_public(scalar)
        return (scalar, public), public

    def sign(self, private_handle: object, data: bytes) -> bytes:
        assert isinstance(private_handle, tuple)
        return self._SIG_HEADER + hashlib.sha256(private_handle[1] + data).digest()

    def verify(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        return self._check(public_key, data, signature)

    def _check(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        if not is_point(public_key):
            return False
        if len(signature) != self._SIG_LEN or signature[0] != 0x30:
            return False
        expected = hashlib.sha256(bytes(public_key) + data).digest()
        return hmac.compare_digest(signature[2:], expected)

    def ecdh_sender(self, public_key: bytes, rng: Random | None = None) -> tuple[bytes, bytes]:
        eph_scalar = rng.randbytes(SCALAR_LEN) if rng is not None else os.urandom(SCALAR_LEN)
        eph_pub = self._derive_public(eph_scalar)
        return eph_pub, self._shared(eph_pub, public_key)

    def ecdh_receiver(self, private_handle: object, ephemeral_public: bytes) -> bytes:
        assert isinstance(private_handle, tuple)
        return self._shared(ephemeral_public, private_handle[1])

    def private_scalar_bytes(self, private_handle: object) -> bytes:
        assert isinstance(private_handle, tuple)
        return private_handle[0]

    @staticmethod
    def _derive_public(scalar: bytes) -> bytes:
        x = hashlib.sha256(b"fastsuite-x" + scalar).digest()[:28]
        y = hashlib.sha256(b"fastsuite-y" + scalar).digest()[:28]
        return b"\x04" + x + y

    @staticmethod
    def _shared(ephemeral_public: bytes, recipient_public: bytes) -> bytes:
        return hashlib.sha256(b"fastsuite-dh" + ephemeral_public + recipient_public).digest()[:28]


class VerdictMemo:
    """A suite that remembers the verdicts a simulation run can still ask for.

    A verdict is a pure function of (public key, data, signature), each given
    as ``bytes``. In a simulation every beacon reaches several receivers with
    the same three values, and each receiver checks the same certificate on
    first contact, so ``verify`` asks the wrapped suite once per distinct
    triple and answers repeats, failures included, from memory. Callers still
    ask for every check and get the answer a fresh computation would give.

    Memory is an LRU of the ``_CAPACITY`` most recently asked verdicts: a
    repeat answered from memory becomes the most recent, and a new verdict
    in a full memory drops the least recently asked one. A beacon's triple
    is asked for only while the beacon is fresh, within a 1 s window in
    every shipped scenario, and the memory spans about 9 simulated seconds
    of the densest shipped traffic, so what is dropped can no longer be
    asked for; if it is, the suite gives the same verdict again. Input that
    cannot be hashed, a ``bytearray`` or a writable ``memoryview``, raises
    before the suite is asked. Build one per run, so that nothing carries
    over from one run to the next; every other operation is the wrapped
    suite's own.
    """

    def __init__(self, suite: SignatureSuite) -> None:
        self.sign = suite.sign
        self.generate_keypair = suite.generate_keypair
        self.ecdh_sender = suite.ecdh_sender
        self.ecdh_receiver = suite.ecdh_receiver
        self.private_scalar_bytes = suite.private_scalar_bytes
        self.verify = functools.lru_cache(maxsize=_CAPACITY)(suite.verify)


SignatureSuite = P224Suite | FastHashSuite | VerdictMemo

_SUITES: dict[str, SignatureSuite] = {"p224": P224Suite(), "fast": FastHashSuite()}
SUITE_NAMES = tuple(sorted(_SUITES))


def get_suite(name: str) -> SignatureSuite:
    try:
        return _SUITES[name]
    except KeyError:
        raise SuiteError(f"unknown crypto suite {name!r} (choose from {SUITE_NAMES})") from None
