"""Software reference model of a vehicular hardware security module.

The module keeps private keys in protected slots and exposes a deliberately
small surface: generate keys, sign with a trusted timestamp, decrypt, rotate
the root verification key, revoke, and read the trusted clock. Private key
material never crosses the API boundary; callers only ever see key ids and
public points.

Root keys follow a chain-of-custody rule: the very first root is installed
unauthenticated at provisioning time, and every later root must arrive in an
update package signed by the root it replaces.

Wire formats
------------
``SignedBlob``: 8-byte big-endian millisecond timestamp, then the signature
field (DER, zero-padded to 64 bytes). The signature covers
``message || timestamp``.

ECIES envelope: 57-byte ephemeral uncompressed point, 16-byte IV, AES-128-CBC
body (PKCS#7), 20-byte HMAC-SHA1 tag over ``IV || body``. The ephemeral ECDH
secret feeds HKDF-SHA1 which yields the AES key and the MAC key. The ECIES
functions load ``cryptography`` on first use (see ``_crypto``).
"""

from __future__ import annotations

import hmac as hmac_mod
import os
import struct
import threading
from dataclasses import dataclass
from enum import Enum
from random import Random

from .clocks import VirtualClock
from .suites import (
    POINT_LEN,
    SIG_FIELD_LEN,
    SignatureSuite,
    SuiteError,
    is_point,
    pad_signature,
    unpad_signature,
)

TIMESTAMP_LEN = 8
SIGNED_BLOB_LEN = TIMESTAMP_LEN + SIG_FIELD_LEN

_ECIES_IV_LEN = 16
_ECIES_TAG_LEN = 20
_ECIES_KDF_INFO = b"v2x-ecies-v1"
ECIES_OVERHEAD = POINT_LEN + _ECIES_IV_LEN + _ECIES_TAG_LEN

_pack_timestamp = struct.Struct(">Q").pack


def signed_payload(message: bytes, timestamp: int) -> bytes:
    """The bytes a timestamped signature covers: ``message || timestamp``."""
    return message + _pack_timestamp(timestamp)


class HsmError(Exception):
    """Base class for HSM failures."""


class UnknownKeyError(HsmError):
    pass


class RevokedKeyError(HsmError):
    pass


class KeyRoleError(HsmError):
    """Operation not permitted for the key's role."""


class RootStateError(HsmError):
    """Root slot used before provisioning, or provisioned twice."""


class IntegrityError(HsmError):
    """Ciphertext failed authentication or is structurally malformed."""


class KeyRole(Enum):
    ROOT_VERIFICATION = "root_verification"
    LONG_TERM = "long_term"
    SHORT_TERM = "short_term"


@dataclass(frozen=True)
class KeySlot:
    """Public view of one stored key. Never carries private material."""

    key_id: str
    role: KeyRole
    public_key: bytes
    created_at: int
    revoked: bool


@dataclass(frozen=True, slots=True)
class SignedBlob:
    """Timestamped signature as produced by :meth:`Hsm.sign_and_timestamp`."""

    timestamp: int
    signature: bytes

    def to_bytes(self) -> bytes:
        return _pack_timestamp(self.timestamp) + pad_signature(self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SignedBlob":
        if len(data) != SIGNED_BLOB_LEN:
            raise ValueError(f"signed blob must be {SIGNED_BLOB_LEN}B, got {len(data)}")
        ts = struct.unpack(">Q", data[:TIMESTAMP_LEN])[0]
        try:
            sig = unpad_signature(data[TIMESTAMP_LEN:])
        except SuiteError as exc:
            raise ValueError(str(exc)) from exc
        return cls(timestamp=ts, signature=sig)


@dataclass(frozen=True)
class RootUpdatePackage:
    """A candidate root public key plus the incumbent root's signature over it."""

    new_root_public_key: bytes
    authorization: bytes


def authorize_root_update(
    suite: SignatureSuite, incumbent_private_handle: object, new_root_public_key: bytes
) -> RootUpdatePackage:
    """Build an update package on the authority side (outside any HSM)."""
    sig = suite.sign(incumbent_private_handle, new_root_public_key)
    return RootUpdatePackage(new_root_public_key=new_root_public_key, authorization=sig)


class _Slot:
    __slots__ = ("key_id", "role", "private_handle", "public_key", "created_at", "revoked")

    def __init__(self, key_id: str, role: KeyRole, private_handle: object,
                 public_key: bytes, created_at: int) -> None:
        self.key_id = key_id
        self.role = role
        self.private_handle = private_handle
        self.public_key = public_key
        self.created_at = created_at
        self.revoked = False


class Hsm:
    """Protected key store with signing, decryption and a trusted clock.

    ``clock`` and ``suite`` are required: the module reads time only from
    the clock it is given, and makes and uses keys only under ``suite``.
    All state mutations are serialized behind one lock, so interleaved calls
    from several threads observe a single linear history.
    """

    def __init__(self, clock: VirtualClock, suite: SignatureSuite,
                 rng: Random | None = None) -> None:
        self._clock = clock
        self._suite = suite
        self._rng = rng
        self._lock = threading.RLock()
        self._slots: dict[str, _Slot] = {}
        self._root_public: bytes | None = None
        self._next_id = 0
        self._last_clock = 0

    @property
    def suite(self) -> SignatureSuite:
        return self._suite

    # -- clock -------------------------------------------------------------

    def read_clock(self) -> int:
        """Trusted time in ms. Successive reads never decrease."""
        with self._lock:
            return self._read_clock_locked()

    def _read_clock_locked(self) -> int:
        now = self._clock.now
        if now > self._last_clock:
            self._last_clock = now
        return self._last_clock

    # -- root key lifecycle --------------------------------------------------

    def install_factory_root(self, root_public_key: bytes) -> None:
        """Install the first root verification key. Allowed exactly once."""
        self._check_public(root_public_key)
        with self._lock:
            if self._root_public is not None:
                raise RootStateError("factory root already installed")
            self._root_public = bytes(root_public_key)

    @property
    def active_root(self) -> bytes:
        with self._lock:
            if self._root_public is None:
                raise RootStateError("no root verification key installed")
            return self._root_public

    def install_root_key(self, package: RootUpdatePackage) -> bool:
        """Replace the root key if the package is signed by the active root.

        Returns True on success; an unauthorized package leaves the active
        root untouched and returns False.
        """
        with self._lock:
            root = self.active_root
            ok = self._suite.verify(root, package.new_root_public_key, package.authorization)
            if not ok:
                return False
            try:
                self._check_public(package.new_root_public_key)
            except HsmError:
                return False
            self._root_public = bytes(package.new_root_public_key)
            return True

    # -- key slots -----------------------------------------------------------

    def generate_key(self, role: KeyRole) -> tuple[str, bytes]:
        """Create a key pair inside the module; returns (key_id, public_key)."""
        if role is KeyRole.ROOT_VERIFICATION:
            raise KeyRoleError("root keys enter only through install_root_key")
        with self._lock:
            handle, public = self._suite.generate_keypair(self._rng)
            key_id = f"key-{self._next_id:06d}"
            self._next_id += 1
            self._slots[key_id] = _Slot(key_id, role, handle, public, self._read_clock_locked())
            return key_id, public

    def revoke_key(self, key_id: str) -> None:
        """Mark a key unusable. Idempotent; the slot's public view remains."""
        with self._lock:
            slot = self._slots.get(key_id)
            if slot is None:
                raise UnknownKeyError(key_id)
            slot.revoked = True

    def slots(self) -> list[KeySlot]:
        with self._lock:
            return [
                KeySlot(s.key_id, s.role, s.public_key, s.created_at, s.revoked)
                for s in self._slots.values()
            ]

    # -- operations ------------------------------------------------------------

    def sign_and_timestamp(self, key_id: str, message: bytes) -> SignedBlob:
        """Sign ``message || timestamp`` with a slot key at the trusted time."""
        with self._lock:
            slot = self._usable_slot(key_id)
            ts = self._read_clock_locked()
            sig = self._suite.sign(slot.private_handle, signed_payload(message, ts))
        return SignedBlob(ts, sig)

    def decrypt(self, key_id: str, ciphertext: bytes) -> bytes:
        """Open an ECIES envelope addressed to the slot's public key."""
        with self._lock:
            slot = self._usable_slot(key_id)
            return _ecies_decrypt(self._suite, slot.private_handle, ciphertext)

    # -- internals ---------------------------------------------------------------

    def _usable_slot(self, key_id: str) -> _Slot:
        slot = self._slots.get(key_id)
        if slot is None:
            raise UnknownKeyError(key_id)
        if slot.revoked:
            raise RevokedKeyError(key_id)
        return slot

    def _check_public(self, public_key: bytes) -> None:
        if not is_point(public_key):
            raise HsmError("public key must be a 57-byte uncompressed point")

    def _private_scalars(self) -> list[bytes]:
        """Raw private scalars, for secrecy audits only (see selftest)."""
        with self._lock:
            return [self._suite.private_scalar_bytes(s.private_handle) for s in self._slots.values()]


def verify_signed_blob(
    public_key: bytes,
    message: bytes,
    blob: SignedBlob,
    suite: SignatureSuite,
) -> bool:
    """Check a timestamped signature. Malformed input verifies as False."""
    return suite.verify(public_key, signed_payload(message, blob.timestamp), blob.signature)


# -- ECIES ----------------------------------------------------------------------


def _derive_keys(shared_secret: bytes) -> tuple[bytes, bytes]:
    from . import _crypto
    okm = _crypto.HKDF(
        algorithm=_crypto.hashes.SHA1(), length=16 + _ECIES_TAG_LEN, salt=None,
        info=_ECIES_KDF_INFO,
    ).derive(shared_secret)
    return okm[:16], okm[16:]


def encrypt_for(
    public_key: bytes,
    plaintext: bytes,
    suite: SignatureSuite,
    rng: Random | None = None,
) -> bytes:
    """Seal ``plaintext`` to the holder of ``public_key`` (ECIES) under
    ``suite``, the one that made the key."""
    from . import _crypto
    eph_pub, shared = suite.ecdh_sender(public_key, rng)
    aes_key, mac_key = _derive_keys(shared)
    iv = rng.randbytes(_ECIES_IV_LEN) if rng is not None else os.urandom(_ECIES_IV_LEN)
    padder = _crypto.padding.PKCS7(128).padder()
    padded = padder.update(plaintext) + padder.finalize()
    enc = _crypto.Cipher(_crypto.algorithms.AES(aes_key), _crypto.modes.CBC(iv)).encryptor()
    body = enc.update(padded) + enc.finalize()
    mac = _crypto.HMAC(mac_key, _crypto.hashes.SHA1())
    mac.update(iv + body)
    tag = mac.finalize()
    return eph_pub + iv + body + tag


def _ecies_decrypt(suite: SignatureSuite, private_handle: object, ciphertext: bytes) -> bytes:
    from . import _crypto
    min_len = ECIES_OVERHEAD + 16
    if len(ciphertext) < min_len:
        raise IntegrityError("ciphertext too short")
    eph_pub = ciphertext[:POINT_LEN]
    iv = ciphertext[POINT_LEN:POINT_LEN + _ECIES_IV_LEN]
    body = ciphertext[POINT_LEN + _ECIES_IV_LEN:-_ECIES_TAG_LEN]
    tag = ciphertext[-_ECIES_TAG_LEN:]
    if len(body) % 16 != 0:
        raise IntegrityError("ciphertext body is not block aligned")
    try:
        shared = suite.ecdh_receiver(private_handle, eph_pub)
    except (SuiteError, ValueError) as exc:
        raise IntegrityError(f"bad ephemeral point: {exc}") from exc
    aes_key, mac_key = _derive_keys(shared)
    mac = _crypto.HMAC(mac_key, _crypto.hashes.SHA1())
    mac.update(iv + body)
    expected = mac.finalize()
    if not hmac_mod.compare_digest(expected, tag):
        raise IntegrityError("authentication tag mismatch")
    dec = _crypto.Cipher(_crypto.algorithms.AES(aes_key), _crypto.modes.CBC(iv)).decryptor()
    padded = dec.update(body) + dec.finalize()
    unpadder = _crypto.padding.PKCS7(128).unpadder()
    try:
        return unpadder.update(padded) + unpadder.finalize()
    except ValueError as exc:
        raise IntegrityError("bad padding after authenticated decrypt") from exc
