"""Pseudonymous identities: compact certificates and their lifecycle.

A vehicle holds one long-term identity and a pool of short-term pseudonyms,
each a key pair living in the HSM plus a compact certificate issued by an
authority. Beacons are signed under the active pseudonym. The identity
manager holds the change policy that decides when to move to the next one,
and revokes the old key when it does.

Certificate wire format (fixed 142 bytes): 1-byte version, 4-byte issuer id,
8+8-byte validity window (big-endian ms), 57-byte uncompressed subject point,
64-byte signature field (DER, zero padded). The signature covers everything
before it.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from dataclasses import dataclass, field
from random import Random

from .hsm import Hsm, KeyRole
from .suites import (
    POINT_LEN,
    SIG_FIELD_LEN,
    SignatureSuite,
    SuiteError,
    is_point,
    pad_signature,
    unpad_signature,
)

CERT_VERSION = 1
CERT_TBS_LEN = 1 + 4 + 8 + 8 + POINT_LEN
CERT_WIRE_LEN = CERT_TBS_LEN + SIG_FIELD_LEN
PSEUDONYM_ID_LEN = 4


class IdentityError(Exception):
    pass


class MalformedCertificateError(IdentityError, ValueError):
    pass


class PoolEmptyError(IdentityError):
    """Raised when a pseudonym change is requested with no provisioned spare."""


def _tbs_bytes(issuer_id: int, validity_start: int, validity_end: int,
               subject_public_key: bytes) -> bytes:
    """The signed fields of a certificate, as they go on the wire."""
    return (struct.pack(">BIQQ", CERT_VERSION, issuer_id, validity_start, validity_end)
            + subject_public_key)


@dataclass(frozen=True)
class CompactCertificate:
    """Minimal beacon-sized certificate binding a pseudonym key to an issuer."""

    issuer_id: int
    validity_start: int
    validity_end: int
    subject_public_key: bytes
    signature: bytes

    def tbs_bytes(self) -> bytes:
        return _tbs_bytes(self.issuer_id, self.validity_start, self.validity_end,
                          self.subject_public_key)

    def to_bytes(self) -> bytes:
        # The fields are frozen, so pack the 142 wire bytes once.
        wire = self.__dict__.get("_wire")
        if wire is None:
            wire = self.__dict__["_wire"] = self.tbs_bytes() + pad_signature(self.signature)
        return wire

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompactCertificate":
        if len(data) != CERT_WIRE_LEN:
            raise MalformedCertificateError(
                f"certificate must be {CERT_WIRE_LEN}B, got {len(data)}"
            )
        version, issuer_id, start, end = struct.unpack(">BIQQ", data[:21])
        if version != CERT_VERSION:
            raise MalformedCertificateError(f"unsupported certificate version {version}")
        subject = data[21:21 + POINT_LEN]
        try:
            sig = unpad_signature(data[CERT_TBS_LEN:])
        except SuiteError as exc:
            raise MalformedCertificateError(str(exc)) from exc
        return cls(issuer_id=issuer_id, validity_start=start, validity_end=end,
                   subject_public_key=subject, signature=sig)

    def pseudonym_id(self) -> bytes:
        """Short stable identifier: leading bytes of the certificate hash."""
        return hashlib.sha256(self.to_bytes()).digest()[:PSEUDONYM_ID_LEN]


def verify_certificate(
    cert: CompactCertificate,
    issuer_public_key: bytes,
    now: int,
    suite: SignatureSuite,
) -> bool:
    """Signature plus validity-window check; malformed input is just False."""
    if not (cert.validity_start <= now <= cert.validity_end):
        return False
    if not is_point(cert.subject_public_key):
        return False
    return suite.verify(issuer_public_key, cert.tbs_bytes(), cert.signature)


class CertificateAuthority:
    """Issuing authority for pseudonym certificates (infrastructure side).

    ``suite`` is required: it makes the authority's key and signs every
    certificate, so verifiers must check them under the same suite.
    """

    def __init__(self, issuer_id: int, suite: SignatureSuite,
                 rng: Random | None = None) -> None:
        if not 0 <= issuer_id <= 0xFFFFFFFF:
            raise IdentityError("issuer_id must fit in 32 bits")
        self.issuer_id = issuer_id
        self.suite = suite
        self._private, self.public_key = self.suite.generate_keypair(rng)

    def issue(self, subject_public_key: bytes, validity_start: int,
              validity_end: int) -> CompactCertificate:
        if validity_end < validity_start:
            raise IdentityError("validity window is inverted")
        if not is_point(subject_public_key):
            raise IdentityError("subject key must be a 57-byte uncompressed point")
        tbs = _tbs_bytes(self.issuer_id, validity_start, validity_end, subject_public_key)
        return CompactCertificate(self.issuer_id, validity_start, validity_end,
                                  subject_public_key, self.suite.sign(self._private, tbs))


# -- pseudonym lifecycle ---------------------------------------------------------


@dataclass
class Pseudonym:
    key_id: str
    certificate: CompactCertificate
    activated_at: int | None = None
    beacons_signed: int = 0
    # lifetime drawn from the change policy when activated
    lifetime_ms: int | None = None
    # short id derived from the certificate, which never changes
    pseudonym_id: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.pseudonym_id = self.certificate.pseudonym_id()


@dataclass(frozen=True)
class PseudonymChangePolicy:
    """Bounds on how long one pseudonym may stay in use.

    A change is blocked before ``min_lifetime_ms`` (link-stability floor) and
    forced once age reaches the lifetime drawn in [min, max] at activation
    or the beacon count reaches ``max_beacons``.
    """

    min_lifetime_ms: int
    max_lifetime_ms: int
    max_beacons: int

    def __post_init__(self) -> None:
        if self.min_lifetime_ms < 0 or self.max_lifetime_ms < self.min_lifetime_ms:
            raise IdentityError("lifetime bounds must satisfy 0 <= min <= max")
        if self.max_beacons < 1:
            raise IdentityError("max_beacons must be at least 1")


class IdentityManager:
    """Holds a vehicle's pseudonym pool and performs changes under its policy.

    Without a policy the active pseudonym is never due for a change.
    """

    def __init__(self, hsm: Hsm, rng: Random | None = None,
                 policy: PseudonymChangePolicy | None = None) -> None:
        self.hsm = hsm
        self.policy = policy
        self._rng = rng if rng is not None else Random()
        self._spares: deque[Pseudonym] = deque()
        self._active: Pseudonym | None = None

    @property
    def active(self) -> Pseudonym | None:
        return self._active

    def provision(self, ca: CertificateAuthority, count: int,
                  validity_ms: int) -> list[Pseudonym]:
        """Generate ``count`` short-term keys in the HSM and certify them."""
        now = self.hsm.read_clock()
        fresh: list[Pseudonym] = []
        for _ in range(count):
            key_id, public = self.hsm.generate_key(KeyRole.SHORT_TERM)
            cert = ca.issue(public, now, now + validity_ms)
            fresh.append(Pseudonym(key_id=key_id, certificate=cert))
        self._spares.extend(fresh)
        return fresh

    def change_due(self, now: int) -> bool:
        """Whether the active pseudonym must be replaced at ``now``.

        Never before the policy's minimum lifetime; after it, once the drawn
        lifetime is up or ``max_beacons`` beacons are signed, and only while
        a spare is left.
        """
        active = self._active
        policy = self.policy
        if active is None or policy is None or not self._spares:
            return False
        age = now - active.activated_at
        if age < policy.min_lifetime_ms:
            return False
        return age >= active.lifetime_ms or active.beacons_signed >= policy.max_beacons

    def activate_next(self, now: int) -> Pseudonym:
        """Revoke the active pseudonym's key and switch to the next spare.

        Under a policy the new pseudonym draws a random lifetime within its
        bounds, so a fleet provisioned at the same moment does not change
        identities in lockstep (synchronized changes are trivially linkable).
        """
        if not self._spares:
            raise PoolEmptyError("no provisioned pseudonym available")
        if self._active is not None:
            self.hsm.revoke_key(self._active.key_id)
        new = self._active = self._spares.popleft()
        new.activated_at = now
        policy = self.policy
        if policy is not None:
            new.lifetime_ms = self._rng.randint(policy.min_lifetime_ms, policy.max_lifetime_ms)
        return new
