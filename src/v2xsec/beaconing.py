"""Secured beaconing with certificate omission and budgeted verification.

Senders sign every beacon under their active pseudonym but attach the
pseudonym certificate only when an omission strategy says so: always, every
alpha-th beacon, or when a new neighbor has appeared since the last own
beacon. After a pseudonym change the certificate rides on the next beta
beacons regardless of strategy, so neighbors can pick up the new identity
quickly.

Receivers keep a neighbor table, a dict keyed by short pseudonym ids, and
push all cryptographic checks through one budgeted FIFO verification queue (a
few dozen verifications per second is all a realistic onboard unit can
afford). The budget is a cap on units (one unit per curve operation) spent in
any sliding second; the receiver keeps it as a window holding the time of
each unit it spent in the last second. On first contact the job checks the
attached certificate under the root of trust in the receiver's own HSM and
that it is the one the claimed id names; trust in the neighbor comes from
that check alone, since the id is the certificate's hash. Then the job's
signature is checked under the certified key, the same check a known sender's
beacon gets under the cached key. Beacons reach the application only after
their signature check: unverified traffic stays pending and is never
delivered. Freshness and certificate validity are checked on arrival and
again when a job reaches the queue head, so nothing goes stale waiting for
its turn. The neighbor table is the only per-neighbor state: an entry holds
its trust pair of verified key and certificate end (None until trusted), the
beacons awaiting a certificate, and the first-beacon time that time to trust
runs from. Two bounded deques in lockstep hold each queued job's beacon and
trust pair: no object per job.

A beacon's fate is usually settled in a later drain of the queue, not in the
call that received it, so receive calls return nothing: the receiver's
counters and its delivery callback account for every beacon.

Wire format of a secured beacon, byte offsets in brackets: 2-byte type tag
[0], 4-byte pseudonym id [2], 40-byte beacon body [6], 8-byte signature
timestamp [46], 64-byte padded signature [54], 1-byte certificate flag [118],
optional 142-byte certificate [119]. The signature covers [6:54].
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Callable

from .hsm import TIMESTAMP_LEN
from .identity import (
    CERT_WIRE_LEN,
    PSEUDONYM_ID_LEN,
    CompactCertificate,
    IdentityManager,
    MalformedCertificateError,
    verify_certificate,
)
from .suites import SIG_FIELD_LEN, SuiteError, pad_signature, unpad_signature

SECURED_BEACON_TYPE = 0x0B01
TYPE_TAG_LEN = 2

BEACON_BODY_LEN = 40
_BEACON_FMT = ">ddffQ8s"
MAX_VELOCITY = 3.4028234663852886e38  # the largest finite 4-byte float

# secured beacon offsets: tag, pseudonym id, body, timestamp, signature, certificate flag
_SECURED_TAG = SECURED_BEACON_TYPE.to_bytes(TYPE_TAG_LEN, "big")
_PID_AT = TYPE_TAG_LEN
_BODY_AT = _PID_AT + PSEUDONYM_ID_LEN
_STAMP_AT = _BODY_AT + BEACON_BODY_LEN
_SIG_AT = _STAMP_AT + TIMESTAMP_LEN  # the signature covers [_BODY_AT:_SIG_AT]
_FLAG_AT = _SIG_AT + SIG_FIELD_LEN
SECURED_BEACON_LEN = _FLAG_AT + 1
SECURED_BEACON_WITH_CERT_LEN = SECURED_BEACON_LEN + CERT_WIRE_LEN
PLAIN_BEACON_LEN = TYPE_TAG_LEN + BEACON_BODY_LEN

EMERGENCY_BRAKE_FLAG = 0x01


class BeaconingError(Exception):
    pass


class MalformedBeaconError(BeaconingError, ValueError):
    pass


class NoActivePseudonymError(BeaconingError):
    pass


@dataclass(frozen=True)
class Beacon:
    """One cooperative-awareness message: position, motion, time, payload.

    The payload is a fixed 8 bytes on the wire; shorter values are zero
    padded at construction so equality survives a round trip.
    """

    x: float
    y: float
    velocity: float
    heading: float
    generation_time: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if len(self.payload) > 8:
            raise MalformedBeaconError("payload exceeds 8 bytes")
        if len(self.payload) < 8:
            object.__setattr__(self, "payload", self.payload.ljust(8, b"\x00"))

    def pack(self) -> bytes:
        return struct.pack(_BEACON_FMT, self.x, self.y, self.velocity,
                           self.heading, self.generation_time, self.payload)

    @classmethod
    def unpack(cls, data: bytes) -> "Beacon":
        if len(data) != BEACON_BODY_LEN:
            raise MalformedBeaconError(f"beacon body must be {BEACON_BODY_LEN}B")
        x, y, vel, heading, gen, payload = struct.unpack(_BEACON_FMT, data)
        # NaN compares False with everything, so no position check could hold for it
        if not all(map(math.isfinite, (x, y, vel, heading))):
            raise MalformedBeaconError("position, velocity and heading must be finite")
        return cls(x=x, y=y, velocity=vel, heading=heading,
                   generation_time=gen, payload=payload)


# -- certificate omission -------------------------------------------------------


class OmissionVariant(Enum):
    ALWAYS = "always"
    PERIODIC = "periodic"
    NEIGHBOR_TRIGGERED = "neighbor_triggered"


@dataclass(frozen=True)
class OmissionStrategy:
    """Certificate attachment policy: one variant plus alpha/beta parameters."""

    variant: OmissionVariant
    alpha: int = 1
    beta: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.variant, OmissionVariant):
            raise BeaconingError(f"variant must be an OmissionVariant, got {self.variant!r}")
        for count in (self.alpha, self.beta):
            if not isinstance(count, int) or isinstance(count, bool):
                raise BeaconingError(f"alpha and beta must be ints, got {count!r}")
        if self.alpha < 1:
            raise BeaconingError("alpha must be >= 1")
        if self.beta < 0:
            raise BeaconingError("beta must be >= 0")

    @classmethod
    def always(cls) -> "OmissionStrategy":
        return cls(OmissionVariant.ALWAYS)

    @classmethod
    def periodic(cls, alpha: int, beta: int = 0) -> "OmissionStrategy":
        return cls(OmissionVariant.PERIODIC, alpha=alpha, beta=beta)

    @classmethod
    def neighbor_triggered(cls, beta: int = 0) -> "OmissionStrategy":
        return cls(OmissionVariant.NEIGHBOR_TRIGGERED, beta=beta)


def decide_attach(strategy: OmissionStrategy, beacons_sent: int,
                  beta_remaining: int, new_neighbor_seen: bool) -> bool:
    """Pure attachment decision for the next beacon.

    ``beacons_sent`` counts beacons already sent (the periodic variant
    attaches on counts 0, alpha, 2*alpha, ...). ``beta_remaining`` forces
    attachment right after a pseudonym change, whatever the variant.
    """
    if beta_remaining > 0:
        return True
    if strategy.variant is OmissionVariant.ALWAYS:
        return True
    if strategy.variant is OmissionVariant.PERIODIC:
        return beacons_sent % strategy.alpha == 0
    return new_neighbor_seen


# -- secured beacon wire format ----------------------------------------------------


@dataclass(slots=True)
class SecuredBeacon:
    """A beacon plus its pseudonymous signature and optional certificate.

    ``signed_payload`` (body || timestamp) is the bytes the signature covers:
    returned with the signature by the sender's HSM, sliced out of the wire
    bytes by the parser. It is the only place the signature's timestamp is
    kept, so equality compares it too.
    """

    beacon: Beacon
    signer_pseudonym_id: bytes
    signature: bytes
    certificate: CompactCertificate | None
    signed_payload: bytes = field(repr=False)

    def to_wire(self) -> bytes:
        cert = self.certificate
        return b"".join((
            _SECURED_TAG,
            self.signer_pseudonym_id,
            self.signed_payload,
            pad_signature(self.signature),
            b"\x00" if cert is None else b"\x01" + cert.to_bytes(),
        ))

    @classmethod
    def from_wire(cls, data: bytes | bytearray | memoryview) -> "SecuredBeacon":
        """Decode any bytes-like input; the fields are always ``bytes``."""
        data = bytes(memoryview(data))
        if data[:_PID_AT] != _SECURED_TAG:
            raise MalformedBeaconError("not a secured beacon")
        if len(data) not in (SECURED_BEACON_LEN, SECURED_BEACON_WITH_CERT_LEN):
            raise MalformedBeaconError(f"secured beacon of {len(data)}B")
        beacon = Beacon.unpack(data[_BODY_AT:_STAMP_AT])
        try:
            signature = unpad_signature(data[_SIG_AT:_FLAG_AT])
        except SuiteError as exc:
            raise MalformedBeaconError(str(exc)) from exc
        flag = data[_FLAG_AT]
        if flag == 0x00:
            if len(data) != SECURED_BEACON_LEN:
                raise MalformedBeaconError("certificate flag clear but trailing bytes present")
            cert = None
        elif flag == 0x01:
            if len(data) != SECURED_BEACON_WITH_CERT_LEN:
                raise MalformedBeaconError("certificate flag set but certificate missing")
            try:
                cert = CompactCertificate.from_bytes(data[SECURED_BEACON_LEN:])
            except MalformedCertificateError as exc:
                raise MalformedBeaconError(str(exc)) from exc
        else:
            raise MalformedBeaconError(f"bad certificate flag {flag:#x}")
        return cls(beacon, data[_PID_AT:_BODY_AT], signature, cert, data[_BODY_AT:_SIG_AT])


# -- neighbor table ----------------------------------------------------------------


class NeighborEntry:
    """One sender pseudonym, from its first reception until it has been
    silent for longer than the expiry. Until its certificate verifies,
    ``trust`` is None and ``held`` keeps its certless beacons (a list made
    with the first, dropping the oldest past the pending capacity);
    afterwards ``trust`` is the certificate's ``(public_key, validity_end)``."""

    __slots__ = ("first_seen", "last_seen", "trust", "held")

    def __init__(self, now: int) -> None:
        self.first_seen = now
        self.last_seen = now
        self.trust: _Trust | None = None
        self.held: list[SecuredBeacon] | None = None


# -- budgeted verification -----------------------------------------------------------


# A verification job is a beacon and, at the same position of a second queue,
# the trust pair it was queued under: ``(public_key, validity_end)`` means one
# signature check (1 unit) under that key until its certificate ends; ``None``
# means first contact, where the attached certificate is checked first and its
# subject key then verifies the signature (2 units).
_Trust = tuple[bytes, int]


DeliverCallback = Callable[[SecuredBeacon, int], None]


# -- the beaconing security service ----------------------------------------------------


class BeaconSecurity:
    """Per-vehicle send and receive security processing for beacons.

    Everything comes from ``identity``: its pseudonyms sign, and its HSM
    supplies the suite and the root of trust, read at each first-contact
    certificate check (an HSM with no root fails here with
    ``RootStateError``). After a root update, neighbors already trusted keep
    their cached key until their certificate or their table entry expires.

    All methods take explicit times in ms so a simulation can drive many
    instances deterministically. Delivery to the application happens only
    through the ``deliver`` callback, and only for beacons whose signature
    chain has fully verified (the trust gate).

    Receive calls return None; what became of each beacon is in the
    counters. ``beacons_received`` always equals ``delivered_count`` plus
    the ``discards`` (keyed by reason: ``stale``, ``bad_signature``,
    ``bad_certificate``, ``expired_certificate``, ``malformed: <detail>``),
    ``evicted_jobs``, ``pending_dropped``, ``queue_depth`` and
    ``pending_count``.
    """

    def __init__(
        self,
        identity: IdentityManager,
        strategy: OmissionStrategy,
        deliver: DeliverCallback | None = None,
        neighbor_expiry_ms: int = 3000,
        budget_per_second: int = 50,
        queue_capacity: int = 64,
        pending_capacity: int = 64,
        freshness_window_ms: int = 1000,
    ) -> None:
        if queue_capacity < 1 or pending_capacity < 1:
            raise BeaconingError("capacities must be positive")
        if neighbor_expiry_ms <= 0:
            raise BeaconingError("neighbor expiry must be positive")
        if budget_per_second < 2:
            raise BeaconingError("budget must be at least 2 per second, "
                                 "the units one first contact costs")
        if freshness_window_ms < 1:
            raise BeaconingError("freshness window must be positive")
        self.hsm = hsm = identity.hsm
        hsm.active_root  # raises RootStateError before any beacon arrives
        self.identity = identity
        self.strategy = strategy
        self.deliver = deliver
        # Neighbors by pseudonym id. An entry expires strictly after
        # ``neighbor_expiry_ms`` of silence; ``_new_neighbor`` says whether one
        # appeared since the last own beacon (neighbor-triggered omission).
        self.neighbors: dict[bytes, NeighborEntry] = {}
        self.neighbor_expiry_ms = neighbor_expiry_ms
        self._new_neighbor = False
        # At most ``budget_per_second`` units in any sliding second: the time
        # of each unit spent in the last second, oldest first.
        self.budget_per_second = budget_per_second
        self._spent_at: deque[int] = deque()
        self.queue_capacity = queue_capacity
        self.pending_capacity = pending_capacity
        self.freshness_window_ms = freshness_window_ms
        self.suite = hsm.suite
        self._queue: deque[SecuredBeacon] = deque(maxlen=queue_capacity)
        self._queued_trust: deque[_Trust | None] = deque(maxlen=queue_capacity)
        # Before this time the budget stays spent and no queued job can run.
        self._idle_until = 0
        # the pseudonym active when the layer is built needs no repetitions
        self._seen = identity.active
        self._beta_remaining = 0
        # counters
        self.beacons_sent = 0
        self.beacons_sent_with_cert = 0
        self.beacons_received = 0
        self.delivered_count = 0
        self.evicted_jobs = 0
        self.pending_dropped = 0
        self.discards: dict[str, int] = {}
        self.units_by_second: dict[int, int] = {}
        # ms from a neighbor entry's first beacon until its certificate verified
        self.time_to_trust_ms: list[int] = []

    # -- sending ------------------------------------------------------------

    def make_beacon(self, beacon: Beacon, now: int) -> SecuredBeacon:
        """Sign a beacon under the active pseudonym, attaching the certificate
        when the omission strategy calls for it.

        The pseudonym changes first if the identity manager's policy says it
        is due. The first beacon under a pseudonym this layer has not seen
        arms the beta certificate repetitions.
        """
        identity = self.identity
        if identity.change_due(now):
            identity.activate_next(now)
        active = identity.active
        if active is None:
            raise NoActivePseudonymError("no active pseudonym")
        if active is not self._seen:
            self._seen = active
            self._beta_remaining = self.strategy.beta
        attach = decide_attach(self.strategy, self.beacons_sent,
                               self._beta_remaining, self._new_neighbor)
        signed, signature = self.hsm.sign_and_timestamp(active.key_id, beacon.pack())
        active.beacons_signed += 1
        self.beacons_sent += 1
        if self._beta_remaining > 0:
            self._beta_remaining -= 1
        self._new_neighbor = False
        cert = active.certificate if attach else None
        if attach:
            self.beacons_sent_with_cert += 1
        return SecuredBeacon(beacon, active.pseudonym_id, signature, cert, signed)

    # -- receiving -----------------------------------------------------------

    def receive_wire(self, data: bytes | bytearray | memoryview, now: int) -> None:
        try:
            sb = SecuredBeacon.from_wire(data)
        except MalformedBeaconError as exc:
            self.beacons_received += 1
            self._discard(f"malformed: {exc}")
        else:
            self.on_receive(sb, now)

    def on_receive(self, sb: SecuredBeacon, now: int) -> None:
        """Classify one received beacon and queue its verification work."""
        self.beacons_received += 1
        beacon = sb.beacon
        delta = now - beacon.generation_time
        window = self.freshness_window_ms
        if delta > window or -delta > window:
            self._discard("stale")
            return
        pid = sb.signer_pseudonym_id
        entry = self.neighbors.get(pid)
        if entry is None:
            entry = self.neighbors[pid] = NeighborEntry(now)
            self._new_neighbor = True
        elif now > entry.last_seen:
            entry.last_seen = now
        trust = entry.trust
        if trust is not None:
            if now > trust[1]:
                self._discard("expired_certificate")
                return
        elif sb.certificate is None:
            held = entry.held
            if held is None:
                entry.held = [sb]
                return
            if len(held) == self.pending_capacity:
                self.pending_dropped += 1
                del held[0]
            held.append(sb)
            return
        queue = self._queue
        if len(queue) == self.queue_capacity:
            self.evicted_jobs += 1  # the appends drop the oldest job
        queue.append(sb)
        self._queued_trust.append(trust)
        if now >= self._idle_until:
            self._drain(now)

    def verification_step(self, now: int) -> None:
        """Spend whatever budget is available on the queue head."""
        if self._queue and now >= self._idle_until:
            self._drain(now)

    def neighbor_maintenance(self, now: int) -> None:
        """Expire silent neighbors, dropping the beacons they held."""
        neighbors = self.neighbors
        horizon = now - self.neighbor_expiry_ms
        for pid in [pid for pid, e in neighbors.items() if e.last_seen < horizon]:
            held = neighbors.pop(pid).held
            if held:
                self.pending_dropped += len(held)

    @property
    def units_used(self) -> int:
        return sum(self.units_by_second.values())

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def pending_count(self) -> int:
        return sum(len(e.held) for e in self.neighbors.values() if e.held)

    # -- internals --------------------------------------------------------------

    def _discard(self, reason: str) -> None:
        self.discards[reason] = self.discards.get(reason, 0) + 1

    def _drain(self, now: int) -> None:
        """Verify from the queue head while the budget lasts.

        Each job's fate lands in the counters and, when it verifies, in the
        delivery callback. A known-key job is checked under the trust pair it
        was queued with, even if its neighbor entry has since expired or been
        trusted anew. A first contact waits at the head for two units and
        checks its certificate first, stale or not: it must verify under the
        HSM's active root and be the one the claimed pseudonym id names (the
        signature does not cover the id), or the job is discarded for one
        unit. Otherwise the neighbor is trusted (the id is the certificate's
        hash, so the certificate alone binds the key to it), and the job,
        charged its second unit, goes on as a known-key job under the
        certified key. A job that went stale while it waited, or whose key's
        certificate expired, is discarded without a signature check but is
        still charged its units, so the queue drains at the rate the budget
        sets. Units spent a second or more ago leave the window first; those
        spent here join it at the end, each stamped ``now``. A drain that uses
        up the budget records when the oldest unit leaves the window; no drain
        before then could verify anything, so callers skip it.
        """
        queue = self._queue
        queued_trust = self._queued_trust
        spent_at = self._spent_at
        horizon = now - 1000
        while spent_at and spent_at[0] <= horizon:
            spent_at.popleft()
        left = start = self.budget_per_second - len(spent_at)
        suite = self.suite
        verify = suite.verify
        deliver = self.deliver
        window = self.freshness_window_ms
        while left > 0 and queue:
            if left < 2 and queued_trust[0] is None:
                break  # a first contact waits at the head for its two units
            trust = queued_trust.popleft()
            sb = queue.popleft()
            left -= 1
            if trust is None:
                cert = sb.certificate
                pid = sb.signer_pseudonym_id
                if pid != cert.pseudonym_id() or not verify_certificate(
                        cert, self.hsm.active_root, now, suite):
                    self._discard("bad_certificate")
                    continue
                left -= 1
                trust = (cert.subject_public_key, cert.validity_end)
                self._trust(pid, trust, now)
            delta = now - sb.beacon.generation_time
            if delta > window or -delta > window:
                self._discard("stale")
                continue
            public_key, validity_end = trust
            if now > validity_end:
                self._discard("expired_certificate")
            elif verify(public_key, sb.signed_payload, sb.signature):
                self.delivered_count += 1
                if deliver is not None:
                    deliver(sb, now)
            else:
                self._discard("bad_signature")
        spent = start - left
        if spent:
            spent_at.extend(repeat(now, spent))
            second = now // 1000
            by_second = self.units_by_second
            by_second[second] = by_second.get(second, 0) + spent
        if left <= 0:
            self._idle_until = spent_at[0] + 1000

    def _trust(self, pid: bytes, trust: _Trust, now: int) -> None:
        """Cache a neighbor's trust pair once its certificate has verified,
        recording its time to trust the first time, and queue the beacons it
        held, except those that went stale while they waited."""
        entry = self.neighbors.get(pid)
        if entry is None:
            return
        if entry.trust is None:
            self.time_to_trust_ms.append(now - entry.first_seen)
        entry.trust = trust
        held, entry.held = entry.held, None
        if held:
            window = self.freshness_window_ms
            queue = self._queue
            for waiting in held:
                delta = now - waiting.beacon.generation_time
                if delta > window or -delta > window:
                    self._discard("stale")
                    continue
                if len(queue) == self.queue_capacity:
                    self.evicted_jobs += 1
                queue.append(waiting)
                self._queued_trust.append(trust)
