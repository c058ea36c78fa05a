"""Secured beacon wire format, omission strategies and budgeted verification."""

from __future__ import annotations

import struct
from random import Random

import pytest

from v2xsec.beaconing import (
    BEACON_BODY_LEN,
    PLAIN_BEACON_LEN,
    SECURED_BEACON_LEN,
    SECURED_BEACON_TYPE,
    SECURED_BEACON_WITH_CERT_LEN,
    Beacon,
    BeaconSecurity,
    BeaconingError,
    MalformedBeaconError,
    NeighborTable,
    NoActivePseudonymError,
    OmissionStrategy,
    SecuredBeacon,
    VerificationBudget,
    decide_attach,
)
from v2xsec.clocks import VirtualClock
from v2xsec.hsm import SIGNED_BLOB_LEN, Hsm, signed_payload
from v2xsec.identity import (
    CERT_WIRE_LEN,
    PSEUDONYM_ID_LEN,
    CertificateAuthority,
    IdentityManager,
    PseudonymChangePolicy,
)
from v2xsec.suites import FastHashSuite

from .oracles import attach_trace_reference, budget_available_reference


def _beacon(now=0, heading=0.0, payload=b""):
    return Beacon(x=1.5, y=0.0, velocity=30.0, heading=heading,
                  generation_time=now, payload=payload)


def _vehicle(suite, ca, seed, strategy=None, deliver=None, pool=4, validity_ms=10**10,
             policy=None, **kwargs):
    clock = VirtualClock(0)
    hsm = Hsm(clock, suite, Random(seed))
    hsm.install_factory_root(ca.public_key)
    manager = IdentityManager(hsm, rng=Random(seed + 1), policy=policy)
    manager.provision(ca, pool, validity_ms=validity_ms)
    manager.activate_next(0)
    if strategy is None:
        strategy = OmissionStrategy.always()
    return BeaconSecurity(hsm, manager, ca.public_key, strategy,
                          deliver=deliver, **kwargs)


def _assert_funnel(bsec):
    """Every received beacon is in exactly one place: delivered, discarded
    under a reason, evicted, dropped from a pending buffer, or still queued
    or pending."""
    assert bsec.beacons_received == (
        bsec.delivered_count + sum(bsec.discards.values()) + bsec.evicted_jobs
        + bsec.pending_dropped + bsec.queue_depth + bsec.pending_count)


@pytest.fixture
def sender(fast_suite, ca):
    return _vehicle(fast_suite, ca, seed=100)


@pytest.fixture
def receiver(fast_suite, ca):
    delivered = []
    bsec = _vehicle(fast_suite, ca, seed=200,
                    deliver=lambda sb, now: delivered.append((sb, now)))
    bsec.delivered_log = delivered
    return bsec


# -- wire format -----------------------------------------------------------------


def test_wire_length_constants():
    # tag(2) + body(40); body is two doubles, two floats, u64, 8-byte payload
    assert BEACON_BODY_LEN == 8 + 8 + 4 + 4 + 8 + 8 == 40
    assert PLAIN_BEACON_LEN == 2 + BEACON_BODY_LEN == 42
    # tag(2) + pseudonym id(4) + body(40) + signed blob(72) + cert flag(1)
    assert SECURED_BEACON_LEN == 2 + PSEUDONYM_ID_LEN + BEACON_BODY_LEN + SIGNED_BLOB_LEN + 1 == 119
    assert SECURED_BEACON_WITH_CERT_LEN == SECURED_BEACON_LEN + CERT_WIRE_LEN == 261


def test_beacon_pack_roundtrip():
    beacon = _beacon(now=123456, heading=1.25, payload=b"brake")
    packed = beacon.pack()
    assert len(packed) == BEACON_BODY_LEN
    back = Beacon.unpack(packed)
    assert back == beacon
    assert back.payload == b"brake\x00\x00\x00"  # padded to the fixed width


def test_beacon_rejects_bad_sizes():
    with pytest.raises(MalformedBeaconError):
        _beacon(payload=b"123456789")
    with pytest.raises(MalformedBeaconError):
        Beacon.unpack(b"\x00" * 39)


def test_secured_beacon_wire_sizes(sender):
    sb = sender.make_beacon(_beacon(), 0)
    assert sb.certificate is not None
    assert len(sb.to_wire()) == SECURED_BEACON_WITH_CERT_LEN

    sender.strategy = OmissionStrategy.neighbor_triggered()
    sb2 = sender.make_beacon(_beacon(), 100)
    assert sb2.certificate is None
    assert len(sb2.to_wire()) == SECURED_BEACON_LEN


def test_secured_beacon_roundtrip(sender):
    for strategy in (OmissionStrategy.always(), OmissionStrategy.neighbor_triggered()):
        sender.strategy = strategy
        sb = sender.make_beacon(_beacon(), 0)
        wire = sb.to_wire()
        back = SecuredBeacon.from_wire(wire)
        assert back == sb
        assert back.to_wire() == wire
        # __eq__ leaves out the signed bytes: body || timestamp, one wire slice
        assert back.signed_payload == wire[6:54] == sb.signed_payload


def test_secured_beacon_parser_is_strict(sender):
    sb = sender.make_beacon(_beacon(), 0)
    wire = sb.to_wire()

    with pytest.raises(MalformedBeaconError):
        SecuredBeacon.from_wire(struct.pack(">H", 0x0B00) + wire[2:])  # wrong tag
    for truncated in (b"", wire[:1]):
        with pytest.raises(MalformedBeaconError):
            SecuredBeacon.from_wire(truncated)
    with pytest.raises(MalformedBeaconError):
        SecuredBeacon.from_wire(wire + b"\x00")  # off-size
    with pytest.raises(MalformedBeaconError):
        SecuredBeacon.from_wire(wire[:-1])

    flag_at = 2 + PSEUDONYM_ID_LEN + BEACON_BODY_LEN + SIGNED_BLOB_LEN
    cleared = bytearray(wire)
    cleared[flag_at] = 0x00  # flag says no certificate, but one follows
    with pytest.raises(MalformedBeaconError):
        SecuredBeacon.from_wire(bytes(cleared))

    bad_flag = bytearray(wire)
    bad_flag[flag_at] = 0x02
    with pytest.raises(MalformedBeaconError):
        SecuredBeacon.from_wire(bytes(bad_flag))

    sender.strategy = OmissionStrategy.neighbor_triggered()
    short = sender.make_beacon(_beacon(), 100)
    set_flag = bytearray(short.to_wire())
    set_flag[flag_at] = 0x01  # flag says certificate, none follows
    with pytest.raises(MalformedBeaconError):
        SecuredBeacon.from_wire(bytes(set_flag))


# -- omission strategies -----------------------------------------------------------


def test_strategy_validation():
    with pytest.raises(BeaconingError):
        OmissionStrategy.periodic(alpha=0)
    with pytest.raises(BeaconingError):
        OmissionStrategy.neighbor_triggered(beta=-1)


def test_decide_attach_basics():
    always = OmissionStrategy.always()
    periodic = OmissionStrategy.periodic(alpha=3)
    triggered = OmissionStrategy.neighbor_triggered()
    assert decide_attach(always, 5, 0, False)
    assert decide_attach(periodic, 0, 0, False)
    assert not decide_attach(periodic, 1, 0, False)
    assert decide_attach(periodic, 3, 0, False)
    assert not decide_attach(triggered, 0, 0, False)
    assert decide_attach(triggered, 0, 0, True)
    # beta repetition dominates every variant
    assert decide_attach(triggered, 1, 2, False)
    assert decide_attach(periodic, 1, 1, False)


def _strategy_for(variant, alpha, beta):
    if variant == "always":
        return OmissionStrategy.always()
    if variant == "periodic":
        return OmissionStrategy.periodic(alpha=alpha, beta=beta)
    return OmissionStrategy.neighbor_triggered(beta=beta)


def test_attachment_matches_trace_reference(fast_suite, ca):
    """Drive a real sender through random change/neighbor/send traces and
    compare every attach decision with the straight-line replay."""
    rng = Random(0xA77AC4)
    checked = 0
    for trial in range(60):
        variant = rng.choice(["always", "periodic", "neighbor_triggered"])
        alpha = rng.choice([1, 2, 3, 5, 10])
        beta = rng.choice([0, 1, 3])
        events = [rng.choices(["change", "neighbor", "send"], weights=[1, 2, 5])[0]
                  for _ in range(rng.randint(5, 25))]

        sender = _vehicle(fast_suite, ca, seed=1000 + trial,
                          strategy=_strategy_for(variant, alpha, beta),
                          pool=1 + events.count("change"))
        got = []
        now = 0
        fake_pid = 0
        for kind in events:
            now += 100
            if kind == "change":
                sender.identity.activate_next(now)
            elif kind == "neighbor":
                fake_pid += 1
                sender.neighbors.observe(struct.pack(">I", fake_pid), now)
            else:
                sb = sender.make_beacon(_beacon(now), now)
                got.append(sb.certificate is not None)
        expected = attach_trace_reference(variant, alpha, beta,
                                          [(kind,) for kind in events])
        assert got == expected, (trial, variant, alpha, beta, events)
        checked += len(got)
    assert checked >= 300


def test_beta_repetition_after_change(fast_suite, ca):
    policy = PseudonymChangePolicy(min_lifetime_ms=10**9, max_lifetime_ms=10**9,
                                   max_beacons=10**9)
    sender = _vehicle(fast_suite, ca, seed=50, policy=policy,
                      strategy=OmissionStrategy.neighbor_triggered(beta=3))
    first = sender.identity.active
    attached = [sender.make_beacon(_beacon(t), t).certificate is not None
                for t in range(0, 500, 100)]
    assert attached == [False] * 5  # no trigger, no certificate

    # the policy's lifetime is up: the next beacon goes out under a new pseudonym
    now = 10**9 + 1
    beacons = [sender.make_beacon(_beacon(now), now) for _ in range(5)]
    assert sender.identity.active is not first
    assert {sb.signer_pseudonym_id for sb in beacons} == {sender.identity.active.pseudonym_id}
    assert [sb.certificate is not None for sb in beacons] == [True, True, True, False, False]


def test_beta_arms_for_pseudonyms_activated_after_construction(fast_suite, ca):
    """The pseudonym active when the layer is built counts as seen; one
    activated afterwards, as the simulator does, gets beta repetitions."""
    strategy = OmissionStrategy.neighbor_triggered(beta=2)
    before = _vehicle(fast_suite, ca, seed=60, strategy=strategy)
    assert [before.make_beacon(_beacon(t), t).certificate is not None
            for t in range(3)] == [False, False, False]

    hsm = Hsm(VirtualClock(0), fast_suite, Random(70))
    hsm.install_factory_root(ca.public_key)
    manager = IdentityManager(hsm, rng=Random(71))
    manager.provision(ca, 2, validity_ms=10**10)
    after = BeaconSecurity(hsm, manager, ca.public_key, strategy)
    manager.activate_next(0)
    assert [after.make_beacon(_beacon(t), t).certificate is not None
            for t in range(3)] == [True, True, False]


# -- neighbor table ------------------------------------------------------------------


def test_neighbor_table_marks_and_expiry():
    table = NeighborTable(expiry_ms=3000)
    assert not table.new_since_mark
    table.observe(b"\x00\x00\x00\x01", 0)
    assert table.new_since_mark
    table.mark_beacon_sent()
    table.observe(b"\x00\x00\x00\x01", 100)  # refresh, not new
    assert not table.new_since_mark

    assert table.sweep(3100) == []  # silent for exactly expiry_ms: kept
    assert [e.pseudonym_id for e in table.sweep(3101)] == [b"\x00\x00\x00\x01"]
    assert len(table) == 0

    with pytest.raises(BeaconingError):
        NeighborTable(expiry_ms=0)


def test_neighbor_last_seen_never_regresses():
    table = NeighborTable()
    entry = table.observe(b"\x00\x00\x00\x02", 500)
    table.observe(b"\x00\x00\x00\x02", 400)
    assert entry.last_seen == 500


# -- verification budget ---------------------------------------------------------------


def test_budget_window_matches_reference():
    rng = Random(0xB0D6E7)
    for trial in range(50):
        cap = rng.randint(1, 60)
        budget = VerificationBudget(cap)
        spends = []
        now = 0
        for _ in range(100):
            now += rng.randint(0, 400)
            expected = budget_available_reference(spends, now, cap)
            assert budget.available(now) == expected, (trial, now, spends)
            if expected > 0 and rng.random() < 0.7:
                units = rng.randint(1, min(3, expected))
                budget.consume(now, units)
                spends.append((now, units))


def test_budget_restores_after_exactly_one_second():
    budget = VerificationBudget(10)
    budget.consume(0, 10)
    assert budget.available(999) == 0
    assert budget.available(1000) == 10

    with pytest.raises(BeaconingError):
        VerificationBudget(0)


def test_budget_refill_time():
    budget = VerificationBudget(3)
    assert budget.refill_time() == 0  # nothing spent, nothing to wait for
    budget.consume(100, 2)
    budget.consume(400, 1)
    assert budget.refill_time() == 1100
    assert budget.available(1099) == 0
    assert budget.available(1100) == 2
    assert budget.refill_time() == 1400


def test_first_contact_waits_for_two_units_at_queue_head(sender, fast_suite, ca):
    """A certificate job needs two units; with one left it stays at the head
    and everything behind it waits too (FIFO), until the window slides."""
    receiver = _vehicle(fast_suite, ca, seed=305, budget_per_second=3)
    other = _vehicle(fast_suite, ca, seed=306)
    receiver.on_receive(sender.make_beacon(_beacon(0), 0), 0)
    assert receiver.delivered_count == 1  # 2 of 3 units spent
    stranger = other.make_beacon(_beacon(10), 10)  # carries its certificate
    receiver.on_receive(stranger, 10)
    assert receiver.queue_depth == 1
    sender.strategy = OmissionStrategy.neighbor_triggered()
    known = sender.make_beacon(_beacon(20), 20)
    receiver.on_receive(known, 20)
    assert receiver.queue_depth == 2 and receiver.units_used == 2
    assert receiver.delivered_count == 1
    _assert_funnel(receiver)

    receiver.verification_step(999)  # one unit left: the head still waits
    assert receiver.queue_depth == 2
    receiver.verification_step(1000)  # window slides: 3 units, head first
    assert receiver.queue_depth == 0
    assert receiver.delivered_count == 3
    assert receiver.units_used == 5
    assert receiver.units_by_second == {0: 2, 1: 3}
    _assert_funnel(receiver)


# -- receive pipeline ---------------------------------------------------------------


def test_first_contact_with_certificate_delivers(sender, receiver):
    sb = sender.make_beacon(_beacon(), 0)
    receiver.on_receive(sb, 10)
    assert receiver.delivered_count == 1
    assert receiver.delivered_log == [(sb, 10)]
    assert receiver.units_used == 2  # certificate check + signature check
    entry = receiver.neighbors.get(sb.signer_pseudonym_id)
    assert entry.verified and entry.public_key is not None
    _assert_funnel(receiver)


def test_known_neighbor_costs_one_unit(sender, receiver):
    receiver.on_receive(sender.make_beacon(_beacon(), 0), 0)
    sender.strategy = OmissionStrategy.neighbor_triggered()
    sb = sender.make_beacon(_beacon(100), 100)
    assert sb.certificate is None
    receiver.on_receive(sb, 100)
    assert receiver.delivered_count == 2
    assert receiver.units_used == 3  # 2 for first contact, 1 for the follow-up
    _assert_funnel(receiver)


def test_certless_first_contact_waits_then_releases(sender, receiver):
    sender.strategy = OmissionStrategy.neighbor_triggered()
    early = [sender.make_beacon(_beacon(t), t) for t in (0, 100)]
    for held, (sb, t) in enumerate(zip(early, (0, 100)), start=1):
        receiver.on_receive(sb, t)
        assert receiver.pending_count == held and receiver.queue_depth == 0
    assert receiver.delivered_count == 0  # trust gate holds
    _assert_funnel(receiver)

    sender.strategy = OmissionStrategy.always()
    with_cert = sender.make_beacon(_beacon(200), 200)
    receiver.on_receive(with_cert, 200)
    # the held beacons verify right behind the certificate beacon
    assert receiver.pending_count == 0
    assert [sb for sb, _ in receiver.delivered_log] == [with_cert] + early
    assert receiver.delivered_count == 3
    _assert_funnel(receiver)


def test_held_beacons_go_stale_while_awaiting_certificate(sender, receiver):
    """A held beacon gets the freshness test again when its sender's
    certificate finally verifies; one that aged out is discarded as stale
    without spending a unit."""
    sender.strategy = OmissionStrategy.neighbor_triggered()
    held = sender.make_beacon(_beacon(0), 0)
    receiver.on_receive(held, 0)
    assert receiver.pending_count == 1 and receiver.queue_depth == 0

    sender.strategy = OmissionStrategy.always()
    with_cert = sender.make_beacon(_beacon(2500), 2500)
    receiver.on_receive(with_cert, 2500)
    assert [sb for sb, _ in receiver.delivered_log] == [with_cert]
    assert receiver.discards == {"stale": 1}
    assert receiver.queue_depth == 0 and receiver.pending_count == 0
    assert receiver.units_used == 2  # the certificate beacon's first contact only
    _assert_funnel(receiver)


def test_cached_key_ends_with_certificate_validity(fast_suite, ca, receiver):
    """A verified neighbour's cached key is trusted only while its
    certificate is valid; afterwards its beacons are discarded unverified."""
    sender = _vehicle(fast_suite, ca, seed=101, validity_ms=1000)
    receiver.on_receive(sender.make_beacon(_beacon(0), 0), 0)
    assert receiver.delivered_count == 1
    sender.strategy = OmissionStrategy.neighbor_triggered()
    last_valid = sender.make_beacon(_beacon(1000), 1000)
    receiver.on_receive(last_valid, 1000)
    assert receiver.delivered_count == 2
    expired = sender.make_beacon(_beacon(5001), 5001)
    assert expired.certificate is None
    receiver.on_receive(expired, 5001)
    assert receiver.discards == {"expired_certificate": 1}
    assert receiver.delivered_count == 2
    assert receiver.units_used == 3  # 2 for first contact, 1 at t=1000, none after
    _assert_funnel(receiver)


def test_pending_bucket_is_bounded(sender, fast_suite, ca):
    receiver = _vehicle(fast_suite, ca, seed=300, pending_capacity=2)
    sender.strategy = OmissionStrategy.neighbor_triggered()
    for t in (0, 100, 200):
        receiver.on_receive(sender.make_beacon(_beacon(t), t), t)
    assert receiver.pending_count == 2
    assert receiver.pending_dropped == 1
    # the sender's neighbor entry holds the newest two
    entry = receiver.neighbors.get(sender.identity.active.pseudonym_id)
    assert [sb.beacon.generation_time for sb in entry.held] == [100, 200]
    _assert_funnel(receiver)


def test_neighbor_expiry_drops_pending(sender, fast_suite, ca):
    receiver = _vehicle(fast_suite, ca, seed=301, neighbor_expiry_ms=1000)
    sender.strategy = OmissionStrategy.neighbor_triggered()
    receiver.on_receive(sender.make_beacon(_beacon(0), 0), 0)
    assert receiver.pending_count == 1
    receiver.neighbor_maintenance(1000)  # still within expiry
    assert len(receiver.neighbors) == 1 and receiver.pending_count == 1
    receiver.neighbor_maintenance(1001)
    assert len(receiver.neighbors) == 0
    assert receiver.pending_count == 0
    assert receiver.pending_dropped == 1
    _assert_funnel(receiver)


def test_freshness_window_is_inclusive(sender, receiver):
    for skew, fresh in ((1000, True), (1001, False), (-1000, True), (-1001, False)):
        sb = sender.make_beacon(_beacon(now=5000), 5000)
        discarded = sum(receiver.discards.values())
        receiver.on_receive(sb, 5000 + skew)
        assert sum(receiver.discards.values()) == discarded + (not fresh), skew
    assert receiver.discards == {"stale": 2}
    _assert_funnel(receiver)


def test_bad_signature_is_discarded_not_delivered(sender, receiver):
    # teach the receiver the real key first, then present a mismatched body
    sb = sender.make_beacon(_beacon(), 0)
    receiver.on_receive(sb, 0)
    tampered = Beacon(x=999.0, y=0.0, velocity=30.0, heading=0.0, generation_time=100)
    blob = sender.make_beacon(_beacon(100), 100).blob
    lying = SecuredBeacon(tampered, sb.signer_pseudonym_id, blob, None,
                          signed_payload(tampered.pack(), blob.timestamp))
    receiver.on_receive(lying, 100)
    assert receiver.discards == {"bad_signature": 1}
    assert receiver.delivered_count == 1
    _assert_funnel(receiver)


def test_bad_certificate_is_discarded(sender, receiver, fast_suite):
    sb = sender.make_beacon(_beacon(), 0)
    # certificate from an issuer the receiver does not trust
    rogue_ca = CertificateAuthority(9, suite=fast_suite, rng=Random(999))
    rogue_cert = rogue_ca.issue(sb.certificate.subject_public_key, 0, 10**10)
    rogue = SecuredBeacon(sb.beacon, sb.signer_pseudonym_id, sb.blob, rogue_cert,
                          sb.signed_payload)
    receiver.on_receive(rogue, 0)
    assert receiver.discards == {"bad_certificate": 1}
    assert receiver.units_used == 1  # failed cert check never spends the second unit
    assert receiver.delivered_count == 0
    _assert_funnel(receiver)


def test_claimed_pseudonym_id_must_match_certificate(sender, receiver, fast_suite, ca):
    # The signature does not cover the pseudonym id, so an attacker holding a
    # valid certificate of its own could otherwise speak as the victim.
    attacker = _vehicle(fast_suite, ca, seed=400)
    victim_pid = sender.identity.active.pseudonym_id
    own = attacker.make_beacon(_beacon(0), 0)
    hijack = SecuredBeacon(own.beacon, victim_pid, own.blob, own.certificate,
                           own.signed_payload)
    receiver.on_receive(hijack, 0)
    assert receiver.discards == {"bad_certificate": 1}
    assert receiver.units_used == 1
    assert receiver.delivered_count == 0

    genuine = sender.make_beacon(_beacon(100), 100)
    receiver.on_receive(genuine, 100)
    assert receiver.delivered_count == 1
    sender.strategy = OmissionStrategy.neighbor_triggered()
    later = sender.make_beacon(_beacon(200), 200)
    assert later.certificate is None
    receiver.on_receive(later, 200)
    assert receiver.delivered_count == 2
    assert [(sb.signer_pseudonym_id, now) for sb, now in receiver.delivered_log] == [
        (victim_pid, 100), (victim_pid, 200)]
    _assert_funnel(receiver)


def test_budget_exhaustion_queues_then_verifies(sender, fast_suite, ca):
    receiver = _vehicle(fast_suite, ca, seed=303, budget_per_second=2)
    first = sender.make_beacon(_beacon(0), 0)
    receiver.on_receive(first, 0)
    assert receiver.delivered_count == 1  # spends 2

    sender.strategy = OmissionStrategy.neighbor_triggered()
    second = sender.make_beacon(_beacon(100), 100)
    receiver.on_receive(second, 100)
    assert receiver.queue_depth == 1
    assert receiver.delivered_count == 1
    _assert_funnel(receiver)

    receiver.verification_step(999)  # budget still exhausted
    assert receiver.queue_depth == 1
    receiver.verification_step(1000)  # window slides, budget restored
    assert receiver.queue_depth == 0
    assert receiver.delivered_count == 2
    _assert_funnel(receiver)


def test_queue_eviction_drops_oldest(sender, fast_suite, ca):
    log = []
    receiver = _vehicle(fast_suite, ca, seed=304, budget_per_second=2,
                        queue_capacity=2,
                        deliver=lambda sb, now: log.append((sb, now)))
    receiver.on_receive(sender.make_beacon(_beacon(0), 0), 0)  # exhausts budget
    sender.strategy = OmissionStrategy.neighbor_triggered()
    beacons = [sender.make_beacon(_beacon(t), t) for t in (10, 20, 30)]
    for sb, t in zip(beacons, (10, 20, 30)):
        receiver.on_receive(sb, t)
    assert receiver.queue_depth == 2
    assert receiver.evicted_jobs == 1

    receiver.verification_step(1000)
    # the first queued beacon was evicted; the two younger ones delivered
    delivered_times = [sb.beacon.generation_time for sb, _ in log]
    assert delivered_times == [0, 20, 30]
    _assert_funnel(receiver)


def test_queued_job_checks_certificate_validity_at_dequeue(fast_suite, ca):
    """A beacon queued while its sender's certificate was valid is discarded
    if the certificate has expired by the time the job reaches the head."""
    sender = _vehicle(fast_suite, ca, seed=102, validity_ms=1000)
    receiver = _vehicle(fast_suite, ca, seed=310, budget_per_second=2)
    receiver.on_receive(sender.make_beacon(_beacon(100), 100), 100)
    assert receiver.delivered_count == 1  # spends the budget until t=1100
    sender.strategy = OmissionStrategy.neighbor_triggered()
    late = sender.make_beacon(_beacon(900), 900)
    receiver.on_receive(late, 900)
    assert receiver.queue_depth == 1
    receiver.verification_step(1100)
    assert receiver.delivered_count == 1
    assert receiver.discards == {"expired_certificate": 1}
    assert receiver.queue_depth == 0
    assert receiver.units_used == 3  # the discarded job is still charged its unit
    _assert_funnel(receiver)


def test_stale_known_key_job_is_discarded_at_dequeue(sender, fast_suite, ca):
    receiver = _vehicle(fast_suite, ca, seed=311, budget_per_second=2)
    receiver.on_receive(sender.make_beacon(_beacon(0), 0), 0)  # exhausts budget
    sender.strategy = OmissionStrategy.neighbor_triggered()
    receiver.on_receive(sender.make_beacon(_beacon(100), 100), 100)
    assert receiver.queue_depth == 1
    receiver.verification_step(1200)  # 1100 ms after generation
    assert receiver.delivered_count == 1
    assert receiver.discards == {"stale": 1}
    assert receiver.queue_depth == 0
    assert receiver.units_by_second == {0: 2, 1: 1}
    _assert_funnel(receiver)


def test_stale_first_contact_job_is_discarded_at_dequeue(sender, fast_suite, ca):
    """A first contact that went stale in the queue verifies nothing: the
    neighbour stays unverified and no time to trust is recorded."""
    receiver = _vehicle(fast_suite, ca, seed=312, budget_per_second=2)
    other = _vehicle(fast_suite, ca, seed=313)
    receiver.on_receive(other.make_beacon(_beacon(0), 0), 0)  # exhausts budget
    first = sender.make_beacon(_beacon(100), 100)
    receiver.on_receive(first, 100)
    assert receiver.queue_depth == 1
    receiver.verification_step(1200)
    assert receiver.delivered_count == 1
    assert receiver.discards == {"stale": 1}
    assert not receiver.neighbors.get(first.signer_pseudonym_id).verified
    assert receiver.time_to_trust_ms == [0]  # the other vehicle's only
    assert receiver.units_by_second == {0: 2, 1: 2}  # charged both units
    _assert_funnel(receiver)


def test_time_to_trust_runs_from_first_beacon_to_verified_certificate(sender, fast_suite, ca):
    """Each neighbour entry records one sample, when its certificate first
    verifies; a later first-contact job for the same pseudonym adds none."""
    receiver = _vehicle(fast_suite, ca, seed=314, budget_per_second=4)
    sender.strategy = OmissionStrategy.neighbor_triggered()
    receiver.on_receive(sender.make_beacon(_beacon(0), 0), 0)
    assert receiver.pending_count == 1
    sender.strategy = OmissionStrategy.always()
    receiver.on_receive(sender.make_beacon(_beacon(300), 300), 300)
    # the certificate beacon and the held beacon behind it: 3 of 4 units
    assert receiver.delivered_count == 2 and receiver.units_used == 3
    assert receiver.time_to_trust_ms == [300]

    # two certificate beacons wait at the head for two units; both verify
    # their certificate, only the first makes the entry trusted
    other = _vehicle(fast_suite, ca, seed=315)
    for queued, t in enumerate((400, 500), start=1):
        receiver.on_receive(other.make_beacon(_beacon(t), t), t)
        assert receiver.queue_depth == queued
    receiver.verification_step(1300)
    assert receiver.queue_depth == 0 and receiver.delivered_count == 4
    assert receiver.time_to_trust_ms == [300, 900]
    _assert_funnel(receiver)


def test_receive_wire_counts_malformed(receiver):
    receiver.receive_wire(b"\x0b\x01garbage", 0)
    assert receiver.beacons_received == 1
    [(reason, count)] = receiver.discards.items()
    assert reason.startswith("malformed: ") and count == 1
    _assert_funnel(receiver)


def test_receive_wire_roundtrip(sender, receiver):
    sb = sender.make_beacon(_beacon(), 0)
    assert receiver.receive_wire(sb.to_wire(), 0) is None  # the fate is counted
    assert receiver.delivered_log == [(sb, 0)]
    _assert_funnel(receiver)


def test_station_verifies_with_its_hsm_suite(sender, receiver, fast_suite):
    # No suite is passed to BeaconSecurity, as in the README: a station on a
    # fast-suite HSM must verify with that suite, not fall back to P-224.
    assert receiver.suite is fast_suite
    sb = sender.make_beacon(_beacon(), 0)
    receiver.receive_wire(sb.to_wire(), 0)
    assert receiver.delivered_count == 1
    assert receiver.delivered_log == [(sb, 0)]


def test_make_beacon_requires_active_pseudonym(fast_suite, ca):
    clock = VirtualClock(0)
    hsm = Hsm(clock, fast_suite, Random(5))
    hsm.install_factory_root(ca.public_key)
    manager = IdentityManager(hsm, rng=Random(6))
    manager.provision(ca, 1, validity_ms=10**6)
    bsec = BeaconSecurity(hsm, manager, ca.public_key, OmissionStrategy.always())
    with pytest.raises(NoActivePseudonymError):
        bsec.make_beacon(_beacon(), 0)


def test_units_by_second_bookkeeping(sender, receiver):
    receiver.on_receive(sender.make_beacon(_beacon(0), 0), 0)
    sender.strategy = OmissionStrategy.neighbor_triggered()
    receiver.on_receive(sender.make_beacon(_beacon(1500), 1500), 1500)
    assert receiver.units_by_second == {0: 2, 1: 1}
    assert receiver.units_used == 3
