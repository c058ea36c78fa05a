"""Certificates, pseudonym pools and change policies."""

from __future__ import annotations

import dataclasses
import hashlib
from random import Random

import pytest

from v2xsec.clocks import VirtualClock
from v2xsec.hsm import Hsm, RevokedKeyError
from v2xsec.identity import (
    CERT_WIRE_LEN,
    PSEUDONYM_ID_LEN,
    CertificateAuthority,
    CompactCertificate,
    IdentityError,
    IdentityManager,
    MalformedCertificateError,
    PoolEmptyError,
    PseudonymChangePolicy,
    verify_certificate,
)


@pytest.fixture
def cert(ca):
    pub = ca.suite.generate_keypair(Random(2))[1]
    return ca.issue(pub, validity_start=1000, validity_end=500_000)


# -- certificate wire format -----------------------------------------------------


def test_certificate_wire_length(cert):
    # version(1) + issuer(4) + validity(8+8) + point(57) + signature field(64)
    assert CERT_WIRE_LEN == 1 + 4 + 8 + 8 + 57 + 64 == 142
    assert len(cert.to_bytes()) == CERT_WIRE_LEN


def test_certificate_roundtrip(cert):
    assert CompactCertificate.from_bytes(cert.to_bytes()) == cert


def test_certificate_rejects_wrong_length(cert):
    wire = cert.to_bytes()
    with pytest.raises(MalformedCertificateError):
        CompactCertificate.from_bytes(wire + b"\x00")
    with pytest.raises(MalformedCertificateError):
        CompactCertificate.from_bytes(wire[:-1])


def test_pseudonym_id_is_prefix_of_wire_hash(cert):
    expected = hashlib.sha256(cert.to_bytes()).digest()[:PSEUDONYM_ID_LEN]
    assert cert.pseudonym_id() == expected
    assert len(cert.pseudonym_id()) == 4


def test_certificate_verifies_inside_window(ca, cert, fast_suite):
    assert verify_certificate(cert, ca.public_key, 1000, fast_suite)  # inclusive start
    assert verify_certificate(cert, ca.public_key, 500_000, fast_suite)  # inclusive end
    assert not verify_certificate(cert, ca.public_key, 999, fast_suite)
    assert not verify_certificate(cert, ca.public_key, 500_001, fast_suite)


def test_certificate_wrong_issuer(ca, cert, fast_suite):
    other = CertificateAuthority(2, suite=fast_suite, rng=Random(77))
    assert not verify_certificate(cert, other.public_key, 2000, fast_suite)


def test_every_byte_of_certificate_is_covered(ca, cert, fast_suite):
    """Flipping any single wire byte must break parsing or verification."""
    wire = cert.to_bytes()
    for pos in range(len(wire)):
        mutated = bytearray(wire)
        mutated[pos] ^= 0x01
        try:
            parsed = CompactCertificate.from_bytes(bytes(mutated))
        except MalformedCertificateError:
            continue  # strict parser caught it (version byte, padding, header)
        assert not verify_certificate(parsed, ca.public_key, 2000, fast_suite), pos


def test_issue_validates_inputs(ca):
    pub = ca.suite.generate_keypair(Random(4))[1]
    with pytest.raises(IdentityError):
        ca.issue(pub, validity_start=10, validity_end=9)
    with pytest.raises(IdentityError):
        ca.issue(b"\x04" + b"\x00" * 10, validity_start=0, validity_end=1)
    with pytest.raises(IdentityError):  # the right length, but not an uncompressed point
        ca.issue(b"\x05" + bytes(56), validity_start=0, validity_end=100)


def test_certificate_over_a_non_point_fails_verification(ca, fast_suite):
    """A receiver's check holds the subject key to the same point format the
    suites demand, even when the issuer really signed it."""
    unsigned = CompactCertificate(ca.issuer_id, 0, 100, b"\x05" + bytes(56), b"")
    signature = fast_suite.sign(ca._private, unsigned.tbs_bytes())
    cert = dataclasses.replace(unsigned, signature=signature)
    assert fast_suite.verify(ca.public_key, cert.tbs_bytes(), cert.signature)
    assert not verify_certificate(cert, ca.public_key, 50, fast_suite)


# -- change policy ---------------------------------------------------------------


def test_should_change_truth_table(fast_suite):
    policy = PseudonymChangePolicy(min_lifetime_ms=1000, max_lifetime_ms=5000, max_beacons=100)
    manager, _, _ = _manager(fast_suite, policy=policy)
    # never before activation
    assert not manager.change_due(0)
    active = manager.activate_next(0)

    def due(now, signed=0, lifetime=5000):
        active.beacons_signed = signed
        active.lifetime_ms = lifetime
        return manager.change_due(now)

    # age below the floor blocks everything, even the beacon cap
    assert not due(999, signed=500)
    # between floor and max: only the beacon cap forces a change
    assert not due(3000, signed=99)
    assert due(3000, signed=100)
    # reaching max age forces a change regardless of beacons
    assert due(5000)
    # the drawn lifetime sets the age limit
    assert due(2000, lifetime=2000)
    assert not due(1999, lifetime=2000)


def test_policy_validation():
    with pytest.raises(IdentityError):
        PseudonymChangePolicy(min_lifetime_ms=10, max_lifetime_ms=5, max_beacons=1)
    with pytest.raises(IdentityError):
        PseudonymChangePolicy(min_lifetime_ms=0, max_lifetime_ms=5, max_beacons=0)


# -- identity manager -------------------------------------------------------------


def _manager(fast_suite, pool=3, policy=None):
    clock = VirtualClock(0)
    hsm = Hsm(clock=clock, suite=fast_suite, rng=Random(13))
    ca = CertificateAuthority(1, suite=fast_suite, rng=Random(17))
    hsm.install_factory_root(ca.public_key)
    manager = IdentityManager(hsm, rng=Random(19), policy=policy)
    manager.provision(ca, pool, validity_ms=10_000_000)
    return manager, hsm, ca


def test_provision_and_activate(fast_suite):
    manager, hsm, ca = _manager(fast_suite)
    assert manager.active is None
    active = manager.activate_next(0)
    assert active is manager.active and active.activated_at == 0
    assert verify_certificate(active.certificate, ca.public_key, 0, fast_suite)
    # the active key signs, and the certificate binds its public key
    signed, signature = hsm.sign_and_timestamp(active.key_id, b"probe")
    assert fast_suite.verify(active.certificate.subject_public_key, signed, signature)
    # the three provisioned spares allow exactly three activations
    manager.activate_next(1)
    manager.activate_next(2)
    with pytest.raises(PoolEmptyError):
        manager.activate_next(3)


def test_activation_retires_and_revokes_old_key(fast_suite):
    manager, hsm, _ = _manager(fast_suite)
    old = manager.activate_next(0)
    new = manager.activate_next(100)
    assert new is manager.active
    assert new.pseudonym_id != old.pseudonym_id
    with pytest.raises(RevokedKeyError):
        hsm.sign_and_timestamp(old.key_id, b"probe")
    signed, signature = hsm.sign_and_timestamp(new.key_id, b"probe")
    assert fast_suite.verify(new.certificate.subject_public_key, signed, signature)


def test_pool_exhaustion(fast_suite):
    manager, _, _ = _manager(fast_suite, pool=1)
    manager.activate_next(0)
    with pytest.raises(PoolEmptyError):
        manager.activate_next(1)


def test_drawn_lifetimes_stay_inside_policy_bounds(fast_suite):
    policy = PseudonymChangePolicy(min_lifetime_ms=2000, max_lifetime_ms=9000, max_beacons=10**6)
    manager, _, _ = _manager(fast_suite, pool=3, policy=policy)
    for t in (0, 10_000, 20_000):
        drawn = manager.activate_next(t).lifetime_ms
        assert drawn is not None and 2000 <= drawn <= 9000


def test_should_change_respects_spares(fast_suite):
    policy = PseudonymChangePolicy(min_lifetime_ms=0, max_lifetime_ms=10, max_beacons=10**6)
    manager, _, _ = _manager(fast_suite, pool=1, policy=policy)
    manager.activate_next(0)
    # change is due by age, but there is nothing left to change into
    assert manager.active.lifetime_ms <= 10
    assert not manager.change_due(50)
    # with a spare left the same age is due
    manager, _, _ = _manager(fast_suite, pool=2, policy=policy)
    manager.activate_next(0)
    assert manager.change_due(50)
