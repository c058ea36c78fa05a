"""HSM behavior: clock, root custody, keys, signing, ECIES."""

from __future__ import annotations

import struct
import sys
import threading
import time
from random import Random

import pytest

from v2xsec.clocks import VirtualClock
from v2xsec.hsm import (
    ECIES_OVERHEAD,
    TIMESTAMP_LEN,
    Hsm,
    IntegrityError,
    RevokedKeyError,
    RootStateError,
    RootUpdatePackage,
    UnknownKeyError,
    authorize_root_update,
    encrypt_for,
)
from v2xsec.identity import CertificateAuthority, verify_certificate
from v2xsec.selftest import run_hsm_security_suite

from .oracles import pkcs7_ecies_length


def _fresh_hsm(suite, start=0):
    clock = VirtualClock(start)
    hsm = Hsm(clock=clock, suite=suite, rng=Random(23))
    root_priv, root_pub = suite.generate_keypair(Random(29))
    hsm.install_factory_root(root_pub)
    return hsm, clock, root_priv, root_pub


# -- clock ------------------------------------------------------------------------


def test_clock_reads_are_monotone(fast_suite):
    hsm, clock, _, _ = _fresh_hsm(fast_suite)
    clock.set(100)
    assert hsm.read_clock() == 100
    clock.set(40)  # host clock regressions never propagate
    assert hsm.read_clock() == 100
    clock.set(250)
    assert hsm.read_clock() == 250


# -- root custody --------------------------------------------------------------------


def test_factory_root_installs_once(fast_suite):
    hsm, _, _, root_pub = _fresh_hsm(fast_suite)
    assert hsm.active_root == root_pub
    with pytest.raises(RootStateError):
        hsm.install_factory_root(root_pub)


def test_root_access_before_provisioning(fast_suite):
    hsm = Hsm(clock=VirtualClock(0), suite=fast_suite, rng=Random(1))
    with pytest.raises(RootStateError):
        _ = hsm.active_root


def test_root_rotation_requires_incumbent_signature(fast_suite):
    hsm, _, root_priv, root_pub = _fresh_hsm(fast_suite)
    new_priv, new_pub = fast_suite.generate_keypair(Random(31))

    # forged: self-signed by the candidate key
    forged = authorize_root_update(fast_suite, new_priv, new_pub)
    assert hsm.install_root_key(forged) is False
    assert hsm.active_root == root_pub

    # legitimate: signed by the incumbent root
    legit = authorize_root_update(fast_suite, root_priv, new_pub)
    assert hsm.install_root_key(legit) is True
    assert hsm.active_root == new_pub


def test_root_rotation_rejects_stale_authorization_replay(fast_suite):
    """After a rotation, packages signed by the *previous* root are dead."""
    hsm, _, root_priv, _ = _fresh_hsm(fast_suite)
    second_priv, second_pub = fast_suite.generate_keypair(Random(37))
    third_pub = fast_suite.generate_keypair(Random(41))[1]

    assert hsm.install_root_key(authorize_root_update(fast_suite, root_priv, second_pub))
    replay = authorize_root_update(fast_suite, root_priv, third_pub)  # old signer
    assert hsm.install_root_key(replay) is False
    assert hsm.active_root == second_pub
    # the current root still works
    assert hsm.install_root_key(authorize_root_update(fast_suite, second_priv, third_pub))


def test_root_rotation_rejects_mangled_package(fast_suite):
    hsm, _, root_priv, root_pub = _fresh_hsm(fast_suite)
    new_pub = fast_suite.generate_keypair(Random(43))[1]
    legit = authorize_root_update(fast_suite, root_priv, new_pub)
    mangled = RootUpdatePackage(
        new_root_public_key=legit.new_root_public_key[:-1] + b"\x00",
        authorization=legit.authorization,
    )
    assert hsm.install_root_key(mangled) is False
    assert hsm.active_root == root_pub


# -- keys ---------------------------------------------------------------------------


def test_generated_key_ids_and_public_keys_are_distinct(hsm):
    kid_a, pub_a = hsm.generate_key()
    kid_b, pub_b = hsm.generate_key()
    assert kid_a != kid_b
    assert pub_a != pub_b


def test_unknown_key_operations(hsm):
    for key_id in ("key-999999", "nope"):
        with pytest.raises(UnknownKeyError):
            hsm.sign_and_timestamp(key_id, b"x")
        with pytest.raises(UnknownKeyError):
            hsm.revoke_key(key_id)


def test_revocation_blocks_signing_and_decryption(hsm, fast_suite):
    kid, pub = hsm.generate_key()
    ct = encrypt_for(pub, b"sealed before revocation", suite=fast_suite, rng=Random(47))
    hsm.revoke_key(kid)
    hsm.revoke_key(kid)  # idempotent
    with pytest.raises(RevokedKeyError):
        hsm.sign_and_timestamp(kid, b"data")
    with pytest.raises(RevokedKeyError):
        hsm.decrypt(kid, ct)


# -- signing -----------------------------------------------------------------------


def test_sign_and_timestamp_covers_message_and_time(hsm, clock, fast_suite):
    kid, pub = hsm.generate_key()
    clock.set(123_456)
    signed, signature = hsm.sign_and_timestamp(kid, b"beacon body")
    # the signed bytes are message || big-endian timestamp, and the signature
    # covers exactly them
    assert signed == b"beacon body" + struct.pack(">Q", 123_456)
    assert fast_suite.verify(pub, signed, signature)
    assert not fast_suite.verify(pub, b"beacon bodY" + signed[-TIMESTAMP_LEN:], signature)
    restamped = signed[:-1] + bytes([signed[-1] ^ 1])
    assert not fast_suite.verify(pub, restamped, signature)


def test_verifiers_require_a_suite(hsm, ca, fast_suite):
    """Nothing guesses a suite or a clock: a default suite would reject every
    genuine ``fast`` certificate as bad, or make ``p224`` keys in a ``fast``
    run."""
    kid, pub = hsm.generate_key()
    cert = ca.issue(pub, 0, 1000)
    assert verify_certificate(cert, ca.public_key, 0, fast_suite)
    with pytest.raises(TypeError):
        verify_certificate(cert, ca.public_key, 0)
    for incomplete in (lambda: Hsm(), lambda: Hsm(VirtualClock(0)),
                       lambda: Hsm(suite=fast_suite), lambda: CertificateAuthority(1),
                       lambda: run_hsm_security_suite(sequences=1)):
        with pytest.raises(TypeError):
            incomplete()


class _YieldingClock(VirtualClock):
    """A virtual clock that lets other threads run on every read."""

    __slots__ = ()

    @property
    def now(self) -> int:
        time.sleep(0)
        return super().now


def test_concurrent_callers_see_one_linear_history(fast_suite):
    clock = _YieldingClock(0)
    hsm = Hsm(clock=clock, suite=fast_suite, rng=Random(23))
    threads, rounds = 4, 50
    seen = [[] for _ in range(threads)]
    start = threading.Barrier(threads + 1)

    def worker(out):
        start.wait(timeout=30)
        for k in range(rounds):
            key_id, public = hsm.generate_key()
            message = f"{key_id}:{k}".encode()
            out.append((key_id, public, message, hsm.sign_and_timestamp(key_id, message),
                        hsm.read_clock()))

    workers = [threading.Thread(target=worker, args=(out,)) for out in seen]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        start.wait(timeout=30)
        for t in range(1, 2000):
            clock.set(t)
            time.sleep(0)
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(w.is_alive() for w in workers)

    # keys were created one at a time: the ids are distinct and consecutive
    key_ids = sorted(key_id for out in seen for key_id, *_ in out)
    assert key_ids == [f"key-{i:06d}" for i in range(threads * rounds)]
    for out in seen:
        for _, public, message, (signed, signature), _ in out:
            assert signed[:-TIMESTAMP_LEN] == message
            assert fast_suite.verify(public, signed, signature)
        reads = [read for *_, read in out]
        assert reads == sorted(reads)
        stamps = [int.from_bytes(signed[-TIMESTAMP_LEN:], "big")
                  for _, _, _, (signed, _), _ in out]
        assert stamps == sorted(stamps)


# -- ECIES ------------------------------------------------------------------------


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 100, 1000])
def test_ecies_roundtrip_and_length(hsm, fast_suite, size):
    kid, pub = hsm.generate_key()
    plaintext = bytes(range(256)) * (size // 256 + 1)
    plaintext = plaintext[:size]
    ct = encrypt_for(pub, plaintext, suite=fast_suite, rng=Random(51))
    assert len(ct) == pkcs7_ecies_length(size)
    assert hsm.decrypt(kid, ct) == plaintext


def test_ecies_overhead_constant():
    # ephemeral point + IV + MAC tag around the padded body
    assert ECIES_OVERHEAD == 57 + 16 + 20


def test_ecies_rejects_any_mutation(hsm, fast_suite):
    kid, pub = hsm.generate_key()
    ct = encrypt_for(pub, b"secret payload", suite=fast_suite, rng=Random(53))
    for pos in range(len(ct)):
        mutated = bytearray(ct)
        mutated[pos] ^= 0x40
        with pytest.raises((IntegrityError, ValueError)):
            hsm.decrypt(kid, bytes(mutated))


def test_ecies_wrong_recipient(hsm, fast_suite):
    kid_a, _ = hsm.generate_key()
    _, pub_b = hsm.generate_key()
    ct = encrypt_for(pub_b, b"addressed elsewhere", suite=fast_suite, rng=Random(59))
    with pytest.raises(IntegrityError):
        hsm.decrypt(kid_a, ct)


def test_ecies_truncation(hsm, fast_suite):
    kid, pub = hsm.generate_key()
    ct = encrypt_for(pub, b"x" * 32, suite=fast_suite, rng=Random(61))
    with pytest.raises(IntegrityError):
        hsm.decrypt(kid, ct[: ECIES_OVERHEAD - 1])


def test_ecies_with_real_curve(p224_suite):
    clock = VirtualClock(0)
    hsm = Hsm(clock=clock, suite=p224_suite)
    hsm.install_factory_root(p224_suite.generate_keypair()[1])
    kid, pub = hsm.generate_key()
    ct = encrypt_for(pub, b"over the real curve", suite=p224_suite)
    assert hsm.decrypt(kid, ct) == b"over the real curve"


def test_encrypt_for_requires_a_suite(hsm, fast_suite):
    """Sealing guesses no suite: a default one would fail on every genuine
    ``fast`` key."""
    kid, pub = hsm.generate_key()
    assert hsm.decrypt(kid, encrypt_for(pub, b"m", fast_suite, Random(67))) == b"m"
    with pytest.raises(TypeError):
        encrypt_for(pub, b"m")
