"""Signature suites: wire-size constants, padding strictness, sign/verify."""

from __future__ import annotations

from random import Random

import pytest

from v2xsec import suites
from v2xsec.hsm import encrypt_for
from v2xsec.suites import (
    POINT_LEN,
    SCALAR_LEN,
    SIG_FIELD_LEN,
    FastHashSuite,
    P224Suite,
    SuiteError,
    VerdictMemo,
    get_suite,
    pad_signature,
    unpad_signature,
)


def test_wire_constants():
    # 0x04 || X || Y on a 224-bit curve: 1 + 28 + 28
    assert POINT_LEN == 1 + 2 * SCALAR_LEN == 57
    assert SIG_FIELD_LEN == 64


def test_pad_unpad_roundtrip_all_lengths():
    # DER SEQUENCE header 0x30 <len>, any body length that fits the field
    for body_len in range(0, SIG_FIELD_LEN - 1):
        der = b"\x30" + bytes([body_len]) + b"\xab" * body_len
        field = pad_signature(der)
        assert len(field) == SIG_FIELD_LEN
        assert unpad_signature(field) == der


def test_pad_rejects_oversize():
    with pytest.raises(SuiteError):
        pad_signature(b"\x30" + bytes([70]) + b"\x00" * 70)


def test_unpad_rejects_nonzero_padding():
    der = b"\x30\x04" + b"\xab" * 4
    field = bytearray(pad_signature(der))
    field[10] = 0x01  # inside the padding region
    with pytest.raises(SuiteError):
        unpad_signature(bytes(field))


def test_unpad_rejects_bad_header_and_length():
    with pytest.raises(SuiteError):
        unpad_signature(b"\x31" + b"\x00" * (SIG_FIELD_LEN - 1))
    with pytest.raises(SuiteError):
        unpad_signature(b"\x30" + bytes([SIG_FIELD_LEN - 1]) + b"\x00" * (SIG_FIELD_LEN - 2))
    with pytest.raises(SuiteError):
        unpad_signature(b"\x30\x00")


@pytest.mark.parametrize("suite_name", ["p224", "fast"])
def test_sign_verify_roundtrip(suite_name):
    suite = get_suite(suite_name)
    rng = Random(3)
    priv, pub = suite.generate_keypair(rng)
    assert len(pub) == POINT_LEN and pub[0] == 0x04
    data = b"attached to the beacon body"
    sig = suite.sign(priv, data)
    assert len(pad_signature(sig)) == SIG_FIELD_LEN
    assert suite.verify(pub, data, sig)
    assert not suite.verify(pub, data + b"x", sig)


@pytest.mark.parametrize("suite_name", ["p224", "fast"])
def test_verify_wrong_key_fails(suite_name):
    suite = get_suite(suite_name)
    rng = Random(5)
    priv, _ = suite.generate_keypair(rng)
    _, other_pub = suite.generate_keypair(rng)
    sig = suite.sign(priv, b"payload")
    assert not suite.verify(other_pub, b"payload", sig)


def test_verify_handles_garbage_without_raising(p224_suite):
    priv, pub = p224_suite.generate_keypair()
    assert p224_suite.verify(pub, b"m", b"") is False
    assert p224_suite.verify(pub, b"m", b"\x00" * 64) is False
    assert p224_suite.verify(b"\x05" + b"\x00" * 56, b"m", p224_suite.sign(priv, b"m")) is False


def test_p224_rejects_noncanonical_der(p224_suite):
    priv, pub = p224_suite.generate_keypair()
    sig = p224_suite.sign(priv, b"m")
    # appending trailing bytes keeps the inner DER intact but must not verify
    assert p224_suite.verify(pub, b"m", sig + b"\x00") is False


def test_fast_suite_is_deterministic():
    a = FastHashSuite()
    b = FastHashSuite()
    priv_a, pub_a = a.generate_keypair(Random(42))
    priv_b, pub_b = b.generate_keypair(Random(42))
    assert pub_a == pub_b
    assert a.sign(priv_a, b"data") == b.sign(priv_b, b"data")


def test_seeded_p224_keys_and_signatures_repeat():
    a = P224Suite()
    b = P224Suite()
    rng = Random(42)
    priv_a, pub_a = a.generate_keypair(rng)
    priv_b, pub_b = b.generate_keypair(Random(42))
    assert pub_a == pub_b
    assert a.sign(priv_a, b"data") == b.sign(priv_b, b"data")
    # one 28-byte draw per key, as the fast suite makes
    fast_rng = Random(42)
    FastHashSuite().generate_keypair(fast_rng)
    assert rng.random() == fast_rng.random()


def test_p224_scalar_is_the_draw_reduced_mod_the_order():
    order = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D

    class Draws(Random):
        def __init__(self, *values):
            super().__init__(0)
            self.values = list(values)

        def randbytes(self, n):
            return self.values.pop(0).to_bytes(n, "big")

    suite = P224Suite()
    priv, _ = suite.generate_keypair(Draws(order + 5))
    assert suite.private_scalar_bytes(priv) == (5).to_bytes(SCALAR_LEN, "big")
    # a draw that reduces to zero is drawn again
    rng = Draws(order, 0, 7)
    priv, _ = suite.generate_keypair(rng)
    assert suite.private_scalar_bytes(priv) == (7).to_bytes(SCALAR_LEN, "big")
    assert rng.values == []


def test_unseeded_p224_keys_differ():
    suite = P224Suite()
    assert suite.generate_keypair()[1] != suite.generate_keypair()[1]


def test_fast_suite_dh_agreement(fast_suite):
    rng = Random(9)
    priv, pub = fast_suite.generate_keypair(rng)
    eph_pub, shared_sender = fast_suite.ecdh_sender(pub, rng)
    shared_receiver = fast_suite.ecdh_receiver(priv, eph_pub)
    assert shared_sender == shared_receiver


def test_p224_dh_agreement(p224_suite):
    priv, pub = p224_suite.generate_keypair()
    eph_pub, shared_sender = p224_suite.ecdh_sender(pub)
    assert shared_sender == p224_suite.ecdh_receiver(priv, eph_pub)
    assert len(eph_pub) == POINT_LEN


def _counted(suite):
    """``suite`` with each of its ``verify`` calls recorded in a list."""
    calls = []
    verify = suite.verify

    def counting(*args):
        calls.append(args)
        return verify(*args)

    suite.verify = counting
    return suite, calls


@pytest.mark.parametrize("suite_name", ["p224", "fast"])
def test_verdict_memo_gives_the_suite_verdict(suite_name):
    suite = get_suite(suite_name)
    memo = VerdictMemo(suite)
    rng = Random(13)
    priv, pub = suite.generate_keypair(rng)
    _, other_pub = suite.generate_keypair(rng)
    sig = suite.sign(priv, b"payload")
    cases = [
        (pub, b"payload", sig),
        (pub, b"payloaD", sig),  # tampered data
        (pub, b"payload", sig[:-1] + bytes([sig[-1] ^ 1])),  # tampered signature
        (other_pub, b"payload", sig),  # wrong key
    ]
    expected = [True, False, False, False]
    assert [suite.verify(*case) for case in cases] == expected
    for _ in range(2):  # the second round is answered from memory
        assert [memo.verify(*case) for case in cases] == expected
    assert memo.sign(priv, b"payload") == sig


@pytest.mark.parametrize("suite_class", [P224Suite, FastHashSuite])
def test_verdict_memo_asks_once_per_triple_and_refuses_unhashable_input(suite_class):
    suite, calls = _counted(suite_class())
    memo = VerdictMemo(suite)
    priv, pub = suite.generate_keypair(Random(1))
    bad = (pub, b"data", suite.sign(priv, b"other"))
    assert not any(memo.verify(*bad) for _ in range(3))
    assert len(calls) == 1
    sig = suite.sign(priv, b"data")
    for _ in range(2):
        with pytest.raises(TypeError):
            memo.verify(pub, bytearray(b"data"), sig)
    assert len(calls) == 1  # refused before the suite is asked
    assert memo.verify(pub, b"data", sig)
    assert len(calls) == 2
    assert memo.verify.cache_info().currsize == 2


@pytest.mark.parametrize("suite_class", [P224Suite, FastHashSuite])
def test_verdict_memo_asks_the_suite_once_when_it_raises(suite_class):
    suite, calls = _counted(suite_class())
    memo = VerdictMemo(suite)
    with pytest.raises(TypeError):
        memo.verify(None, b"", b"")  # hashable, but not a key the suite takes
    assert len(calls) == 1


@pytest.mark.parametrize("suite_name", ["p224", "fast"])
def test_bytearray_input_gets_the_bytes_verdict(suite_name):
    suite = get_suite(suite_name)
    rng = Random(17)
    priv, pub = suite.generate_keypair(rng)
    _, other_pub = suite.generate_keypair(rng)
    sig = suite.sign(priv, b"payload")
    cases = [
        (pub, b"payload", sig),
        (pub, b"payloaD", sig),
        (pub, b"payload", sig[:-1] + bytes([sig[-1] ^ 1])),
        (other_pub, b"payload", sig),
    ]
    counted, calls = _counted(type(suite)())
    memo = VerdictMemo(counted)
    for case in cases:
        expected = suite.verify(*case)
        for wrap in (bytearray, memoryview, lambda part: memoryview(bytearray(part))):
            for position in range(3):
                mixed = list(case)
                mixed[position] = wrap(mixed[position])
                assert suite.verify(*mixed) == expected
                if wrap is memoryview:  # read-only: hashes like bytes
                    assert memo.verify(*mixed) == expected
                    continue
                asked = len(calls)
                # unhashable: a bytearray raises TypeError, a writable view ValueError
                with pytest.raises((TypeError, ValueError)):
                    memo.verify(*mixed)
                assert len(calls) == asked
            every = [wrap(part) for part in case]
            assert suite.verify(*every) == expected


def test_verdict_memo_drops_the_least_recently_asked(monkeypatch):
    monkeypatch.setattr(suites, "_CAPACITY", 2)
    suite, calls = _counted(FastHashSuite())
    memo = VerdictMemo(suite)
    priv, pub = suite.generate_keypair(Random(2))
    sig = suite.sign(priv, b"\x00")
    a, b, c = ((pub, bytes([i]), sig) for i in range(3))
    assert memo.verify(*a) and not memo.verify(*b)
    assert memo.verify(*a) and not memo.verify(*b)  # repeats: from memory
    assert len(calls) == 2
    assert memo.verify(*a)  # a is now the most recently asked
    assert not memo.verify(*c)  # memory is full: b, the least recent, is dropped
    assert len(calls) == 3
    assert memo.verify(*a)  # still held
    assert len(calls) == 3
    assert not memo.verify(*b)  # dropped, so the suite is asked again
    assert len(calls) == 4
    for i in range(20):  # never more than the capacity
        memo.verify(pub, bytes([i % 7]), sig)
        assert memo.verify.cache_info().currsize <= 2


@pytest.mark.parametrize("suite_name", ["p224", "fast"])
def test_ecies_ephemeral_key_follows_the_seed(suite_name):
    """A seeded ``rng`` fixes the ciphertext, and both suites draw the same
    values from it for the ephemeral key."""
    suite = get_suite(suite_name)
    _, pub = suite.generate_keypair(Random(4))
    assert encrypt_for(pub, b"msg", suite, Random(5)) == encrypt_for(pub, b"msg", suite, Random(5))
    rng, reference = Random(6), Random(6)
    suite.ecdh_sender(pub, rng)
    FastHashSuite().ecdh_sender(pub, reference)
    assert rng.getstate() == reference.getstate()


def test_get_suite_unknown_name():
    with pytest.raises(SuiteError):
        get_suite("rsa")
