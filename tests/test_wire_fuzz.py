"""Parsers fail closed: any input decodes exactly or raises the parser's own error.

That holds for the two wire parsers and for the scenario INI loader,
which must turn any file into a validated configuration or its own error.
"""

from __future__ import annotations

import math
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2xsec.beaconing import (
    SECURED_BEACON_LEN,
    SECURED_BEACON_WITH_CERT_LEN,
    Beacon,
    BeaconSecurity,
    MalformedBeaconError,
    OmissionStrategy,
    SecuredBeacon,
)
from v2xsec.clocks import VirtualClock
from v2xsec.hsm import Hsm
from v2xsec.identity import (
    CERT_WIRE_LEN,
    CertificateAuthority,
    CompactCertificate,
    IdentityManager,
    MalformedCertificateError,
)
from v2xsec.sim.scenario import ScenarioConfig, ScenarioError, load_scenario
from v2xsec.suites import FastHashSuite


_SUITE = FastHashSuite()
_CA = CertificateAuthority(1, suite=_SUITE, rng=Random(11))


def _station(seed: int, deliver=None) -> BeaconSecurity:
    hsm = Hsm(VirtualClock(0), _SUITE, Random(seed))
    hsm.install_factory_root(_CA.public_key)
    manager = IdentityManager(hsm, rng=Random(seed + 1))
    manager.provision(_CA, 1, validity_ms=10**6)
    manager.activate_next(0)
    return BeaconSecurity(manager, OmissionStrategy.always(), deliver=deliver)


_SB = _station(5).make_beacon(
    Beacon(x=1.5, y=0.0, velocity=30.0, heading=0.0, generation_time=0), 0)

# name -> (parse, encode, its error, valid input lengths, one valid input)
PARSERS = {
    "SecuredBeacon.from_wire": (
        SecuredBeacon.from_wire, SecuredBeacon.to_wire, MalformedBeaconError,
        (SECURED_BEACON_LEN, SECURED_BEACON_WITH_CERT_LEN), _SB.to_wire(),
    ),
    "CompactCertificate.from_bytes": (
        CompactCertificate.from_bytes, CompactCertificate.to_bytes, MalformedCertificateError,
        (CERT_WIRE_LEN,), _SB.certificate.to_bytes(),
    ),
}


def _patched(sample: bytes, edits: list[tuple[int, int]]) -> bytes:
    data = bytearray(sample)
    for index, value in edits:
        data[index % len(data)] = value
    return bytes(data)


def _inputs(lengths: tuple[int, ...], sample: bytes) -> st.SearchStrategy[bytes]:
    return st.one_of(
        st.binary(max_size=2 * max(lengths)),
        st.sampled_from(lengths).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        # a valid encoding with a few bytes overwritten reaches the deeper checks
        st.lists(st.tuples(st.integers(0, len(sample) - 1), st.integers(0, 255)),
                 min_size=1, max_size=4).map(lambda edits: _patched(sample, edits)),
    )


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsers_fail_closed(name, data):
    parse, encode, error, lengths, sample = PARSERS[name]
    raw = data.draw(_inputs(lengths, sample), label="raw")
    try:
        decoded = parse(raw)
    except error:
        return
    assert encode(decoded) == raw


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_receive_wire_takes_any_bytes_like_input(wrap):
    """A beacon in a ``bytearray`` or a ``memoryview`` decodes to ``bytes``
    fields and is delivered, as it is from ``bytes``: a ``bytearray`` id
    would fail the neighbour lookup after the reception was counted."""
    wire = _SB.to_wire()
    decoded = SecuredBeacon.from_wire(wrap(wire))
    assert decoded == _SB
    assert {type(v) for v in (decoded.signer_pseudonym_id, decoded.signature,
                              decoded.signed_payload)} == {bytes}
    delivered = []
    receiver = _station(7, deliver=lambda sb, now: delivered.append(sb))
    receiver.receive_wire(wrap(wire), 0)
    assert delivered == [_SB]
    assert receiver.beacons_received == receiver.delivered_count == 1


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["x", "y", "velocity", "heading"])
def test_receive_wire_discards_a_signed_beacon_with_a_non_finite_field(name, value):
    """A NaN or infinite position, velocity or heading is malformed even
    under a valid signature: NaN fails every comparison the application
    makes, so a NaN position would pass for a vehicle ahead."""
    fields = dict(x=1.5, y=0.0, velocity=30.0, heading=0.0, generation_time=0)
    fields[name] = value
    wire = _station(5).make_beacon(Beacon(**fields), 0).to_wire()
    with pytest.raises(MalformedBeaconError, match="must be finite"):
        SecuredBeacon.from_wire(wire)
    delivered = []
    receiver = _station(7, deliver=lambda sb, now: delivered.append(sb))
    receiver.receive_wire(wire, 0)
    assert delivered == []
    assert receiver.beacons_received == 1
    assert list(receiver.discards) == [
        "malformed: position, velocity and heading must be finite"]


# -- the scenario loader -----------------------------------------------------------


_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# name -> one valid file
LOADERS = {f"scenario:{path.name}": path.read_bytes() for path in sorted(_SCENARIOS.glob("*.ini"))}

# byte strings that reach the INI syntax and the value parsers
_TOKENS = (b"\n", b"[", b"]", b"=", b":", b"inf", b"nan", b"-1", b"1e999", b"\xff", b"\xc3")


def _mutate(sample: bytes, edits: list[tuple[str, int, bytes]]) -> bytes:
    data = bytearray(sample)
    for op, index, chunk in edits:
        index %= len(data) + 1
        if op == "set":
            data[index:index + len(chunk)] = chunk
        elif op == "insert":
            data[index:index] = chunk
        else:
            del data[index:index + len(chunk)]
    return bytes(data)


def _mutations(sample: bytes) -> st.SearchStrategy[bytes]:
    chunk = st.one_of(st.binary(min_size=1, max_size=4), st.sampled_from(_TOKENS))
    edit = st.tuples(st.sampled_from(("set", "insert", "delete")),
                     st.integers(0, len(sample)), chunk)
    return st.lists(edit, min_size=1, max_size=6).map(lambda edits: _mutate(sample, edits))


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_loaders_fail_closed(name, data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed.ini"
    path.write_bytes(data.draw(_mutations(LOADERS[name]), label="file"))
    try:
        loaded = load_scenario(str(path))
    except ScenarioError:
        return
    assert isinstance(loaded, ScenarioConfig)
