"""Parsers fail closed: any input decodes exactly or raises the parser's own error.

That holds for the three wire parsers and for the two INI loaders, which
must turn any file into a validated configuration or their own error.
"""

from __future__ import annotations

import textwrap
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
from v2xsec.gateway import GatewayError, load_gateway_config
from v2xsec.hsm import SIGNED_BLOB_LEN, Hsm, SignedBlob
from v2xsec.identity import (
    CERT_WIRE_LEN,
    CertificateAuthority,
    CompactCertificate,
    IdentityManager,
    MalformedCertificateError,
)
from v2xsec.sim.scenario import ScenarioConfig, ScenarioError, load_scenario
from v2xsec.suites import FastHashSuite


def _sample_beacon() -> SecuredBeacon:
    suite = FastHashSuite()
    ca = CertificateAuthority(1, suite=suite, rng=Random(11))
    hsm = Hsm(VirtualClock(0), suite, Random(5))
    hsm.install_factory_root(ca.public_key)
    manager = IdentityManager(hsm, rng=Random(6))
    manager.provision(ca, 1, validity_ms=10**6)
    manager.activate_next(0)
    bsec = BeaconSecurity(hsm, manager, ca.public_key, OmissionStrategy.always())
    beacon = Beacon(x=1.5, y=0.0, velocity=30.0, heading=0.0, generation_time=0)
    return bsec.make_beacon(beacon, 0)


_SB = _sample_beacon()

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
    "SignedBlob.from_bytes": (
        SignedBlob.from_bytes, SignedBlob.to_bytes, ValueError,
        (SIGNED_BLOB_LEN,), _SB.blob.to_bytes(),
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


# -- configuration loaders ---------------------------------------------------------


def _gateway_example() -> bytes:
    """The example layout in ``load_gateway_config``'s docstring."""
    doc = load_gateway_config.__doc__
    return textwrap.dedent(doc.split("Layout::", 1)[1]).strip().encode() + b"\n"


_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# name -> (load, its error, the type a successful load returns, one valid file)
LOADERS = {
    f"scenario:{path.name}": (load_scenario, ScenarioError, ScenarioConfig, path.read_bytes())
    for path in sorted(_SCENARIOS.glob("*.ini"))
}
LOADERS["gateway:docstring"] = (load_gateway_config, GatewayError, tuple, _gateway_example())

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


def test_gateway_docstring_example_loads(tmp_path):
    path = tmp_path / "gateway.ini"
    path.write_bytes(_gateway_example())
    _, spec = load_gateway_config(str(path))
    assert sorted(spec.signals) == ["gear", "speed"]


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_loaders_fail_closed(name, data, tmp_path_factory):
    load, error, kind, sample = LOADERS[name]
    path = tmp_path_factory.getbasetemp() / "fuzzed.ini"
    path.write_bytes(data.draw(_mutations(sample), label="file"))
    try:
        loaded = load(str(path))
    except error:
        return
    assert isinstance(loaded, kind)
