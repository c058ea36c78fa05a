"""Acceptance checks: the load-bearing behaviors of the package, verified at
full scale with explicit tolerances. Each test prints one PASS/FAIL line with
the measured numbers, independent of pytest's own reporting.

Covered, in order:

1. certificate omission drives overhead below 10% in a dense platoon
2. overhead falls as the beacon rate rises, per seed
3. secured beaconing matches unsecured safety; no communication is worse
4. verification saturates exactly at the configured budget
5. HSM custody invariants survive 10^4 fuzzed call sequences
6. real-curve signing and encryption reject every mutation
7. hook dispatch is transparent when empty and matches a reference otherwise
8. overhead metrics are byte-exact and reproducible from the raw trace
9. gateway decisions match straight-line reference logic on 10^4 events
"""

from __future__ import annotations

import logging
import os
import time
from random import Random

from v2xsec.beaconing import (
    SECURED_BEACON_LEN,
    SECURED_BEACON_WITH_CERT_LEN,
)
from v2xsec.hooks import (
    MAX_REINSERTS,
    Direction,
    HandlerRegistration,
    HookStack,
    IlpPosition,
    Message,
)
from v2xsec.hsm import Hsm, IntegrityError, encrypt_for
from v2xsec.clocks import VirtualClock
from v2xsec.selftest import run_gateway_suite, run_hsm_security_suite
from v2xsec.sim.engine import run_scenario
from v2xsec.sim.scenario import apply_override, load_scenario
from v2xsec.sim.sweep import GridSpec, run_sweep
from v2xsec.suites import P224Suite, get_suite

from .oracles import DROPPED, audit_certificate_fraction, dispatch_reference
from .test_hooks import _random_handler

_SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scenarios")


def _scenario(name):
    return load_scenario(os.path.join(_SCENARIOS, name))


def _seeds(count):
    return "seed=" + ",".join(str(s) for s in range(1, count + 1))


def _verdict(name, passed, detail):
    line = f"{name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_omission_overhead_threshold():
    """A 50-vehicle platoon beaconing at 100 ms with neighbor-triggered
    omission sends certificates on at most 10% of post-warmup beacons,
    averaged over 10 seeds, inside a 30 s compute budget."""
    started = time.monotonic()
    runs = run_sweep(_scenario("overhead.ini"), GridSpec.parse([_seeds(10)]))
    elapsed = time.monotonic() - started
    fractions = [m.certificate_fraction for m in runs]
    mean = sum(fractions) / len(fractions)
    ok = mean <= 0.10 and elapsed < 30.0
    _verdict(
        "acceptance 1/9 omission overhead threshold",
        ok,
        f"mean certificate fraction {mean:.4f} <= 0.10 over {len(runs)} seeds, "
        f"range [{min(fractions):.4f}, {max(fractions):.4f}], {elapsed:.1f}s < 30s",
    )


def test_criterion_2_overhead_falls_with_beacon_rate():
    """At fixed density, the certificate fraction is nonincreasing as the
    beacon interval shrinks (500 -> 200 -> 100 ms), for every one of 10 seeds."""
    base = apply_override(_scenario("overhead.ini"), "duration_s", "60")
    grid = GridSpec.parse(["beacon_interval_ms=100,200,500", _seeds(10)])
    runs = run_sweep(base, grid)
    fraction = {(m.config.beacon_interval_ms, m.config.seed): m.certificate_fraction
                for m in runs}
    violations = []
    for seed in range(1, 11):
        f100, f200, f500 = fraction[(100, seed)], fraction[(200, seed)], fraction[(500, seed)]
        if not f100 <= f200 <= f500:
            violations.append((seed, f100, f200, f500))
    means = {
        interval: sum(fraction[(interval, s)] for s in range(1, 11)) / 10
        for interval in (100, 200, 500)
    }
    _verdict(
        "acceptance 2/9 overhead falls with beacon rate",
        not violations,
        f"per-seed fraction(100ms) <= fraction(200ms) <= fraction(500ms) for all 10 seeds; "
        f"means {means[100]:.4f} / {means[200]:.4f} / {means[500]:.4f}"
        + (f"; violations {violations}" if violations else ""),
    )


def test_criterion_3_security_costs_no_safety():
    """Emergency-braking platoon, encoded as an ordering property quantified
    over 20 seeds rather than as exact crash counts: the fully secured stack
    crashes at most once more than unsecured beaconing in aggregate, and the
    no-communication baseline crashes strictly more than both."""
    started = time.monotonic()
    base = _scenario("braking.ini")
    totals = {}
    for mode in ("novc", "unsecured", "secured"):
        runs = run_sweep(apply_override(base, "security_mode", mode),
                         GridSpec.parse([_seeds(20)]))
        totals[mode] = sum(m.crashes for m in runs)
    elapsed = time.monotonic() - started
    parity = totals["secured"] <= totals["unsecured"] + 1
    baseline_worse = totals["novc"] > totals["secured"] and totals["novc"] > totals["unsecured"]
    ok = parity and baseline_worse and elapsed < 60.0
    _verdict(
        "acceptance 3/9 security costs no safety",
        ok,
        f"crashes over 20 seeds: novc={totals['novc']}, unsecured={totals['unsecured']}, "
        f"secured={totals['secured']}; secured <= unsecured+1 and novc strictly worst; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_4_verification_budget_saturates():
    """80 vehicles in mutual range overload every receiver; each one must
    sustain exactly the budgeted verification rate (50/s, tolerance 1) while
    its queue grows monotonically to capacity and then evicts."""
    started = time.monotonic()
    config = _scenario("saturation.ini")
    metrics = run_scenario(config)
    elapsed = time.monotonic() - started

    steady = range(5, 19)  # away from fill-up and run end
    rate_violations = 0
    for per_second in metrics.units_by_vehicle_second:
        for second in steady:
            units = per_second.get(second, 0)
            if not 49 <= units <= 51:
                rate_violations += 1
    means = [mean for mean, _ in metrics.queue_depth_by_second]
    growing = all(later >= earlier - 1e-9 for earlier, later in zip(means, means[1:]))
    maxima = [depth for _, depth in metrics.queue_depth_by_second]
    saturated = max(maxima) == config.queue_capacity
    ok = (rate_violations == 0 and growing and saturated
          and metrics.evicted_jobs > 0 and elapsed < 30.0)
    _verdict(
        "acceptance 4/9 verification budget saturates",
        ok,
        f"{config.vehicle_count} vehicles x {len(steady)} steady seconds at 50 +/- 1 "
        f"units/s ({rate_violations} violations); mean queue depth nondecreasing "
        f"{means[0]:.0f} -> {means[-1]:.0f}, peak {max(maxima)} == capacity "
        f"{config.queue_capacity}, {metrics.evicted_jobs} evictions; {elapsed:.1f}s < 30s",
    )


def test_criterion_5_hsm_custody_invariants():
    """10^4 fuzzed call sequences: the root key never changes without a
    package signed by the incumbent root, and no returned byte string ever
    equals stored private key material."""
    started = time.monotonic()
    report = run_hsm_security_suite(sequences=10_000, suite=get_suite("p224"))
    elapsed = time.monotonic() - started
    ok = report.passed and elapsed < 60.0
    details = {check.name: check.detail for check in report.checks}
    _verdict(
        "acceptance 5/9 hsm custody invariants",
        ok,
        f"10000 sequences: {details.get('root rotations exercised')}, "
        f"{details.get('no returned byte string equals a stored private scalar')}; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_6_real_curve_crypto_rejects_mutation():
    """Real-curve checks: 10^3 signature round trips verify, 10^3 single-bit
    signature mutations all fail, 10^3 encryption round trips decrypt, and
    10^3 ciphertext mutations all raise integrity errors (a mutated message
    never decrypts to anything, right or wrong)."""
    suite = P224Suite()
    rng = Random(0xACC6)
    clock = VirtualClock(0)
    hsm = Hsm(clock=clock, suite=suite, rng=rng)
    _, root_public = suite.generate_keypair(rng)
    hsm.install_factory_root(root_public)

    sign_ok = 0
    for trial in range(1000):
        if trial % 50 == 0:
            private, public = suite.generate_keypair(rng)
        message = rng.randbytes(rng.randint(0, 128))
        if suite.verify(public, message, suite.sign(private, message)):
            sign_ok += 1

    mutations_rejected = 0
    for trial in range(1000):
        if trial % 50 == 0:
            private, public = suite.generate_keypair(rng)
            message = rng.randbytes(64)
            signature = suite.sign(private, message)
        mutated = bytearray(signature)
        bit = rng.randrange(len(mutated) * 8)
        mutated[bit // 8] ^= 1 << (bit % 8)
        if not suite.verify(public, message, bytes(mutated)):
            mutations_rejected += 1

    key_id, public = hsm.generate_key()
    ecies_ok = 0
    for _ in range(1000):
        plaintext = rng.randbytes(rng.randint(0, 96))
        if hsm.decrypt(key_id, encrypt_for(public, plaintext, suite, rng)) == plaintext:
            ecies_ok += 1

    ciphertext = encrypt_for(public, b"tamper with me", suite, rng)
    integrity_errors = 0
    for _ in range(1000):
        mutated = bytearray(ciphertext)
        position = rng.randrange(len(mutated))
        mutated[position] ^= rng.randint(1, 255)
        try:
            hsm.decrypt(key_id, bytes(mutated))
        except (IntegrityError, ValueError):
            integrity_errors += 1

    ok = (sign_ok == 1000 and mutations_rejected == 1000
          and ecies_ok == 1000 and integrity_errors == 1000)
    _verdict(
        "acceptance 6/9 real-curve crypto rejects mutation",
        ok,
        f"signature round trips {sign_ok}/1000, bit mutations rejected "
        f"{mutations_rejected}/1000, encryption round trips {ecies_ok}/1000, "
        f"ciphertext mutations raising integrity errors {integrity_errors}/1000",
    )


def test_criterion_7_hook_dispatch_transparent_and_faithful(caplog):
    """With no handlers, dispatch is a bytewise identity at every point in
    both directions; with randomized handler chains, dispatch agrees with a
    straight-line reference on >= 10^3 cases, including drop dominance and
    priority ordering."""
    # random chains exhaust the reinsert budget by design; keep the expected
    # errors out of the captured log
    caplog.set_level(logging.CRITICAL, logger="v2xsec.hooks")
    rng = Random(0x400C)
    identity_ok = True
    empty = HookStack()
    for position in IlpPosition:
        for direction in Direction:
            for _ in range(5):
                message = Message(rng.randrange(1 << 16), rng.randbytes(rng.randint(0, 64)))
                outcome = empty.dispatch(position, message, direction)
                if not outcome.delivered or outcome.message.to_bytes() != message.to_bytes():
                    identity_ok = False

    cases = 0
    disagreements = 0
    for _ in range(250):
        stack = HookStack()
        oracle_handlers = []
        for seq in range(rng.randint(0, 6)):
            registration, stack_fn, matcher, oracle_fn = _random_handler(rng)
            registration = HandlerRegistration(
                handler_id=f"h{seq}", priority=registration.priority,
                message_types=registration.message_types,
                directions=registration.directions)
            stack.register_handler(IlpPosition.BELOW_NETWORK, registration, stack_fn)
            oracle_handlers.append((registration.priority, seq, matcher, oracle_fn))
        for _ in range(5):
            message = Message(rng.randrange(4), rng.randbytes(4))
            direction = rng.choice(list(Direction))
            expected = dispatch_reference(oracle_handlers, message, direction,
                                          max_reinserts=MAX_REINSERTS)
            outcome = stack.dispatch(IlpPosition.BELOW_NETWORK, message, direction)
            cases += 1
            if expected is DROPPED:
                if outcome.delivered:
                    disagreements += 1
            elif not outcome.delivered or outcome.message.to_bytes() != expected.to_bytes():
                disagreements += 1

    ok = identity_ok and cases >= 1000 and disagreements == 0
    _verdict(
        "acceptance 7/9 hook dispatch transparent and faithful",
        ok,
        f"empty-chain identity at {len(IlpPosition) * len(Direction)} point/direction "
        f"combinations; {cases} randomized chains agree with reference "
        f"({disagreements} disagreements)",
    )


def test_criterion_8_overhead_accounting_is_byte_exact():
    """Secured beacon wire sizes match the declared constants with and
    without a certificate, and an independent auditor recomputing the
    certificate fraction from the raw emission trace reproduces the reported
    metric exactly."""
    config = apply_override(_scenario("overhead.ini"), "duration_s", "30")
    config = apply_override(config, "record_trace", "true")
    # short pseudonym lifetimes keep certificates flowing after warmup so the
    # audited fraction is nonzero and the equality check is not vacuous
    config = apply_override(config, "min_lifetime_s", "8")
    config = apply_override(config, "max_lifetime_s", "15")
    metrics = run_scenario(config)

    # adapter header (6) + tagged secured beacon (119 or 261)
    lengths = {record.frame_len for record in metrics.trace}
    sizes_ok = lengths == {6 + SECURED_BEACON_LEN, 6 + SECURED_BEACON_WITH_CERT_LEN}
    by_flag = {
        True: 6 + SECURED_BEACON_WITH_CERT_LEN,
        False: 6 + SECURED_BEACON_LEN,
    }
    flags_ok = all(record.frame_len == by_flag[record.with_certificate]
                   for record in metrics.trace)
    audited = audit_certificate_fraction(metrics.trace, config.warmup_ms)
    audit_ok = audited == metrics.certificate_fraction and audited > 0.0

    ok = sizes_ok and flags_ok and audit_ok
    _verdict(
        "acceptance 8/9 overhead accounting byte-exact",
        ok,
        f"frame sizes {sorted(lengths)} == declared {{{6 + SECURED_BEACON_LEN}, "
        f"{6 + SECURED_BEACON_WITH_CERT_LEN}}} across {len(metrics.trace)} emissions; "
        f"audited fraction {audited:.6f} == reported {metrics.certificate_fraction:.6f}",
    )


def test_criterion_9_gateway_matches_reference():
    """10^4 randomized firewall queries and in-vehicle events: the gateway's
    decisions and the intrusion detector's verdicts agree with straight-line
    reference logic with zero discrepancies, and injected deny rules always
    beat static allows."""
    started = time.monotonic()
    report = run_gateway_suite(events=10_000)
    elapsed = time.monotonic() - started
    details = {check.name: check.detail for check in report.checks}
    _verdict(
        "acceptance 9/9 gateway matches reference",
        report.passed,
        f"10000 events: rule table ({details.get('rule table agrees with reference decisions')}), "
        f"ids ({details.get('anomaly detection matches reference range/transition logic')}), "
        f"dominance intact; {elapsed:.1f}s",
    )
