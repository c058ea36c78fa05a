"""Built-in security self-tests: HSM fuzzing and gateway equivalence checks.

Shared between the command line (`v2xsec selftest`) and the test suite. The
HSM fuzz drives random call sequences against live modules and checks the
properties that make it a security anchor: the root key never changes
without a package signed by the incumbent root, revoked and unknown keys
stay unusable, the trusted clock never runs backwards, and nothing the API
returns ever equals stored private key material.

The gateway check replays random rule tables and event streams against
straight-line reference implementations of the same semantics and demands
bit-for-bit agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .clocks import VirtualClock
from .gateway import (
    Action,
    BehaviorSpec,
    Firewall,
    FirewallRule,
    IntrusionDetector,
    InVehicleEvent,
    RangeSpec,
    TransitionSpec,
)
from .hsm import (
    Hsm,
    HsmError,
    KeyRole,
    RevokedKeyError,
    RootUpdatePackage,
    UnknownKeyError,
    authorize_root_update,
    encrypt_for,
    verify_signed_blob,
)
from .suites import P224Suite, SignatureSuite


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SelfTestReport:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def summary_lines(self) -> list[str]:
        lines = [f"== {self.title} =="]
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            suffix = f" ({check.detail})" if check.detail else ""
            lines.append(f"  [{status}] {check.name}{suffix}")
        return lines


# -- HSM fuzzing --------------------------------------------------------------


class _HsmHarness:
    """One HSM under fuzz, with the authority-side root key held outside."""

    def __init__(self, suite: SignatureSuite, rng: Random) -> None:
        self.suite = suite
        self.rng = rng
        self.clock = VirtualClock(0)
        self.hsm = Hsm(clock=self.clock, suite=suite, rng=rng)
        self.root_private, root_public = suite.generate_keypair(rng)
        self.hsm.install_factory_root(root_public)
        self.expected_root = root_public
        self.live_keys: list[tuple[str, bytes]] = []
        self.revoked_keys: list[tuple[str, bytes]] = []
        self.old_packages: list[RootUpdatePackage] = []
        self.returned: list[bytes] = []
        self.last_clock = -1
        self.violations: list[str] = []

    def note(self, data: bytes) -> None:
        self.returned.append(bytes(data))

    def fail(self, message: str) -> None:
        self.violations.append(message)


def _op_generate(h: _HsmHarness) -> None:
    role = h.rng.choice((KeyRole.SHORT_TERM, KeyRole.LONG_TERM))
    key_id, public = h.hsm.generate_key(role)
    h.note(public)
    h.live_keys.append((key_id, public))


def _op_generate_root_refused(h: _HsmHarness) -> None:
    try:
        h.hsm.generate_key(KeyRole.ROOT_VERIFICATION)
        h.fail("generate_key accepted the root role")
    except HsmError:
        pass


def _op_sign(h: _HsmHarness) -> None:
    if not h.live_keys:
        return
    key_id, public = h.rng.choice(h.live_keys)
    message = h.rng.randbytes(h.rng.randint(0, 64))
    blob = h.hsm.sign_and_timestamp(key_id, message)
    h.note(blob.to_bytes())
    h.note(blob.signature)
    if not verify_signed_blob(public, message, blob, h.suite):
        h.fail("fresh signature failed to verify")


def _op_sign_unknown(h: _HsmHarness) -> None:
    try:
        h.hsm.sign_and_timestamp(f"key-{h.rng.randint(10**6, 10**7)}", b"x")
        h.fail("sign accepted an unknown key id")
    except UnknownKeyError:
        pass


def _op_revoke(h: _HsmHarness) -> None:
    if not h.live_keys:
        return
    index = h.rng.randrange(len(h.live_keys))
    key_id, public = h.live_keys.pop(index)
    h.hsm.revoke_key(key_id)
    h.revoked_keys.append((key_id, public))


def _op_sign_revoked(h: _HsmHarness) -> None:
    if not h.revoked_keys:
        return
    key_id, _ = h.rng.choice(h.revoked_keys)
    try:
        h.hsm.sign_and_timestamp(key_id, b"never")
        h.fail("sign accepted a revoked key")
    except RevokedKeyError:
        pass


def _op_rotate_legit(h: _HsmHarness) -> None:
    new_private, new_public = h.suite.generate_keypair(h.rng)
    package = authorize_root_update(h.suite, h.root_private, new_public)
    h.old_packages.append(package)
    before = h.hsm.active_root
    if before != h.expected_root:
        h.fail("tracked root diverged from the module")
    if not h.hsm.install_root_key(package):
        h.fail("legitimately signed root update was rejected")
        return
    h.root_private = new_private
    h.expected_root = new_public
    if h.hsm.active_root != new_public:
        h.fail("root did not change after an authorized update")


def _op_rotate_forged(h: _HsmHarness) -> None:
    attacker_private, _ = h.suite.generate_keypair(h.rng)
    _, attacker_public = h.suite.generate_keypair(h.rng)
    flavor = h.rng.randrange(3)
    if flavor == 0:
        # self-signed by the attacker
        package = authorize_root_update(h.suite, attacker_private, attacker_public)
    elif flavor == 1:
        # garbage signature
        package = RootUpdatePackage(attacker_public, h.rng.randbytes(48))
    else:
        # replay of a historic, once-valid package
        if not h.old_packages:
            return
        package = h.rng.choice(h.old_packages)
        if package.new_root_public_key == h.expected_root:
            return  # replay of the currently active package is a no-op either way
    accepted = h.hsm.install_root_key(package)
    if accepted:
        h.fail("unauthorized root update was accepted")
    if h.hsm.active_root != h.expected_root:
        h.fail("root changed without proper authorization")


def _op_clock(h: _HsmHarness) -> None:
    h.clock.advance(h.rng.randint(0, 50))
    first = h.hsm.read_clock()
    second = h.hsm.read_clock()
    if second < first or first < h.last_clock:
        h.fail("trusted clock moved backwards")
    h.last_clock = second


def _op_ecies(h: _HsmHarness) -> None:
    if not h.live_keys:
        return
    key_id, public = h.rng.choice(h.live_keys)
    plaintext = h.rng.randbytes(h.rng.randint(0, 48))
    ciphertext = encrypt_for(public, plaintext, h.suite, h.rng)
    recovered = h.hsm.decrypt(key_id, ciphertext)
    h.note(recovered)
    if recovered != plaintext:
        h.fail("ECIES round trip failed")


_OPS = (
    (_op_generate, 4),
    (_op_generate_root_refused, 1),
    (_op_sign, 6),
    (_op_sign_unknown, 1),
    (_op_revoke, 1),
    (_op_sign_revoked, 1),
    (_op_rotate_legit, 1),
    (_op_rotate_forged, 2),
    (_op_clock, 3),
    (_op_ecies, 1),
)

_HARNESS_COUNT = 4  # independent modules the fuzzed sequences are spread over


def run_hsm_security_suite(
    sequences: int = 10_000,
    ops_per_sequence: int = 4,
    seed: int = 0x5EC0,
    suite: SignatureSuite | None = None,
) -> SelfTestReport:
    """Fuzz random call sequences and verify the HSM's security invariants."""
    suite = suite if suite is not None else P224Suite()
    rng = Random(seed)
    report = SelfTestReport(title=f"hsm security suite ({sequences} sequences)")
    harnesses = [_HsmHarness(suite, Random(rng.randrange(2**63))) for _ in range(_HARNESS_COUNT)]
    ops = [op for op, weight in _OPS for _ in range(weight)]
    for _ in range(sequences):
        h = rng.choice(harnesses)
        for _ in range(ops_per_sequence):
            h.rng.choice(ops)(h)
    violations = [v for h in harnesses for v in h.violations]
    report.add(
        "api and root-custody invariants hold under fuzzing",
        not violations,
        violations[0] if violations else f"{len(harnesses)} modules fuzzed",
    )
    rotations = sum(len(h.old_packages) for h in harnesses)
    report.add("root rotations exercised", rotations > 0, f"{rotations} legitimate rotations")
    # secrecy: nothing returned may equal stored private material
    leaked = 0
    for h in harnesses:
        scalars = set(h.hsm._private_scalars())
        scalars.add(suite.private_scalar_bytes(h.root_private))
        for blob in h.returned:
            if blob in scalars:
                leaked += 1
    total_returns = sum(len(h.returned) for h in harnesses)
    report.add(
        "no returned byte string equals a stored private scalar",
        leaked == 0,
        f"{total_returns} returned values audited",
    )
    return report


# -- gateway equivalence -------------------------------------------------------------


def reference_access_decision(rules: list[FirewallRule], app_id: str,
                              resource_id: str) -> Action:
    """Straight-line re-statement of the firewall semantics for cross-checks."""
    best: tuple[int, int] | None = None
    decision = Action.DENY
    for order, rule in enumerate(rules):
        app_ok = rule.app_id == "*" or rule.app_id == app_id
        res_ok = rule.resource_id == "*" or rule.resource_id == resource_id
        if not (app_ok and res_ok):
            continue
        rank = (rule.priority, order)
        if best is None or rank < best:
            best = rank
            decision = rule.action
    return decision


def reference_range_ok(spec: RangeSpec, value: float) -> bool:
    return spec.low <= value <= spec.high


def run_gateway_suite(events: int = 10_000, seed: int = 0xF11e) -> SelfTestReport:
    """Randomized agreement check between the gateway and reference logic."""
    rng = Random(seed)
    report = SelfTestReport(title=f"gateway suite ({events} events)")
    apps = [f"app{i}" for i in range(6)] + ["*"]
    resources = [f"res{i}" for i in range(8)] + ["*"]

    mismatches = 0
    ids_misses = 0
    ids_false_alarms = 0
    dominance_failures = 0
    checked = 0

    firewall = Firewall()
    insertion_order: list[FirewallRule] = []
    spec = _random_behavior_spec(rng)
    detector = IntrusionDetector(spec)
    shadow_state: dict[str, str] = {}

    for step in range(events):
        if step % 250 == 0:
            firewall = Firewall()
            insertion_order = []
            spec = _random_behavior_spec(rng)
            detector = IntrusionDetector(spec)
            shadow_state = {}
            for _ in range(rng.randint(0, 12)):
                rule = FirewallRule(
                    app_id=rng.choice(apps),
                    resource_id=rng.choice(resources),
                    action=rng.choice((Action.ALLOW, Action.DENY)),
                    priority=rng.randint(1, 20),
                )
                if firewall.add_rule(rule):
                    insertion_order.append(rule)
        roll = rng.random()
        if roll < 0.5:
            app = rng.choice(apps[:-1])
            resource = rng.choice(resources[:-1])
            checked += 1
            if firewall.check_access(app, resource) != reference_access_decision(
                insertion_order, app, resource
            ):
                mismatches += 1
        else:
            event, expected_anomaly = _random_event(rng, spec, shadow_state, step)
            anomaly = detector.observe(event)
            if expected_anomaly and anomaly is None:
                ids_misses += 1
            elif anomaly is not None and not expected_anomaly:
                ids_false_alarms += 1
            if anomaly is not None:
                injected = detector.react(anomaly, firewall)
                insertion_order = _with_rule(insertion_order, injected)
                # give the offender a top static allow and verify the IDS rule wins
                contender = FirewallRule(event.source_app, event.signal, Action.ALLOW, 1)
                if firewall.add_rule(contender):
                    insertion_order = _with_rule(insertion_order, contender)
                if firewall.check_access(event.source_app, event.signal) != Action.DENY:
                    dominance_failures += 1

    report.add("rule table agrees with reference decisions", mismatches == 0,
               f"{checked} queries")
    report.add("anomaly detection matches reference range/transition logic",
               ids_misses == 0 and ids_false_alarms == 0,
               f"misses={ids_misses} false_alarms={ids_false_alarms}")
    report.add("injected deny rules dominate static allows", dominance_failures == 0)
    return report


def _with_rule(order: list[FirewallRule], rule: FirewallRule) -> list[FirewallRule]:
    if rule not in order:
        order.append(rule)
    return order


def _random_behavior_spec(rng: Random) -> BehaviorSpec:
    signals: dict[str, RangeSpec | TransitionSpec] = {}
    for i in range(rng.randint(1, 3)):
        low = rng.uniform(-50, 50)
        signals[f"num{i}"] = RangeSpec(low, low + rng.uniform(0, 100))
    states = [f"s{i}" for i in range(rng.randint(2, 4))]
    allowed = {
        state: frozenset(rng.sample(states, rng.randint(1, len(states))))
        for state in states
    }
    signals["machine"] = TransitionSpec(allowed)
    return BehaviorSpec(signals)


def _random_event(rng: Random, spec: BehaviorSpec, shadow_state: dict[str, str],
                  step: int) -> tuple[InVehicleEvent, bool]:
    """Build one event and decide, by reference logic, if it is anomalous."""
    app = f"app{rng.randrange(6)}"
    if rng.random() < 0.1:
        event = InVehicleEvent(app, "ghost_signal", rng.random(), step)
        return event, True
    name = rng.choice(sorted(spec.signals))
    signal_spec = spec.signals[name]
    if isinstance(signal_spec, RangeSpec):
        if rng.random() < 0.3:
            value = signal_spec.high + rng.uniform(0.001, 10)
        else:
            value = rng.uniform(signal_spec.low, signal_spec.high)
        return InVehicleEvent(app, name, value, step), not reference_range_ok(signal_spec, value)
    states = sorted(signal_spec.allowed)
    state = rng.choice(states)
    last = shadow_state.get(name)
    anomalous = last is not None and state not in signal_spec.allowed[last]
    if not anomalous:
        shadow_state[name] = state
    return InVehicleEvent(app, name, state, step), anomalous
