"""Gateway firewall ordering and anomaly detection."""

from __future__ import annotations

from random import Random

import pytest

from v2xsec.gateway import (
    IDS_PRIORITY,
    Action,
    Anomaly,
    BehaviorSpec,
    Firewall,
    FirewallRule,
    GatewayError,
    IntrusionDetector,
    InVehicleEvent,
    RangeSpec,
    RuleOrigin,
    TransitionSpec,
)
from v2xsec.selftest import reference_access_decision


def _allow(app, resource, priority):
    return FirewallRule(app, resource, Action.ALLOW, priority)


def _deny(app, resource, priority):
    return FirewallRule(app, resource, Action.DENY, priority)


# -- firewall ---------------------------------------------------------------------


def test_default_deny():
    firewall = Firewall()
    assert firewall.check_access("any_app", "any_resource") is Action.DENY


def test_first_match_by_priority_then_insertion():
    firewall = Firewall()
    firewall.add_rule(_deny("nav", "wheel", 20))
    firewall.add_rule(_allow("nav", "wheel", 10))  # lower number wins
    assert firewall.check_access("nav", "wheel") is Action.ALLOW

    tie = Firewall()
    tie.add_rule(_allow("nav", "*", 10))  # inserted first wins the tie
    tie.add_rule(_deny("*", "wheel", 10))
    assert tie.check_access("nav", "wheel") is Action.ALLOW


def test_wildcards():
    firewall = Firewall()
    firewall.add_rule(_allow("*", "wheel", 10))
    firewall.add_rule(_deny("nav", "*", 5))
    assert firewall.check_access("nav", "wheel") is Action.DENY
    assert firewall.check_access("radio", "wheel") is Action.ALLOW
    assert firewall.check_access("radio", "engine") is Action.DENY  # default


def test_add_is_idempotent_remove_is_exact():
    firewall = Firewall()
    rule = _allow("nav", "wheel", 10)
    assert firewall.add_rule(rule)
    assert not firewall.add_rule(_allow("nav", "wheel", 10))  # identical rule
    assert len(firewall.rules) == 1
    assert firewall.remove_rule(rule)
    assert not firewall.remove_rule(rule)
    assert firewall.check_access("nav", "wheel") is Action.DENY
    # a re-added rule ranks as newly inserted: after a tie added in between
    other = _deny("*", "wheel", 10)
    assert firewall.add_rule(other) and firewall.add_rule(rule)
    assert firewall.rules == [other, rule]


def test_static_rules_cannot_claim_ids_band():
    with pytest.raises(GatewayError):
        FirewallRule("nav", "wheel", Action.ALLOW, IDS_PRIORITY)
    with pytest.raises(GatewayError):
        FirewallRule("nav", "wheel", Action.DENY, 5, origin=RuleOrigin.IDS)
    with pytest.raises(GatewayError):
        FirewallRule("nav", "wheel", Action.DENY, -1)


@pytest.mark.parametrize("fields", [
    ("attacker", "brakes", Action.ALLOW, IDS_PRIORITY, "ids"),  # origin not a RuleOrigin
    ("nav", "wheel", "allow", 5),  # action not an Action
    ("nav", "wheel", Action.DENY, 5, "static"),
    (["nav"], "wheel", Action.ALLOW, 3),  # unhashable id
    ("nav", None, Action.ALLOW, 3),
    ("nav", "wheel", Action.ALLOW, 2.5),  # priority not an int
    ("nav", "wheel", Action.ALLOW, True),
])
def test_rule_fields_must_have_their_declared_types(fields):
    with pytest.raises(GatewayError):
        FirewallRule(*fields)


def test_injected_deny_outranks_any_static_allow():
    firewall = Firewall()
    firewall.add_rule(_allow("attacker", "brakes", 1))  # best legal static slot
    injected = FirewallRule("attacker", "brakes", Action.DENY,
                            IDS_PRIORITY, origin=RuleOrigin.IDS)
    firewall.add_rule(injected)
    assert firewall.check_access("attacker", "brakes") is Action.DENY
    assert firewall.clear_injected() == 1
    assert firewall.check_access("attacker", "brakes") is Action.ALLOW


def test_randomized_equivalence_with_reference():
    """Random tables, edited between queries by removing and re-adding rules,
    and queried with ids that may be the literal '*'."""
    rng = Random(0x6A7E)
    apps = ["nav", "radio", "diag", "telpho", "*"]
    resources = ["wheel", "engine", "brakes", "gps", "*"]
    for trial in range(300):
        firewall = Firewall()
        table = {}  # the firewall's rules, in insertion order

        def add(rule):
            added = firewall.add_rule(rule)
            assert added == (rule not in table)  # duplicates are no-ops
            if added:
                table[rule] = None

        for _ in range(rng.randint(0, 8)):
            add(FirewallRule(rng.choice(apps), rng.choice(resources),
                             rng.choice((Action.ALLOW, Action.DENY)), rng.randint(1, 5)))
        for _ in range(10):
            if table and rng.random() < 0.3:
                rule = rng.choice(sorted(table, key=lambda r: r.priority))
                assert firewall.remove_rule(rule)
                del table[rule]
                assert not firewall.remove_rule(rule)
                if rng.random() < 0.5:
                    add(rule)  # re-added: ranks after every rule added before
            app = rng.choice(apps)
            resource = rng.choice(resources)
            expected = reference_access_decision(table, app, resource)
            assert firewall.check_access(app, resource) is expected, (trial, app, resource, table)
        # a stable sort keeps insertion order among equal priorities
        assert firewall.rules == sorted(table, key=lambda r: r.priority)


# -- behavior specification ---------------------------------------------------------


def test_range_spec_bounds_inclusive():
    detector = IntrusionDetector(BehaviorSpec({"speed": RangeSpec(0, 90)}))

    def ev(value):
        return InVehicleEvent("cruise", "speed", value, 0)

    assert detector.observe(ev(0)) is None
    assert detector.observe(ev(90)) is None
    anomaly = detector.observe(ev(90.01))
    assert anomaly is not None and anomaly.kind == "out_of_range"
    assert detector.observe(ev(-0.01)).kind == "out_of_range"
    assert detector.observe(ev("fast")).kind == "type_mismatch"
    assert detector.anomaly_count == 3

    with pytest.raises(GatewayError):
        RangeSpec(5, 4)


@pytest.mark.parametrize("low, high", [(float("nan"), 90.0), (0.0, float("nan")),
                                       (float("nan"), float("nan"))])
def test_range_spec_rejects_a_nan_bound(low, high):
    with pytest.raises(GatewayError):
        RangeSpec(low, high)


@pytest.mark.parametrize("value", [None, b"12", [1], 1j, True, False],
                         ids=["none", "bytes", "list", "complex", "true", "false"])
def test_range_signal_flags_a_value_that_is_not_a_number(value):
    """Anything but an int or a float, a bool included, is a type mismatch,
    never an exception and never a reading of 1 or 0."""
    detector = IntrusionDetector(BehaviorSpec({"speed": RangeSpec(0, 90)}))
    anomaly = detector.observe(InVehicleEvent("cruise", "speed", value, 0))
    assert anomaly is not None and anomaly.kind == "type_mismatch"
    assert detector.observe(InVehicleEvent("cruise", "speed", 12, 0)) is None


def test_range_spec_may_be_open():
    inf = float("inf")
    detector = IntrusionDetector(BehaviorSpec({"odometer": RangeSpec(0, inf),
                                               "offset": RangeSpec(-inf, inf)}))
    assert detector.observe(InVehicleEvent("meter", "odometer", 1e300, 0)) is None
    assert detector.observe(InVehicleEvent("meter", "offset", -1e300, 0)) is None
    assert detector.observe(InVehicleEvent("meter", "odometer", -1, 0)).kind == "out_of_range"


def test_transition_spec_must_be_total():
    with pytest.raises(GatewayError):
        TransitionSpec({"park": frozenset({"drive"})})  # drive never declared
    with pytest.raises(GatewayError):
        TransitionSpec({})
    with pytest.raises(GatewayError):
        BehaviorSpec({})


def test_transition_checking_is_stateful():
    spec = TransitionSpec({
        "park": frozenset({"park", "drive"}),
        "drive": frozenset({"drive", "park"}),
        "reverse": frozenset({"park"}),
    })
    detector = IntrusionDetector(BehaviorSpec({"gear": spec}))

    def ev(state):
        return InVehicleEvent("shifter", "gear", state, 0)

    assert detector.observe(ev("park")) is None
    assert detector.observe(ev("drive")) is None
    anomaly = detector.observe(ev("reverse"))  # drive -> reverse not allowed
    assert anomaly.kind == "bad_transition"
    # the rejected event must not advance the state machine
    assert detector.observe(ev("park")) is None
    assert detector.observe(ev("launch")).kind == "bad_state"
    assert detector.observe(ev(3.0)).kind == "type_mismatch"


def test_undeclared_signal_is_an_anomaly():
    detector = IntrusionDetector(BehaviorSpec({"speed": RangeSpec(0, 90)}))
    anomaly = detector.observe(InVehicleEvent("diag", "injector_timing", 5.0, 9))
    assert anomaly.kind == "undeclared_signal"
    assert anomaly.source_app == "diag" and anomaly.timestamp == 9


def test_react_injects_idempotent_deny():
    firewall = Firewall()
    firewall.add_rule(_allow("diag", "speed", 1))
    detector = IntrusionDetector(BehaviorSpec({"speed": RangeSpec(0, 90)}))
    anomaly = detector.observe(InVehicleEvent("diag", "speed", 300.0, 0))
    rule = detector.react(anomaly, firewall)
    assert rule.priority == IDS_PRIORITY and rule.origin is RuleOrigin.IDS
    assert firewall.check_access("diag", "speed") is Action.DENY

    again = detector.observe(InVehicleEvent("diag", "speed", 400.0, 1))
    detector.react(again, firewall)
    injected = [r for r in firewall.rules if r.origin is RuleOrigin.IDS]
    assert len(injected) == 1  # second reaction folded into the first rule


# -- end to end --------------------------------------------------------------------


def test_end_to_end_detect_and_block():
    firewall = Firewall()
    for rule in (_allow("nav", "wheel_rotation", 10), _deny("*", "engine_config", 20),
                 _allow("diag", "*", 30)):
        firewall.add_rule(rule)
    detector = IntrusionDetector(BehaviorSpec({
        "speed": RangeSpec(0, 90),
        "gear": TransitionSpec({"Park": frozenset({"Park", "Drive"}),
                                "Drive": frozenset({"Drive", "Park"})}),
    }))

    assert firewall.check_access("nav", "wheel_rotation") is Action.ALLOW
    anomaly = detector.observe(InVehicleEvent("nav", "speed", 180.0, 1000))
    detector.react(anomaly, firewall)
    assert firewall.check_access("nav", "speed") is Action.DENY
    # unrelated access unaffected
    assert firewall.check_access("nav", "wheel_rotation") is Action.ALLOW
