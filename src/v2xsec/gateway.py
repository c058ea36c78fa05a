"""In-vehicle gateway: a default-deny firewall plus a small anomaly IDS.

The gateway sits between on-board applications and vehicle resources
(sensors, actuators, bus signals). Access is decided by an ordered rule
table; with no matching rule the answer is deny. The intrusion detector
watches in-vehicle events against a declared behavior specification (value
ranges and state machines) and reacts to violations by injecting deny rules
at a reserved top-priority band that static configuration cannot occupy.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

IDS_PRIORITY = 0  # injected rules only; static rules must use >= 1


class GatewayError(Exception):
    pass


class Action(Enum):
    ALLOW = "allow"
    DENY = "deny"


class RuleOrigin(Enum):
    STATIC = "static"
    IDS = "ids"


@dataclass(frozen=True)
class FirewallRule:
    """One access rule. Lower priority number wins; '*' matches any id."""

    app_id: str
    resource_id: str
    action: Action
    priority: int
    origin: RuleOrigin = RuleOrigin.STATIC

    def __post_init__(self) -> None:
        if not (isinstance(self.app_id, str) and isinstance(self.resource_id, str)):
            raise GatewayError(f"ids must be str, got {self.app_id!r}, {self.resource_id!r}")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise GatewayError(f"priority must be an int, got {self.priority!r}")
        if not isinstance(self.action, Action):
            raise GatewayError(f"action must be an Action, got {self.action!r}")
        if not isinstance(self.origin, RuleOrigin):
            raise GatewayError(f"origin must be a RuleOrigin, got {self.origin!r}")
        if self.priority < 0:
            raise GatewayError("priority must be nonnegative")
        if self.origin is RuleOrigin.STATIC and self.priority < 1:
            raise GatewayError("static rules must use priority >= 1")
        if self.origin is RuleOrigin.IDS and self.priority != IDS_PRIORITY:
            raise GatewayError("IDS rules live at the reserved priority band")


class Firewall:
    """Ordered rule table with deny-by-default semantics."""

    def __init__(self) -> None:
        self._rules: list[FirewallRule] = []  # by priority, then insertion order
        self._members: set[FirewallRule] = set()  # the rules of _rules

    @property
    def rules(self) -> list[FirewallRule]:
        return list(self._rules)

    def add_rule(self, rule: FirewallRule) -> bool:
        """Insert a rule; re-adding an identical rule is a no-op (False)."""
        if rule in self._members:
            return False
        self._members.add(rule)
        bisect.insort(self._rules, rule, key=lambda r: r.priority)
        return True

    def remove_rule(self, rule: FirewallRule) -> bool:
        if rule not in self._members:
            return False
        self._members.remove(rule)
        self._rules.remove(rule)
        return True

    def clear_injected(self) -> int:
        injected = [r for r in self._rules if r.origin is RuleOrigin.IDS]
        for rule in injected:
            self.remove_rule(rule)
        return len(injected)

    def check_access(self, app_id: str, resource_id: str) -> Action:
        """First matching rule in priority order decides; default is deny."""
        for rule in self._rules:
            if (rule.app_id == app_id or rule.app_id == "*") and (
                    rule.resource_id == resource_id or rule.resource_id == "*"):
                return rule.action
        return Action.DENY


# -- behavior specification and anomaly detection ------------------------------


@dataclass(frozen=True)
class RangeSpec:
    """Closed numeric interval a signal must stay inside; a bound may be
    infinite, which leaves that side open."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low <= self.high:  # also false when either bound is NaN
            raise GatewayError(f"range needs low <= high, no NaN: [{self.low}, {self.high}]")


@dataclass(frozen=True)
class TransitionSpec:
    """Allowed state machine for a discrete signal.

    ``allowed`` maps every declared state to the set of successor states. A
    state appearing only as a successor is rejected: the map must be total so
    there is never an undeclared position to transition from.
    """

    allowed: dict[str, frozenset[str]]

    def __post_init__(self) -> None:
        if not self.allowed:
            raise GatewayError("transition spec needs at least one state")
        declared = set(self.allowed)
        for state, successors in self.allowed.items():
            undeclared = set(successors) - declared
            if undeclared:
                raise GatewayError(
                    f"state {state!r} allows undeclared successors {sorted(undeclared)}"
                )


SignalSpec = RangeSpec | TransitionSpec


@dataclass(frozen=True)
class BehaviorSpec:
    """Declared normal behavior for every signal the IDS may observe."""

    signals: dict[str, SignalSpec]

    def __post_init__(self) -> None:
        if not self.signals:
            raise GatewayError("behavior spec must declare at least one signal")


@dataclass(frozen=True)
class InVehicleEvent:
    source_app: str
    signal: str
    value: float | str
    timestamp: int


@dataclass(frozen=True)
class Anomaly:
    kind: str  # undeclared_signal | out_of_range | bad_transition | bad_state | type_mismatch
    signal: str
    detail: str
    source_app: str
    timestamp: int


class IntrusionDetector:
    """Range and transition checking against a behavior specification.

    Stateful per signal: transition signals remember the last accepted state.
    Events for signals absent from the specification are anomalies themselves
    (fail closed rather than fail open).
    """

    def __init__(self, spec: BehaviorSpec) -> None:
        self.spec = spec
        self._last_state: dict[str, str] = {}
        self.anomaly_count = 0

    def observe(self, event: InVehicleEvent) -> Anomaly | None:
        """Check one event; None means it conforms to the specification."""
        spec = self.spec.signals.get(event.signal)
        if spec is None:
            return self._flag("undeclared_signal", event, "signal not in behavior spec")
        if isinstance(spec, RangeSpec):
            value = event.value
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return self._flag("type_mismatch", event, "numeric signal got a non-number")
            if not (spec.low <= value <= spec.high):
                return self._flag(
                    "out_of_range", event, f"value {value} outside [{spec.low}, {spec.high}]"
                )
            return None
        # transition spec
        state = event.value
        if not isinstance(state, str):
            return self._flag("type_mismatch", event, "state signal got a numeric value")
        if state not in spec.allowed:
            return self._flag("bad_state", event, f"state {state!r} not declared")
        last = self._last_state.get(event.signal)
        if last is not None and state not in spec.allowed[last]:
            return self._flag("bad_transition", event, f"{last!r} -> {state!r} not allowed")
        self._last_state[event.signal] = state
        return None

    def react(self, anomaly: Anomaly, firewall: Firewall) -> FirewallRule:
        """Inject a deny rule cutting the offending app off the signal.

        Idempotent: reacting twice to equivalent anomalies yields one rule.
        """
        rule = FirewallRule(
            app_id=anomaly.source_app,
            resource_id=anomaly.signal,
            action=Action.DENY,
            priority=IDS_PRIORITY,
            origin=RuleOrigin.IDS,
        )
        firewall.add_rule(rule)
        return rule

    def _flag(self, kind: str, event: InVehicleEvent, detail: str) -> Anomaly:
        self.anomaly_count += 1
        return Anomaly(kind=kind, signal=event.signal, detail=detail,
                       source_app=event.source_app, timestamp=event.timestamp)
