"""Per-layer tracing by wrapping the package's public functions.

Each wrapped function records, per name, how often it ran, its inclusive
time and the part of that time spent inside other wrapped functions, so a
layer's self time is its inclusive time minus the time its wrapped callees
cover. Spans are aggregated at the boundary instead of stored one by one:
the simulator makes over a million wrapped calls per run.

Wrappers are installed on classes and modules, so they must be in place
before a simulation is built: the engine binds ``on_receive`` and the
delivery callback at construction.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from types import ModuleType

from v2xsec import beaconing, gateway, hooks, hsm, identity, selftest, suites
from v2xsec.sim import engine, scenario

# (layer, function name, owner, attribute). Several owners may share one
# name: ``suites.verify`` is whichever suite class is in use.
TARGETS: tuple[tuple[str, str, object, str], ...] = (
    ("sim.engine", "init", engine.HighwaySimulation, "__init__"),
    ("sim.engine", "run", engine.HighwaySimulation, "run"),
    ("sim.scenario", "load_scenario", scenario, "load_scenario"),
    ("beaconing", "make_beacon", beaconing.BeaconSecurity, "make_beacon"),
    ("beaconing", "on_receive", beaconing.BeaconSecurity, "on_receive"),
    ("beaconing", "verification_step", beaconing.BeaconSecurity, "verification_step"),
    ("beaconing", "neighbor_maintenance", beaconing.BeaconSecurity, "neighbor_maintenance"),
    ("hooks", "transmit", hooks.HookStack, "transmit"),
    ("hooks", "traverse", hooks.HookStack, "traverse"),
    ("hooks", "command", hooks.HookStack, "command"),
    ("hsm", "sign_and_timestamp", hsm.Hsm, "sign_and_timestamp"),
    ("hsm", "generate_key", hsm.Hsm, "generate_key"),
    ("hsm", "decrypt", hsm.Hsm, "decrypt"),
    ("hsm", "install_root_key", hsm.Hsm, "install_root_key"),
    ("identity", "provision", identity.IdentityManager, "provision"),
    ("identity", "activate_next", identity.IdentityManager, "activate_next"),
    ("identity", "verify_certificate", identity, "verify_certificate"),
    ("suites", "sign", suites.P224Suite, "sign"),
    ("suites", "sign", suites.FastHashSuite, "sign"),
    ("suites", "verify", suites.P224Suite, "verify"),
    ("suites", "verify", suites.FastHashSuite, "verify"),
    ("suites", "generate_keypair", suites.P224Suite, "generate_keypair"),
    ("suites", "generate_keypair", suites.FastHashSuite, "generate_keypair"),
    ("gateway", "check_access", gateway.Firewall, "check_access"),
    ("gateway", "add_rule", gateway.Firewall, "add_rule"),
    ("gateway", "observe", gateway.IntrusionDetector, "observe"),
    ("selftest", "hsm_suite", selftest, "run_hsm_security_suite"),
    ("selftest", "gateway_suite", selftest, "run_gateway_suite"),
)

# Wrapped functions that can call another wrapped function; only these
# report a self time.
HAS_CALLEES = frozenset({
    "sim.engine.init", "sim.engine.run",
    "beaconing.make_beacon", "beaconing.on_receive", "beaconing.verification_step",
    "hooks.transmit", "hooks.traverse",
    "hsm.sign_and_timestamp", "hsm.generate_key", "hsm.install_root_key",
    "identity.provision", "identity.verify_certificate",
    "selftest.hsm_suite", "selftest.gateway_suite",
})

NAMES: tuple[str, ...] = tuple(dict.fromkeys(f"{layer}.{fn}" for layer, fn, _, _ in TARGETS))


def patch(owner: object, attr: str, new: object) -> list[tuple[object, str, object]]:
    """Replace ``owner.attr`` with ``new``; return what undoes it.

    A module-level function is also replaced in every package module that
    imported it by name, such as ``verify_certificate`` in ``beaconing``.
    """
    old = getattr(owner, attr)
    holders = [owner]
    if isinstance(owner, ModuleType):
        holders += [m for name, m in list(sys.modules.items())
                    if name.startswith("v2xsec") and m is not owner
                    and getattr(m, attr, None) is old]
    for holder in holders:
        setattr(holder, attr, new)
    return [(holder, attr, old) for holder in holders]


def unpatch(undo: list[tuple[object, str, object]]) -> None:
    for holder, attr, old in reversed(undo):
        setattr(holder, attr, old)


class Tracer:
    """Call counts and inclusive and callee time per wrapped function.

    Use as a context manager around one pass: wrappers are installed on
    entry and removed on exit, and counts add up over passes. Times come from
    ``time.perf_counter``.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.callee_s: Counter[str] = Counter()
        # hashes of the distinct (key, data, signature) triples given to
        # verify in the current pass, and their count in each finished pass
        self.verify_inputs: set[int] = set()
        self.distinct_verify_inputs: list[int] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        calls, total_s, callee_s = self.calls, self.total_s, self.callee_s
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                total_s[name] += elapsed
                callee_s[name] += stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def _wrap_verify(self, fn):
        inputs = self.verify_inputs
        traced = self.wrap("suites.verify", fn)

        @functools.wraps(fn)
        def verify(suite, *args):
            inputs.add(hash(tuple(bytes(arg) for arg in args)))
            return traced(suite, *args)

        return verify

    def __enter__(self) -> "Tracer":
        for layer, fn_name, owner, attr in TARGETS:
            name = f"{layer}.{fn_name}"
            original = getattr(owner, attr)
            wrapper = (self._wrap_verify(original) if name == "suites.verify"
                       else self.wrap(name, original))
            self._undo += patch(owner, attr, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        unpatch(self._undo)
        self._undo = []
        self.distinct_verify_inputs.append(len(self.verify_inputs))
        self.verify_inputs.clear()

    def self_s(self, name: str) -> float:
        return self.total_s[name] - self.callee_s[name]

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Calls per pass and mean inclusive (and self) microseconds per call."""
        out: dict[str, tuple[float, str]] = {}
        for name in NAMES:
            calls = self.calls[name]
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.us"] = (1e6 * self.total_s[name] / calls if calls else 0.0, "us")
            if name in HAS_CALLEES:
                out[f"{name}.self_us"] = (1e6 * self.self_s(name) / calls if calls else 0.0,
                                          "us")
        return out
