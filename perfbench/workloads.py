"""The benchmark's workloads: what one pass sets up, runs and checks.

A pass is ``setup(seed)`` followed by ``run(state)``. Both go through the
package's public API and, for the simulator, through module attributes, so
that tracing wrappers installed on those attributes see every call.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path

import checks
import tracing
from v2xsec import gateway, selftest, suites
from v2xsec.sim import engine, scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def reset_process_state() -> None:
    """Give the next pass the suite state of a fresh process.

    The registry's suites are shared by the whole process, and the ``fast``
    suite remembers verdicts and public keys, so a second pass over the same
    seed would find them warm. New instances start cold, as at import.
    """
    registry = getattr(suites, "_SUITES", {})
    for name, suite in list(registry.items()):
        registry[name] = type(suite)()


class SimWorkload:
    """One scenario file, with the seed and any overrides applied."""

    def __init__(self, name: str, ini: str, check, **overrides) -> None:
        self.name = name
        self.ini = ini
        self._check = check
        self.overrides = overrides

    def setup(self, seed: int):
        config = dataclasses.replace(scenario.load_scenario(str(SCENARIOS / self.ini)),
                                     seed=seed, **self.overrides)
        return engine.HighwaySimulation(config)  # validates the config

    def run(self, sim):
        return sim, sim.run()

    def outcome(self, result) -> dict:
        return checks.counters(*result)

    def ops(self, outcome: dict) -> int:
        """One emission or one reception is one operation."""
        return outcome["emissions"] + outcome["receptions"]

    def failed(self, outcome: dict) -> int:
        return checks.failed_receptions(outcome)

    def check(self, result, seed: int) -> list[str]:
        sim, metrics = result
        return self._check(checks.counters(sim, metrics), metrics, sim.config)


def _check_matches_fast(c, metrics, config):
    """With every signature valid, the suite must not change any outcome."""
    reset_process_state()
    sim = engine.HighwaySimulation(dataclasses.replace(config, crypto="fast"))
    reference = checks.counters(sim, sim.run())
    return checks.check_funnel(c) + checks.check_same_outcome(c, reference)


class SelftestWorkload:
    """HSM custody fuzzing on P-224 plus the gateway equivalence suite.

    Sized so each suite takes about half of a pass. The harnesses are built
    inside the suites, so their construction counts as run time.
    """

    name = "selftest"
    HSM_SEQUENCES = 1000
    OPS_PER_SEQUENCE = 4
    GATEWAY_EVENTS = 40_000
    # events of the extra, untimed gateway run whose decisions are sampled
    SAMPLE_EVENTS = 4000
    SAMPLE_EVERY = 5

    def setup(self, seed: int):
        return seed, suites.get_suite("p224")

    def run(self, state):
        seed, suite = state
        hsm_report = selftest.run_hsm_security_suite(
            sequences=self.HSM_SEQUENCES, ops_per_sequence=self.OPS_PER_SEQUENCE,
            seed=seed, suite=suite)
        gateway_report = selftest.run_gateway_suite(events=self.GATEWAY_EVENTS, seed=seed + 1)
        return hsm_report, gateway_report

    def outcome(self, result) -> list:
        return [(r.title, [(c.name, c.passed, c.detail) for c in r.checks]) for r in result]

    def ops(self, outcome) -> int:
        """One fuzzed HSM call or one gateway event is one operation."""
        return self.HSM_SEQUENCES * self.OPS_PER_SEQUENCE + self.GATEWAY_EVENTS

    def failed(self, outcome) -> int:
        return sum(not passed for _, results in outcome for _, passed, _ in results)

    def check(self, result, seed: int) -> list[str]:
        return checks.check_reports(result) + checks.check_firewall_sample(
            self.sample_firewall(seed))

    def sample_firewall(self, seed: int) -> list:
        """Run the gateway suite again, recording every firewall's rules in
        insertion order and every SAMPLE_EVERY-th access decision."""
        rules: dict[gateway.Firewall, list] = {}
        samples = []
        fw = gateway.Firewall
        add_rule, remove_rule, check_access = fw.add_rule, fw.remove_rule, fw.check_access

        def recording_add(firewall, rule):
            added = add_rule(firewall, rule)
            if added:
                rules.setdefault(firewall, []).append(rule)
            return added

        def recording_remove(firewall, rule):
            removed = remove_rule(firewall, rule)
            if removed:
                rules[firewall].remove(rule)
            return removed

        calls = itertools.count(1)

        def recording_check(firewall, app_id, resource_id):
            decision = check_access(firewall, app_id, resource_id)
            if next(calls) % self.SAMPLE_EVERY == 0:
                samples.append((list(rules.get(firewall, ())), app_id, resource_id, decision))
            return decision

        undo = (tracing.patch(fw, "add_rule", recording_add)
                + tracing.patch(fw, "remove_rule", recording_remove)
                + tracing.patch(fw, "check_access", recording_check))
        try:
            selftest.run_gateway_suite(events=self.SAMPLE_EVENTS, seed=seed + 1)
        finally:
            tracing.unpatch(undo)
        return samples


WORKLOADS = {
    workload.name: workload for workload in (
        SimWorkload("overhead", "overhead.ini", checks.check_overhead),
        SimWorkload("saturation", "saturation.ini", checks.check_saturation),
        # shorter than the 30 s minimum pseudonym lifetime, so no pseudonym
        # changes and the run must match a crypto=fast run exactly
        SimWorkload("overhead_p224", "overhead.ini", _check_matches_fast,
                    crypto="p224", duration_s=8.0),
        SelftestWorkload(),
    )
}
