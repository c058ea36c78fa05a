"""Tests of the benchmark itself; run with ``python -m pytest perfbench``."""

from __future__ import annotations

import copy
import json

import run  # first: puts the package sources on the import path
import checks
import tracing
import workloads
from v2xsec import suites
from v2xsec.gateway import Action, Firewall, FirewallRule
from v2xsec.selftest import SelfTestReport

SMOKE = workloads.SimWorkload("smoke", "smoke.ini", lambda c, metrics, config: [])
SEED = 7


def _smoke_pass(context=None):
    _, _, (sim, metrics) = run.timed_pass(SMOKE, SEED, context)
    return sim, metrics


def test_traced_and_untraced_smoke_runs_give_identical_metrics():
    _, plain = _smoke_pass()
    tracer = tracing.Tracer()
    _, traced = _smoke_pass(tracer)
    assert traced == plain
    assert tracer.calls["beaconing.on_receive"] == plain.receptions
    assert tracer.calls["beaconing.make_beacon"] == plain.beacons_sent
    assert tracer.calls["sim.engine.init"] == tracer.calls["sim.engine.run"] == 1
    # the wrappers are gone again
    assert all(not hasattr(getattr(owner, attr), "__wrapped__")
               for _, _, owner, attr in tracing.TARGETS)


def test_traced_run_reports_every_per_layer_metric_of_the_benchmark():
    tracer = tracing.Tracer()
    sim, metrics = _smoke_pass(tracer)
    reported = set(run.layer_metrics(tracer, 1, checks.counters(sim, metrics)))
    reported.add("trace.overhead_ratio")
    with open(run.ROOT / "BENCHMARK.json") as handle:
        declared = {metric["name"] for metric in json.load(handle)["per_layer"]}
    assert reported == declared


def test_timed_passes_start_from_a_cold_fast_suite():
    checked: list[int] = []

    def counting(suite, *args):
        checked[-1] += 1
        return check(suite, *args)

    check = suites.FastHashSuite._check
    undo = tracing.patch(suites.FastHashSuite, "_check", counting)
    try:
        for _ in range(2):
            checked.append(0)
            _smoke_pass()
    finally:
        tracing.unpatch(undo)
    assert checked[0] > 0
    assert checked[0] == checked[1]


def test_funnel_check_rejects_an_off_by_one_count():
    c = checks.counters(*_smoke_pass())
    assert checks.check_funnel(c) == []
    assert checks.check_funnel(dict(c, delivered=c["delivered"] + 1))
    assert checks.check_funnel(dict(c, queued_at_end=c["queued_at_end"] - 1))


def test_overhead_check_rejects_a_wrong_offered_load():
    sim, metrics = _smoke_pass()
    c = checks.counters(sim, metrics)
    baseline = checks.check_overhead(c, metrics, sim.config)
    assert not any("offered load" in problem for problem in baseline)
    wrong = copy.copy(metrics)
    wrong.offered_load_Bps += 1 / sim.config.duration_s
    assert any("offered load" in p for p in checks.check_overhead(c, wrong, sim.config))


def test_budget_check_rejects_one_unit_over_budget():
    steady = range(1, 3)
    good = [{0: 12, 1: 50, 2: 49}, {0: 50, 1: 50, 2: 50}]
    assert checks.check_budget(good, 50, steady) == []
    over = copy.deepcopy(good)
    over[1][0] = 51
    assert checks.check_budget(over, 50, steady)
    starved = copy.deepcopy(good)
    starved[0][2] = 48
    assert checks.check_budget(starved, 50, steady)


def test_report_check_rejects_one_failed_check():
    report = SelfTestReport(title="suite")
    report.add("first", True)
    report.add("second", True)
    assert checks.check_reports([report]) == []
    report.add("third", False, "detail")
    assert checks.check_reports([report]) == ["suite: third failed (detail)"]


def test_firewall_sample_check_recomputes_first_match():
    firewall = Firewall()
    rules = [FirewallRule("app1", "*", Action.DENY, 5),
             FirewallRule("*", "res1", Action.ALLOW, 5),
             FirewallRule("app1", "res1", Action.ALLOW, 9)]
    for rule in rules:
        firewall.add_rule(rule)
    queries = [("app1", "res1"), ("app2", "res1"), ("app2", "res2"), ("app1", "res2")]
    samples = [(rules, app, res, firewall.check_access(app, res)) for app, res in queries]
    assert [decision for *_, decision in samples] == [
        Action.DENY, Action.ALLOW, Action.DENY, Action.DENY]
    assert checks.check_firewall_sample(samples) == []
    rules_, app, res, decision = samples[0]
    flipped = [(rules_, app, res, Action.ALLOW)] + samples[1:]
    assert checks.check_firewall_sample(flipped)


def test_selftest_sample_covers_real_decisions():
    samples = workloads.WORKLOADS["selftest"].sample_firewall(seed=3)
    assert len(samples) > 100
    assert checks.check_firewall_sample(samples) == []


def test_outcome_checks_reject_any_difference():
    c = checks.counters(*_smoke_pass())
    assert checks.check_same_outcome(c, copy.deepcopy(c)) == []
    changed = copy.deepcopy(c)
    changed["discards"]["bad_signature"] = 1
    assert checks.check_same_outcome(changed, c)
    assert checks.check_repeatable([c, c]) == []
    assert checks.check_repeatable([c, changed]) == ["pass 1 differs from pass 0"]
