"""Simulation engine: determinism, channel accounting, kinematics, sweeps."""

from __future__ import annotations

import concurrent.futures
import csv
import heapq
import os
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2xsec.beaconing import Beacon
from v2xsec.sim import engine, sweep
from v2xsec.sim.engine import LINK_ADDR_LEN, HighwaySimulation, run_scenario, stream_rng
from v2xsec.sim.metrics import CSV_COLUMNS, _percentile, write_csv
from v2xsec.sim.scenario import (
    _SCHEMA,
    MAX_CAPACITY,
    MAX_MS,
    ScenarioConfig,
    ScenarioError,
    apply_override,
    load_scenario,
    parameter,
)
from v2xsec.sim.sweep import GridSpec, expand_grid, run_sweep
from v2xsec.suites import _CAPACITY, FastHashSuite

from .oracles import audit_certificate_fraction, audit_offered_load, crash_times_reference

# adapter header (6) + type tag (2) + body
PLAIN_FRAME_LEN = 6 + 2 + 40
SECURED_FRAME_LEN = 6 + 2 + 117
SECURED_FRAME_WITH_CERT_LEN = SECURED_FRAME_LEN + 142


def _config(**overrides):
    base = dict(
        name="unit",
        vehicle_count=5,
        initial_headway_m=30.0,
        initial_speed_mps=30.0,
        beacon_interval_ms=100,
        duration_s=10.0,
        warmup_s=2.0,
        seed=3,
        security_mode="secured",
        tx_range_m=1000.0,
        crypto="fast",
        base_loss=0.02,
        load_coefficient=0.3,
        propagation_delay_ms=2,
        strategy="neighbor_triggered",
        alpha=10,
        beta=3,
        budget_per_second=50,
        pool_size=4,
        min_lifetime_s=30.0,
        max_lifetime_s=60.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _braking(**overrides):
    base = dict(
        vehicle_count=4,
        initial_headway_m=25.0,
        security_mode="novc",
        duration_s=12.0,
        warmup_s=1.0,
        base_loss=0.0,
        load_coefficient=0.0,
        braking_enabled=True,
        trigger_time_s=5.0,
        lead_decel_mps2=8.0,
        brake_decel_mps2=8.0,
        reaction_delay_ms=1200,
        sight_threshold_m=0.001,
    )
    base.update(overrides)
    return _config(**base)


def _fingerprint(metrics):
    return (
        metrics.csv_row(),
        metrics.receptions,
        metrics.channel_losses,
        metrics.delivered,
        metrics.verification_units,
        metrics.evicted_jobs,
        metrics.pending_dropped,
        dict(metrics.discards),
    )


# -- determinism ---------------------------------------------------------------------


def test_same_seed_reproduces_exactly():
    config = _config(seed=11)
    assert _fingerprint(run_scenario(config)) == _fingerprint(run_scenario(config))


def test_different_seeds_diverge():
    a = run_scenario(_config(seed=1, min_lifetime_s=3.0, max_lifetime_s=6.0))
    b = run_scenario(_config(seed=2, min_lifetime_s=3.0, max_lifetime_s=6.0))
    assert _fingerprint(a) != _fingerprint(b)


def test_overhead_run_matches_pinned_fingerprint():
    """A 20 s ``overhead.ini`` run at seed 11 reproduces recorded counters.
    Any drift in the channel RNG draw order, the omission decisions or the
    budget arithmetic shows here. The delivered and stale counts date from
    the freshness check at dequeue; every other value predates it."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = apply_override(load_scenario(os.path.join(here, "scenarios", "overhead.ini")),
                            "duration_s", "20")
    assert config.seed == 11
    assert _fingerprint(run_scenario(config)) == (
        ["overhead", "11", "secured", "neighbor_triggered", "10", "3", "100", "50",
         "0.000000", "63565.000", "0.000", "0"],
        56291,  # receptions
        1309,  # channel losses
        38751,  # delivered
        48718,  # verification units
        5045,  # evicted jobs
        0,  # pending dropped
        {"stale": 9679},  # discards by reason
    )


def test_stream_rng_streams_are_stable_and_distinct():
    assert stream_rng(7, "channel").random() == stream_rng(7, "channel").random()
    assert stream_rng(7, "channel").random() != stream_rng(7, "vehicle:0").random()
    assert stream_rng(7, "channel").random() != stream_rng(8, "channel").random()


def test_p224_runs_repeat_and_match_fast():
    """Seeded curve keys and RFC 6979 signatures make ``crypto=p224`` repeat
    per seed, and since both suites draw the same values per key, its metrics
    equal those of ``crypto=fast`` even once pseudonyms change."""
    overrides = dict(vehicle_count="12", duration_s="15", min_lifetime_s="3",
                     max_lifetime_s="6")
    config = _repository_scenario("overhead.ini", crypto="p224", **overrides)

    def active_ids(sim):
        return [node.bsec.identity.active.pseudonym_id for node in sim.nodes]

    sim = HighwaySimulation(config)
    assert active_ids(sim) == active_ids(HighwaySimulation(config))
    fast = run_scenario(_repository_scenario("overhead.ini", crypto="fast", **overrides))
    assert sim.run().csv_row() == fast.csv_row()


def test_each_run_has_its_own_verdict_memo(monkeypatch):
    calls = []
    verify = FastHashSuite.verify

    def counting(suite, *args):
        calls.append(args)
        return verify(suite, *args)

    monkeypatch.setattr(FastHashSuite, "verify", counting)
    config = _config(seed=11)
    first = HighwaySimulation(config)
    metrics = first.run()
    first_calls = len(calls)
    # each beacon reaches four receivers, each signature is checked once
    assert 0 < first_calls < metrics.verification_units / 2
    second = HighwaySimulation(config)
    assert second.suite is not first.suite
    assert second.suite.verify.cache_info().currsize == 0
    assert _fingerprint(second.run()) == _fingerprint(metrics)
    assert len(calls) == 2 * first_calls


def test_verdict_memo_holds_at_most_its_capacity():
    """A beacon's triple is asked for only while it is fresh, so a run keeps
    at most ``_CAPACITY`` verdicts, however long it runs."""
    sim = HighwaySimulation(_repository_scenario("overhead.ini", duration_s="30"))
    sim.run()
    assert 0 < sim.suite.verify.cache_info().currsize <= _CAPACITY


# -- mode basics ---------------------------------------------------------------------


def test_novc_sends_nothing():
    metrics = run_scenario(_config(security_mode="novc"))
    assert metrics.beacons_sent == 0
    assert metrics.offered_load_Bps == 0.0
    assert metrics.receptions == 0
    assert metrics.delivered == 0


def test_unsecured_has_no_security_machinery():
    metrics = run_scenario(_config(security_mode="unsecured"))
    assert metrics.certs_post_warmup == 0
    assert metrics.certificate_fraction == 0.0
    assert metrics.verification_units == 0
    assert metrics.delivered == metrics.receptions


def test_reception_accounting_without_loss():
    config = _config(security_mode="unsecured", base_loss=0.0, load_coefficient=0.0,
                     vehicle_count=4)
    metrics = run_scenario(config)
    # 100 emissions per vehicle (phase + k*100 < 10000), 3 receivers each
    assert metrics.beacons_sent == 400
    assert metrics.channel_losses == 0
    assert metrics.receptions == 400 * 3
    assert metrics.delivered == 1200
    assert metrics.offered_load_Bps == 400 * PLAIN_FRAME_LEN / 10.0


def test_loss_accounting_balances():
    config = _config(security_mode="unsecured", base_loss=0.1, vehicle_count=4)
    metrics = run_scenario(config)
    assert metrics.channel_losses > 0
    assert metrics.receptions + metrics.channel_losses == metrics.beacons_sent * 3


def _repository_scenario(name, **overrides):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = load_scenario(os.path.join(here, "scenarios", name))
    for key, value in overrides.items():
        config = apply_override(config, key, value)
    return config


@pytest.mark.parametrize("name, overrides", [
    ("smoke.ini", {}),
    ("saturation.ini", {"duration_s": "5"}),
    ("overhead.ini", {"min_lifetime_s": "3", "max_lifetime_s": "6"}),
])
def test_reception_funnel_balances(name, overrides):
    """Every secured reception ends delivered, discarded with a reason,
    evicted from the queue, dropped from a pending bucket, or still queued
    or pending when the run ends."""
    sim = HighwaySimulation(_repository_scenario(name, **overrides))
    metrics = sim.run()
    layers = [node.bsec for node in sim.nodes]
    accounted = (metrics.delivered + sum(metrics.discards.values()) + metrics.evicted_jobs
                 + metrics.pending_dropped + sum(b.queue_depth for b in layers)
                 + sum(b.pending_count for b in layers))
    assert metrics.receptions > 0
    assert accounted == metrics.receptions


def test_load_feedback_increases_loss():
    quiet = _config(security_mode="unsecured", vehicle_count=6, initial_headway_m=5.0,
                    base_loss=0.02, load_coefficient=0.0, capacity_Bps=20_000.0, seed=9)
    busy = apply_override(quiet, "load_coefficient", "2.0")
    # identical seeds draw identical channel rolls, so the congested run can
    # only lose a superset of the quiet run's beacons
    assert run_scenario(busy).channel_losses > run_scenario(quiet).channel_losses


# -- overhead metrics and the independent auditor ---------------------------------------


def test_warmup_exclusion_and_trace_audit():
    config = _config(strategy="always", beta=0, vehicle_count=4, warmup_s=5.0,
                     record_trace=True)
    metrics = run_scenario(config)
    assert metrics.beacons_sent == 400
    assert metrics.beacons_sent_post_warmup == 200  # second half of the run
    assert metrics.certificate_fraction == 1.0  # attach-always baseline
    assert len(metrics.trace) == 400
    assert all(r.frame_len == SECURED_FRAME_WITH_CERT_LEN for r in metrics.trace)
    assert audit_certificate_fraction(metrics.trace, config.warmup_ms) == \
        metrics.certificate_fraction
    assert audit_offered_load(metrics.trace, config.duration_s) == \
        metrics.offered_load_Bps


def test_omission_reduces_load_against_always():
    # warmup 0 so the first-contact certificates count toward the fraction
    always = run_scenario(_config(strategy="always", beta=0, seed=5, warmup_s=0.0))
    triggered = run_scenario(_config(strategy="neighbor_triggered", beta=3, seed=5,
                                     warmup_s=0.0))
    assert triggered.certificate_fraction < always.certificate_fraction
    assert triggered.offered_load_Bps < always.offered_load_Bps
    assert triggered.certificate_fraction > 0.0  # first contacts still carry certs


def test_trace_frame_lengths_match_attachment(tmp_path):
    metrics = run_scenario(_config(record_trace=True, vehicle_count=3))
    for record in metrics.trace:
        expected = SECURED_FRAME_WITH_CERT_LEN if record.with_certificate \
            else SECURED_FRAME_LEN
        assert record.frame_len == expected


def test_charged_frame_lengths_are_the_encoded_lengths(monkeypatch):
    """The engine charges each emission its length without encoding it; every
    charge equals the link address plus the bytes the beacon encodes to."""
    sim = HighwaySimulation(_config(record_trace=True, vehicle_count=3, duration_s=5.0,
                                    min_lifetime_s=1.0, max_lifetime_s=2.0))
    sent = []
    for bsec in sim._security_layers:
        def recording(beacon, now, make=bsec.make_beacon):
            sent.append(make(beacon, now))
            return sent[-1]
        bsec.make_beacon = recording
    trace = sim.run().trace
    assert len(trace) == len(sent) == 150
    assert {sb.certificate is None for sb in sent} == {True, False}
    assert [r.frame_len for r in trace] == [LINK_ADDR_LEN + len(sb.to_wire()) for sb in sent]

    made = []

    class Recorded(Beacon):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

    monkeypatch.setattr(engine, "Beacon", Recorded)
    trace = run_scenario(_config(record_trace=True, vehicle_count=3, duration_s=5.0,
                                 security_mode="unsecured")).trace
    assert len(trace) == len(made) == 150
    # a plain beacon is its 2-byte type tag and its body
    assert [r.frame_len for r in trace] == [LINK_ADDR_LEN + 2 + len(b.pack()) for b in made]


def test_trust_establishment_metrics():
    config = _config(vehicle_count=3, base_loss=0.0, load_coefficient=0.0)
    metrics = run_scenario(config)
    # every vehicle ends up trusting both others exactly once
    assert len(metrics.time_to_trust_ms) == 6
    assert all(delta >= 0 for delta in metrics.time_to_trust_ms)
    assert metrics.p95_time_to_trust_ms is not None


# -- braking and crash kinematics ----------------------------------------------------


def _oracle_crashes(config, schedules):
    vehicles = []
    for vid in range(config.vehicle_count):
        vehicles.append({
            "x": -vid * config.initial_headway_m,
            "v": config.initial_speed_mps,
            "brake": schedules[vid],
        })
    return crash_times_reference(vehicles, config.duration_s)


def _assert_crashes_match(metrics, expected, tolerance_ms=5.0):
    got = [(event.follower, event.time_ms) for event in metrics.crash_events]
    assert len(got) == len(expected), (got, expected)
    for (follower, time_ms), (exp_follower, exp_time_s) in zip(got, expected):
        assert follower == exp_follower
        assert abs(time_ms - exp_time_s * 1000.0) <= tolerance_ms, (got, expected)


def test_unwarned_pileup_matches_integrator():
    """Blind platoon: only the lead brakes; every follower plows in. The
    engine's closed-form crash times must agree with brute-force integration."""
    config = _braking()
    metrics = run_scenario(config)
    expected = _oracle_crashes(
        config, [(config.trigger_time_s, config.lead_decel_mps2), None, None, None])
    assert metrics.crashes == 3
    _assert_crashes_match(metrics, expected)


def test_channel_warning_matches_hand_schedule():
    """With a clean channel, every follower hears the lead's flagged beacon
    emitted at the trigger instant and brakes one propagation delay plus one
    reaction delay later."""
    config = _braking(security_mode="unsecured", vehicle_count=3,
                      initial_headway_m=30.0, trigger_time_s=10.0, duration_s=16.0)
    metrics = run_scenario(config)
    brake_start_s = 10.0 + (2 + 1200) / 1000.0  # trigger + propagation + reaction
    expected = _oracle_crashes(
        config, [(10.0, 8.0), (brake_start_s, 8.0), (brake_start_s, 8.0)])
    assert metrics.crashes == len(expected) == 1
    assert metrics.crash_events[0].follower == 1
    _assert_crashes_match(metrics, expected)


def test_sight_model_late_reaction():
    """Without communication a driver reacts only once the hazard is inside
    sight range; the beacon channel reacts a full sight-closing earlier."""
    geometry = dict(vehicle_count=2, initial_headway_m=100.0, trigger_time_s=5.0,
                    sight_threshold_m=50.0, duration_s=13.0)
    blind = run_scenario(_braking(**geometry))
    # gap(t) = 100 - 4 (t-5)^2 reaches 50 at t = 8.536 s; the next 100 ms
    # mobility tick (8.6 s) spots the hazard, so braking starts at 9.8 s
    expected = _oracle_crashes(_braking(**geometry), [(5.0, 8.0), (9.8, 8.0)])
    assert blind.crashes == len(expected) == 1
    _assert_crashes_match(blind, expected)

    warned = run_scenario(_braking(security_mode="unsecured", **geometry))
    assert warned.crashes == 0


def test_crash_resolution_is_tick_independent():
    coarse = run_scenario(_braking(mobility_tick_ms=200))
    fine = run_scenario(_braking(mobility_tick_ms=50))
    assert coarse.crash_events == fine.crash_events


def test_crashed_vehicles_stop_emitting():
    config = _braking(security_mode="unsecured", vehicle_count=2,
                      initial_headway_m=10.0, trigger_time_s=2.0, duration_s=10.0,
                      record_trace=True)
    metrics = run_scenario(config)
    assert metrics.crashes == 1
    crash_ms = metrics.crash_events[0].time_ms
    last_emission = max(record.time_ms for record in metrics.trace)
    assert last_emission <= crash_ms + config.beacon_interval_ms
    assert metrics.final_speeds == [0.0, 0.0]


_ZERO_DELAY_RESULTS = {
    "unsecured": (
        ["braking", "3", "unsecured", "neighbor_triggered", "10", "3", "100", "10",
         "0.000000", "4800.000", "", "0"],
        [956.2500000000014, 916.2500000000014, 876.2500000000014, 836.2500000000014,
         796.2500000000014, 756.2500000000014, 716.2500000000014, 676.2500000000014,
         636.2500000000014, 596.2500000000014],
    ),
    "secured": (
        ["braking", "3", "secured", "neighbor_triggered", "10", "3", "100", "10",
         "0.000000", "12571.000", "0.000", "0"],
        [956.2500000000014, 918.9500000000011, 878.6500000000013, 838.9500000000011,
         799.2500000000013, 758.9500000000011, 718.6500000000013, 678.6500000000013,
         638.3500000000013, 598.6500000000013],
    ),
}


@pytest.mark.parametrize("mode", sorted(_ZERO_DELAY_RESULTS))
def test_zero_delay_braking_matches_recorded_run(mode):
    """With no propagation or reaction delay, deliveries share their
    millisecond with emissions, ticks and brake onsets, so the order of
    same-time events decides when each follower brakes and where it stops.
    The values were recorded from a run of the same configuration."""
    config = _repository_scenario("braking.ini", security_mode=mode,
                                  propagation_delay_ms="0", reaction_delay_ms="0")
    metrics = run_scenario(config)
    row, positions = _ZERO_DELAY_RESULTS[mode]
    assert metrics.csv_row() == row
    assert metrics.crash_events == []
    assert metrics.final_positions == positions


@pytest.mark.parametrize("name, overrides", [
    pytest.param("braking.ini", {"security_mode": mode, "propagation_delay_ms": "0",
                                 "reaction_delay_ms": "0"}, id=f"braking-{mode}-no-delay")
    for mode in ("novc", "unsecured", "secured")
] + [pytest.param("smoke.ini", {}, id="smoke")])
def test_no_two_events_share_a_queue_key(monkeypatch, name, overrides):
    """The engine's order contract: (time, kind, vehicle id) is unique per
    event, so no other field of a queue entry ever decides an order."""
    keys = []

    def recording(heap, entry):
        keys.append(entry[:3])
        heapq.heappush(heap, entry)

    monkeypatch.setattr(engine, "heappush", recording)
    metrics = run_scenario(_repository_scenario(name, **overrides))
    assert len(set(keys)) == len(keys)
    kinds = {kind for _, kind, _ in keys}
    assert engine._K_END in kinds and engine._K_TICK in kinds
    if metrics.config.braking_enabled:
        assert engine._K_BRAKE in kinds
    if metrics.config.security_mode != "novc":
        assert {engine._K_EMIT, engine._K_DELIVER} <= kinds


# -- scenario files --------------------------------------------------------------------


GOOD_SCENARIO = """\
[scenario]
name = smoke
vehicle_count = 3
duration_s = 8
warmup_s = 1
security_mode = unsecured
seed = 42

[channel]
base_loss = 0.01

[beaconing]
strategy = periodic
alpha = 5
"""


def test_load_scenario(tmp_path):
    path = tmp_path / "smoke.ini"
    path.write_text(GOOD_SCENARIO)
    config = load_scenario(str(path))
    assert config.name == "smoke"
    assert config.vehicle_count == 3
    assert config.security_mode == "unsecured"
    assert config.base_loss == 0.01
    assert config.strategy == "periodic" and config.alpha == 5
    assert config.beta == 3  # untouched default


@pytest.mark.parametrize("text, needle", [
    ("[mystery]\nx = 1\n", "unknown section"),
    # [DEFAULT] is a section like any other, not defaults for every section
    ("[DEFAULT]\nvehicle_count = 3\nbogus = 1\n", r"unknown section \[DEFAULT\]"),
    ("[scenario]\nseed = 5\n[DEFAULT]\nvehicle_count = 3\n",
     r"unknown section \[DEFAULT\]"),
    ("[DEFAULT]\nvehicle_cnt = 3\n[pseudonym]\npool_size = 4\n",
     r"unknown section \[DEFAULT\]"),
    ("[]\nvehicle_count = 3\n", "no section headers"),  # no header names the empty section
    ("[scenario]\nvehicle_cnt = 3\n", "unknown key"),
    ("[scenario]\nvehicle_count = many\n", "vehicle_count"),
    ("[scenario]\nduration_s = 5\nwarmup_s = 5\n", "warmup_s"),
    ("[scenario]\nsecurity_mode = armored\n", "security_mode"),
    ("[scenario]\nmobility_tick_ms = 300\n", "mobility_tick_ms"),
    ("[scenario]\nlane_count = 2\n", "unknown key"),
    ("[beaconing]\nopposite_flow_filter = true\n", "unknown key"),
    ("[scenario]\nduration_s = inf\n", "duration_s .* not a finite number"),
    ("[channel]\nbase_loss = nan\n", "base_loss .* not a finite number"),
    # finite values that pass every range check but overflow a run's ms
    # conversion, an 8-byte wire field or a deque bound
    ("[scenario]\nduration_s = 1e306\n", "duration_s exceeds the ceiling of 1,000,000,000,000,000 ms"),
    ("[pseudonym]\nmax_lifetime_s = 1e306\n", "max_lifetime_s exceeds the ceiling"),
    ("[braking]\ntrigger_time_s = 1e306\n", "trigger_time_s exceeds the ceiling"),
    ("[pseudonym]\ncert_validity_s = 1e300\n", "cert_validity_s exceeds the ceiling"),
    ("[scenario]\nbeacon_interval_ms = 100000000000000000000\n",
     "beacon_interval_ms exceeds the ceiling"),
    ("[verification]\nqueue_capacity = 100000000000000000000\n",
     "queue_capacity exceeds the ceiling of 1,000,000,000"),
    ("[verification]\npending_capacity = 100000000000000000000\n",
     "pending_capacity exceeds the ceiling"),
    # a first contact costs two units, so a budget of one would stall the queue
    ("[verification]\nbudget_per_second = 1\n", "budget_per_second must be >= 2"),
])
def test_load_scenario_rejects(tmp_path, text, needle):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=needle):
        load_scenario(str(path))


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/scenario.ini")


def test_apply_override():
    config = _config()
    updated = apply_override(config, "duration_s", "20")
    assert updated.duration_s == 20.0
    assert config.duration_s == 10.0  # original untouched
    assert apply_override(config, "scenario.duration_s", "20") == updated

    with pytest.raises(ScenarioError, match="unknown scenario parameter"):
        apply_override(config, "sim.duration_s", "20")
    with pytest.raises(ScenarioError):
        apply_override(config, "vehicle_count", "several")
    with pytest.raises(ScenarioError, match="not a finite number"):
        apply_override(config, "duration_s", "inf")
    # an override only parses and replaces; the final configuration is validated
    late_warmup = apply_override(config, "warmup_s", "99")
    with pytest.raises(ScenarioError, match="warmup_s must lie inside the run"):
        late_warmup.validate()
    long_validity = apply_override(config, "pseudonym.cert_validity_s", "1e300")
    with pytest.raises(ScenarioError, match="cert_validity_s exceeds the ceiling"):
        long_validity.validate()


@pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)
                                  if f.name.endswith(("_ms", "_s", "_capacity"))])
def test_every_ceiling_rejects_a_value_past_it(name):
    if name.endswith("_capacity"):
        past = MAX_CAPACITY + 1
    elif name.endswith("_ms"):
        past = MAX_MS + 1
    else:
        past = MAX_MS / 1000 + 1
    with pytest.raises(ScenarioError, match=f"{name} exceeds the ceiling"):
        ScenarioConfig(**{name: past}).validate()


def test_values_at_the_ceilings_run():
    at_ceiling = _config(
        vehicle_count=3, duration_s=1.0, warmup_s=0.0, beacon_interval_ms=MAX_MS,
        freshness_window_ms=MAX_MS, neighbor_expiry_ms=MAX_MS,
        cert_validity_s=MAX_MS / 1000, max_lifetime_s=MAX_MS / 1000,
        braking_enabled=True, trigger_time_s=MAX_MS / 1000, reaction_delay_ms=MAX_MS,
        queue_capacity=MAX_CAPACITY, pending_capacity=MAX_CAPACITY,
    )
    at_ceiling.validate()
    metrics = run_scenario(at_ceiling)
    assert metrics.beacons_sent >= 1 and metrics.delivered >= 1
    late = _config(duration_s=1.0, warmup_s=0.0, propagation_delay_ms=MAX_MS)
    late.validate()
    assert run_scenario(late).delivered == 0  # every frame lands long stale


def test_run_ends_at_duration():
    """Nothing after ``duration_ms`` is handled: emissions stop strictly
    before it, and deliveries and brake starts past it never happen."""
    # phases 0, 1000, ..., 4000 ms: only the one at 0 falls inside a 1 s run
    sparse = run_scenario(_config(duration_s=1.0, warmup_s=0.0, beacon_interval_ms=5000))
    assert sparse.beacons_sent == 1
    late = run_scenario(_config(duration_s=1.0, warmup_s=0.0, propagation_delay_ms=10**15))
    assert late.beacons_sent > 0 and late.receptions == 0
    # warned followers would start braking at 32.102 s, after the end
    sim = HighwaySimulation(_braking(security_mode="unsecured", vehicle_count=5,
                                     duration_s=31.0, trigger_time_s=30.9))
    metrics = sim.run()
    assert sim.kin_time == 31_000
    # lead: 30 m/s until 30.9 s, then 0.1 s at -8 m/s^2; followers still cruise
    assert metrics.final_positions[0] == pytest.approx(30 * 31 - 0.5 * 8 * 0.1**2)
    assert metrics.final_positions[1:] == pytest.approx(
        [30 * 31 - 25.0 * k for k in range(1, 5)])
    assert metrics.final_speeds == pytest.approx([29.2, 30.0, 30.0, 30.0, 30.0])


def test_scenario_schema_covers_every_field_once(tmp_path):
    defaults = ScenarioConfig()
    keys_of: dict[str, list[tuple[str, str]]] = {}
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in keys.items():
            keys_of.setdefault(attr, []).append((section, key))
            lines.append(f"{key} = {getattr(defaults, attr)}")
    assert sorted(keys_of) == sorted(f.name for f in fields(ScenarioConfig))
    assert all(len(places) == 1 for places in keys_of.values())

    # every key in the file, mixed-case ones too, sets its field
    path = tmp_path / "defaults.ini"
    path.write_text("\n".join(lines) + "\n")
    assert load_scenario(str(path)) == defaults

    for attr, [(section, key)] in keys_of.items():
        assert parameter(f"{section}.{key}")[0] == attr
        assert parameter(key)[0] == attr
        assert parameter(attr)[0] == attr  # overrides may name the field itself
        raw = str(getattr(defaults, attr))
        assert apply_override(defaults, f"{section}.{key}", raw) == defaults
        assert apply_override(defaults, key, raw) == defaults


def test_repository_scenarios_parse():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("overhead.ini", "braking.ini", "saturation.ini", "smoke.ini"):
        config = load_scenario(os.path.join(here, "scenarios", name))
        config.validate()


# -- sweeps ------------------------------------------------------------------------


def test_grid_parse():
    grid = GridSpec.parse(["beacon_interval_ms=100,200", "seed=1,2,3"])
    assert grid.axes == (("beacon_interval_ms", ("100", "200")), ("seed", ("1", "2", "3")))
    assert grid.sweeps_seed
    combos = grid.combos()
    assert len(combos) == 6
    # first axis outermost
    assert combos[0] == {"beacon_interval_ms": "100", "seed": "1"}
    assert combos[3] == {"beacon_interval_ms": "200", "seed": "1"}

    for bad in (["novalue"], ["x="], ["=1"], [], ["no_such_field=1"],
                # two axes setting one field: the later would overwrite the earlier
                ["seed=1,2", "seed=3"], ["alpha=2", "beaconing.alpha=7,8"],
                ["scenario.seed=1", "seed=2"], ["enabled=true", "braking_enabled=false"]):
        with pytest.raises(ScenarioError):
            GridSpec.parse(bad)
    assert GridSpec.parse(["scenario.seed=4,5"]).sweeps_seed
    assert not GridSpec.parse(["scenario.duration_s=4,5"]).sweeps_seed


def test_expand_grid_names_and_seeds():
    base = _config(seed=12, security_mode="novc")
    grid = GridSpec.parse(["beacon_interval_ms=100,200"])
    configs = expand_grid(base, grid)
    assert [c.name for c in configs] == ["unit#0", "unit#1"]
    assert [c.seed for c in configs] == [12 ^ 0, 12 ^ 1]
    assert [c.beacon_interval_ms for c in configs] == [100, 200]

    seeded = expand_grid(base, GridSpec.parse(["seed=31,32"]))
    assert [c.seed for c in seeded] == [31, 32]  # grid seed wins, no XOR

    assert expand_grid(base, grid, base_seed=40)[1].seed == 41


def test_run_sweep_matches_individual_runs():
    base = _config(security_mode="unsecured", vehicle_count=3, duration_s=5.0,
                   warmup_s=1.0)
    grid = GridSpec.parse(["beacon_interval_ms=100,200"])
    swept = run_sweep(base, grid)
    singles = [run_scenario(config) for config in expand_grid(base, grid)]
    assert [m.csv_row() for m in swept] == [m.csv_row() for m in singles]


def test_process_pool_sweep_matches_serial():
    """Worker processes return the same metrics, in grid order, as one
    process running the grid point by point."""
    base = _repository_scenario("smoke.ini")
    grid = GridSpec.parse(["seed=1,2,3", "beacon_interval_ms=100,200"])
    serial = run_sweep(base, grid, jobs=1)
    assert [(m.config.seed, m.config.beacon_interval_ms) for m in serial] == [
        (seed, interval) for seed in (1, 2, 3) for interval in (100, 200)]
    assert run_sweep(base, grid, jobs=2) == serial


def test_sweep_starts_no_more_workers_than_runs(monkeypatch):
    """The pool starts every worker it may use at the first submit, so a sweep
    asks for at most one worker per run. No real process is started."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool, raising=False)
    base = _config(security_mode="novc", vehicle_count=3, duration_s=2.0, warmup_s=1.0)
    grid = GridSpec.parse(["beacon_interval_ms=100,200"])
    assert run_sweep(base, grid, jobs=64) == run_sweep(base, grid)
    assert asked == [2]


def test_grid_points_are_validated_whole():
    """A grid point is validated once all its values are set, so a warm-up
    that fits only the swept duration is accepted in either axis order."""
    base = _config(security_mode="novc")
    for axes in (["duration_s=1.5", "warmup_s=1"], ["warmup_s=1", "duration_s=1.5"]):
        [config] = expand_grid(base, GridSpec.parse(axes))
        assert (config.duration_s, config.warmup_s) == (1.5, 1.0)
    with pytest.raises(ScenarioError, match="warmup_s must lie inside the run"):
        expand_grid(base, GridSpec.parse(["duration_s=1.5,20", "warmup_s=1,12"]))


def test_invalid_grid_value_is_rejected():
    base = _config(security_mode="novc")
    with pytest.raises(ScenarioError):
        expand_grid(base, GridSpec.parse(["beacon_interval_ms=fast"]))


# -- CSV output --------------------------------------------------------------------


def test_write_csv_fixed_columns(tmp_path):
    metrics = run_scenario(_config(security_mode="unsecured", vehicle_count=3,
                                   duration_s=5.0, warmup_s=1.0))
    path = tmp_path / "out" / "metrics.csv"
    write_csv(str(path), [metrics])
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_COLUMNS
    assert rows[1] == metrics.csv_row()
    by_name = dict(zip(rows[0], rows[1]))
    assert by_name["p95_time_to_trust_ms"] == ""  # unsecured: no trust events
    assert by_name["crashes"] == "0"
    assert float(by_name["offered_load_Bps"]) > 0
    # atomic write leaves no temp files behind
    assert os.listdir(path.parent) == ["metrics.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)])
def test_write_csv_mode_follows_umask(tmp_path, monkeypatch, umask, mode):
    """The atomic write gives a new or overwritten file the mode a plain
    ``open`` of a new file would, without setting the process umask, which
    would hold for every thread while it was changed."""
    path = tmp_path / "metrics.csv"
    set_umask = os.umask
    previous = set_umask(umask)

    def untouchable(mask):
        raise AssertionError("write_csv changed the process umask")

    monkeypatch.setattr(os, "umask", untouchable)
    try:
        write_csv(str(path), [])
        assert path.stat().st_mode & 0o777 == mode
        write_csv(str(path), [])  # overwriting keeps it
        assert path.stat().st_mode & 0o777 == mode
    finally:
        set_umask(previous)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_write_csv_is_byte_identical_per_seed(tmp_path):
    config = _config(vehicle_count=3, duration_s=5.0, warmup_s=1.0)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(str(first), [run_scenario(config)])
    write_csv(str(second), [run_scenario(config)])
    assert first.read_bytes() == second.read_bytes()


# -- percentile ------------------------------------------------------------------


@pytest.mark.parametrize("values, q, expected", [
    ([7], 50, 7.0),
    ([7], 95, 7.0),
    # index 0.5 and 0.95 between 10 and 20
    ([10, 20], 50, 15.0),
    ([10, 20], 95, 19.5),
    # index 1.5: halfway from 2 to 4, fraction exactly 0.5
    ([8, 1, 4, 2], 50, 3.0),
    ([10**12, 10**12 + 1], 50, 1000000000000.5),
    # index 1.9 between the upper two
    ([10**12 + 3, 10**12 + 7, 10**12 + 11], 95, 1000000000010.6),
    # from the upper end: b - (b - a) * 0.05 rounds to ...817.5999, where
    # a + (b - a) * 0.95 would round to ...817.6
    ([841838110529, 1606133584517], 95, 1567918810817.5999),
])
def test_percentile_by_hand(values, q, expected):
    assert _percentile(sorted(values), q) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10**13), min_size=1, max_size=300),
       st.sampled_from([50, 95]))
def test_percentile_matches_numpy(values, q):
    np = pytest.importorskip("numpy")
    assert _percentile(sorted(values), q) == float(np.percentile(values, q))


def test_a_fast_run_loads_only_what_it_runs():
    """numpy (tests only), cryptography (P-224 and ECIES), the process pool
    (parallel sweeps), the hook framework and the self-tests with the gateway
    they check stay unloaded by importing the package and running
    ``smoke.ini``."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(here, "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + inherited if inherited else src)
    code = ("import sys, v2xsec, v2xsec.sim.engine, v2xsec.cli; "
            "v2xsec.cli.main(['run', '--scenario', sys.argv[1]]); "
            "heavy = ('numpy', 'cryptography', 'concurrent.futures.process', 'multiprocessing', "
            "'v2xsec.hooks', 'v2xsec.selftest', 'v2xsec.gateway'); "
            "print(sorted(m for m in sys.modules if m.startswith(heavy)))")
    result = subprocess.run(
        [sys.executable, "-c", code, os.path.join(here, "scenarios", "smoke.ini")],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.splitlines()[-1] == "[]"
