"""Discrete-event highway simulation of the secured beaconing stack.

A single-lane platoon beacons at a fixed interval under one of three modes:
no vehicular communication at all, unsecured beacons, or the full secured
stack (HSM, pseudonyms, certificate omission, budgeted verification). Each
emission is charged its wire length, as ``beaconing`` declares it, plus a
6-byte source link address; nothing is encoded. Each heard beacon goes
straight into the receiver's ``BeaconSecurity`` (secured) or the application
(unsecured). A receiver's security layer owns all of its per-neighbor state,
including time to trust, which the run collects from every layer when it ends.

Determinism: one virtual clock drives every component and all randomness
comes from named streams derived from the scenario seed. Two runs of the
same scenario and seed produce identical metrics.

Order within one millisecond, a contract: events run by (time, kind,
vehicle id), kinds as numbered below, ids ascending (-1 for the run-wide
tick, verify and end; the sender for a delivery). No two events share that
key: tick, verify and end are each one chain; a vehicle emits at most once
per millisecond and its deliveries follow a fixed delay later; ``warned``
lets a follower brake once, and no beacon or hazard lies ahead of the
leader, whose only brake is the scripted one. A tie would make the heap
compare payloads: two ``None`` are equal and harmless, two deliveries of
different beacons raise ``TypeError``, so a broken contract fails loudly.

Mobility is piecewise constant-acceleration. Crashes are resolved exactly:
within each advance segment the earliest gap crossing is computed
analytically (quadratic roots, including stop clamping), the world is rolled
to that instant, the colliding pair is frozen, and the remainder of the
segment continues. Crash detection therefore does not depend on the tick
size.

The no-communication mode uses a sight model: drivers only react to a
visible hazard ahead (the scripted emergency braker, a crashed vehicle, or a
fully stopped vehicle) within the sight threshold. Ordinary braking of the
car in front is not independently visible; that information arrives, if at
all, over the beacon channel. All modes keep the sight fallback, and any
vehicle that starts emergency braking sets a sticky flag byte in its own
beacons so warnings relay down the platoon.
"""

from __future__ import annotations

import hashlib
import math
from heapq import heappop, heappush
from random import Random

from ..beaconing import (
    EMERGENCY_BRAKE_FLAG,
    Beacon,
    BeaconSecurity,
    OmissionStrategy,
    OmissionVariant,
    PLAIN_BEACON_LEN,
    SECURED_BEACON_LEN,
    SECURED_BEACON_WITH_CERT_LEN,
    SecuredBeacon,
)
from ..clocks import VirtualClock
from ..hsm import Hsm
from ..identity import CertificateAuthority, IdentityManager, PseudonymChangePolicy
from ..suites import VerdictMemo, get_suite
from .metrics import CrashEvent, EmissionRecord, RunMetrics
from .scenario import ScenarioConfig

# Event kinds in their order at one time: mobility, brake onsets, emissions,
# deliveries, verification work, and the end of the run.
_K_TICK = 0
_K_BRAKE = 1
_K_EMIT = 2
_K_DELIVER = 3
_K_VERIFY = 4
_K_END = 5

_VERIFY_TICK_MS = 100

# Each frame on the channel starts with the sender's link-layer address.
LINK_ADDR_LEN = 6

# Beacon payloads at their fixed wire width, so no emission pads them again.
_PLAIN_PAYLOAD = bytes(8)
_BRAKE_PAYLOAD = bytes([EMERGENCY_BRAKE_FLAG]).ljust(8, b"\x00")


def stream_rng(seed: int, stream: str) -> Random:
    """Named deterministic substream of the scenario seed."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return Random(int.from_bytes(digest[:8], "big"))


class _Node:
    """One vehicle of a secured run: its security layer, which owns every
    per-neighbor state (neighbor table, queue, trust and its timing)."""

    __slots__ = ("bsec",)

    def __init__(self, bsec: BeaconSecurity) -> None:
        self.bsec = bsec


class HighwaySimulation:
    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        self.clock = VirtualClock(0)
        # Config values read on every event, derived once.
        self.duration_ms = config.duration_ms
        self.warmup_ms = config.warmup_ms
        self.secured = config.security_mode == "secured"
        self._app = self._app_on_beacon if config.braking_enabled else None
        # every beacon reaches several receivers: verify each signature once while it is fresh
        self.suite = VerdictMemo(get_suite(config.crypto))
        self.metrics = RunMetrics(config)
        if config.record_trace:
            self.metrics.trace = []

        n = config.vehicle_count
        self.n = n
        # vehicle 0 leads; each vehicle follows the one with the next lower id
        self.x = [-float(i) * config.initial_headway_m for i in range(n)]
        self.v = [float(config.initial_speed_mps)] * n
        self.a = [0.0] * n
        self.kin_time = 0.0  # float ms so crash instants commit exactly

        self.crashed = [False] * n
        self.emergency = [False] * n  # sticky: beacons carry the brake flag
        self.warned = [False] * n

        # pair l is leader l and its follower l + 1; done once they collide
        self.pair_done = [False] * (n - 1)

        # channel state
        self.loss_p = [config.base_loss] * n
        self.tx_bytes_window = [0.0] * n
        self.channel_rng = stream_rng(config.seed, "channel")
        self.in_range: list[list[int]] = [[] for _ in range(n)]
        self.total_tx_bytes = 0
        self._radio_stale = True

        # One event queue of (time, kind, vid, payload); no two entries share
        # (time, kind, vid), as the module docstring sets out.
        self._heap: list[tuple[int, int, int, object]] = []

        self.nodes: list[_Node] = []
        self._security_layers: list[BeaconSecurity] = []
        if self.secured:
            self._build_secured_nodes()

        self._schedule_initial_events()

    # -- construction ----------------------------------------------------------

    def _build_secured_nodes(self) -> None:
        config = self.config
        ca = CertificateAuthority(1, suite=self.suite, rng=stream_rng(config.seed, "ca"))
        strategy = OmissionStrategy(OmissionVariant(config.strategy),
                                    alpha=config.alpha, beta=config.beta)
        policy = PseudonymChangePolicy(
            min_lifetime_ms=round(config.min_lifetime_s * 1000),
            max_lifetime_ms=round(config.max_lifetime_s * 1000),
            max_beacons=config.max_beacons,
        )
        validity_ms = round(config.cert_validity_s * 1000)
        for vid in range(self.n):
            rng = stream_rng(config.seed, f"vehicle:{vid}")
            hsm = Hsm(clock=self.clock, suite=self.suite, rng=rng)
            hsm.install_factory_root(ca.public_key)
            identity = IdentityManager(hsm, rng=rng, policy=policy)
            identity.provision(ca, config.pool_size, validity_ms)
            bsec = BeaconSecurity(
                identity,
                strategy,
                deliver=self._make_deliver(vid),
                neighbor_expiry_ms=config.neighbor_expiry_ms,
                budget_per_second=config.budget_per_second,
                queue_capacity=config.queue_capacity,
                pending_capacity=config.pending_capacity,
                freshness_window_ms=config.freshness_window_ms,
            )
            self.nodes.append(_Node(bsec))
            identity.activate_next(0)
        self._security_layers = [n.bsec for n in self.nodes]

    def _make_deliver(self, vid: int):
        """Vehicle ``vid``'s application callback; None without one."""
        app = self._app
        if app is None:
            return None

        def deliver(sb: SecuredBeacon, now: int) -> None:
            app(vid, sb.beacon, now)

        return deliver

    def _schedule_initial_events(self) -> None:
        # Periodic events each schedule their successor, so the heap holds
        # about one entry per vehicle plus the deliveries in flight. The run
        # stops at the end event, so nothing after ``duration_ms`` is handled;
        # emissions stop strictly before it.
        config = self.config
        duration = self.duration_ms
        self._push(duration, _K_END, -1, None)
        self._push(config.mobility_tick_ms, _K_TICK, -1, None)
        if config.security_mode != "novc":
            interval = config.beacon_interval_ms
            for vid in range(self.n):
                phase = (vid * interval) // self.n
                if phase < duration:
                    self._push(phase, _K_EMIT, vid, None)
            if self.secured:
                self._push(_VERIFY_TICK_MS, _K_VERIFY, -1, None)
        if config.braking_enabled:
            self._push(round(config.trigger_time_s * 1000), _K_BRAKE, 0, None)
        self._rebuild_radio()

    # -- event machinery -----------------------------------------------------------

    def _push(self, time_ms: int, kind: int, vid: int, payload: object) -> None:
        heappush(self._heap, (time_ms, kind, vid, payload))

    def run(self) -> RunMetrics:
        heap = self._heap
        while True:
            time_ms, kind, vid, payload = heappop(heap)
            if kind == _K_DELIVER:
                self._handle_delivery(payload, time_ms)
            elif kind == _K_EMIT:
                self._handle_emit(vid, time_ms)
            elif kind == _K_VERIFY:
                self._handle_verify(time_ms)
            elif kind == _K_TICK:
                self._handle_tick(time_ms)
            elif kind == _K_BRAKE:
                self._handle_brake(vid, time_ms)
            else:
                break
        self._advance_to(self.duration_ms)
        self._finalize()
        return self.metrics

    # -- handlers ---------------------------------------------------------------

    def _handle_tick(self, now: int) -> None:
        self._push(now + self.config.mobility_tick_ms, _K_TICK, -1, None)
        self._advance_to(now)
        if self.config.braking_enabled:
            self._sight_check(now)
        if now % 1000 == 0:
            self._roll_channel_window()
            self._sample_queues()
        # Relative geometry only changes while someone accelerates or moves at
        # a different speed; a steady platoon keeps its radio ranges, so skip
        # the O(n^2) rebuild then. The flag asks for one more rebuild after
        # motion ends (or after a crash) to capture the final positions.
        v = self.v
        v0 = v[0]
        moving = any(vi != v0 for vi in v) or (
            any(self.a) and any(vi > 0 for vi in v)
        )
        if moving or self._radio_stale:
            self._rebuild_radio()
        self._radio_stale = moving

    def _handle_emit(self, vid: int, now: int) -> None:
        if self.crashed[vid]:
            return
        config = self.config
        beacon = Beacon(
            x=self.x[vid],
            y=0.0,
            velocity=self.v[vid],
            heading=0.0,
            generation_time=now,
            payload=_BRAKE_PAYLOAD if self.emergency[vid] else _PLAIN_PAYLOAD,
        )
        if self.secured:
            # The HSMs read this clock only to timestamp signatures.
            self.clock.set(now)
            sent = self._security_layers[vid].make_beacon(beacon, now)
            with_cert = sent.certificate is not None
            wire_len = SECURED_BEACON_WITH_CERT_LEN if with_cert else SECURED_BEACON_LEN
        else:
            sent = beacon
            with_cert = False
            wire_len = PLAIN_BEACON_LEN
        # the frame is the source link address followed by the beacon's wire bytes
        frame_len = LINK_ADDR_LEN + wire_len
        self.total_tx_bytes += frame_len
        self.tx_bytes_window[vid] += frame_len
        metrics = self.metrics
        metrics.beacons_sent += 1
        if now >= self.warmup_ms:
            metrics.beacons_sent_post_warmup += 1
            if with_cert:
                metrics.certs_post_warmup += 1
        if metrics.trace is not None:
            metrics.trace.append(EmissionRecord(now, vid, with_cert, frame_len))
        receivers = self.in_range[vid]
        if receivers:
            heappush(self._heap, (now + config.propagation_delay_ms, _K_DELIVER, vid,
                                  (sent, receivers)))
        next_t = now + config.beacon_interval_ms
        if next_t < self.duration_ms:
            self._push(next_t, _K_EMIT, vid, None)

    def _handle_delivery(self, payload: object, now: int) -> None:
        # the decoded beacon as sent: a SecuredBeacon if secured, else a Beacon
        sent, receivers = payload  # type: ignore[misc]
        crashed = self.crashed
        loss_p = self.loss_p
        rng_random = self.channel_rng.random
        secured = self.secured
        layers = self._security_layers
        app = self._app
        # One channel draw per live receiver, in receiver order. A secured
        # receiver's security layer delivers to the application only once the
        # beacon verifies; an unsecured receiver delivers at once.
        silent = 0
        losses = 0
        for r in receivers:
            if crashed[r]:
                silent += 1
            elif rng_random() < loss_p[r]:
                losses += 1
            elif secured:
                layers[r].on_receive(sent, now)
            elif app is not None:
                app(r, sent, now)
        heard = len(receivers) - silent - losses
        metrics = self.metrics
        metrics.channel_losses += losses
        metrics.receptions += heard
        if not secured:
            metrics.delivered += heard

    def _handle_verify(self, now: int) -> None:
        self._push(now + _VERIFY_TICK_MS, _K_VERIFY, -1, None)
        maintain = now % 1000 == 0
        for bsec in self._security_layers:
            bsec.verification_step(now)
            if maintain:
                bsec.neighbor_maintenance(now)

    def _handle_brake(self, vid: int, now: int) -> None:
        self._advance_to(now)
        if self.crashed[vid]:
            return
        self.a[vid] = -(self.config.lead_decel_mps2 if vid == 0 else self.config.brake_decel_mps2)
        self.emergency[vid] = True

    # -- application logic -----------------------------------------------------------

    def _app_on_beacon(self, vid: int, beacon: Beacon, now: int) -> None:
        """React to an emergency-brake flag ahead (braking scenarios only)."""
        if not (beacon.payload[0] & EMERGENCY_BRAKE_FLAG):
            return
        if beacon.x <= self.x[vid]:
            return
        self._warn(vid, now)

    def _warn(self, vid: int, now: int) -> None:
        if self.warned[vid] or self.crashed[vid]:
            return
        self.warned[vid] = True
        self._push(now + self.config.reaction_delay_ms, _K_BRAKE, vid, None)

    def _sight_check(self, now: int) -> None:
        sight = self.config.sight_threshold_m
        x = self.x
        v = self.v
        hazard_x: float | None = None
        for vid in range(self.n):  # front to back
            if hazard_x is not None and not self.warned[vid] and not self.crashed[vid]:
                if hazard_x - x[vid] <= sight:
                    self._warn(vid, now)
            if (
                self.crashed[vid]
                or (self.emergency[vid] and (vid == 0 or v[vid] <= 0.01))
            ):
                hazard_x = x[vid]

    # -- channel and radio ------------------------------------------------------------

    def _rebuild_radio(self) -> None:
        """Each live vehicle's live neighbours in radio range, in id order."""
        x = self.x
        crashed = self.crashed
        r = self.config.tx_range_m
        range_sq = r * r  # inf past about 1.3e154, where r**2 overflows
        in_range: list[list[int]] = [[] for _ in range(self.n)]
        for i, xi in enumerate(x):
            if crashed[i]:
                continue
            heard_by_i = in_range[i]
            for j in range(i + 1, self.n):
                dx = xi - x[j]
                if dx * dx <= range_sq and not crashed[j]:
                    heard_by_i.append(j)
                    in_range[j].append(i)
        self.in_range = in_range

    def _roll_channel_window(self) -> None:
        config = self.config
        window = self.tx_bytes_window
        # Own transmissions occupy the medium too. The byte counts are whole
        # numbers, so the sum is exact in any order. A crashed vehicle never
        # receives, so its entry is never read.
        loss_p = []
        for vid, neighbors in enumerate(self.in_range):
            load = (window[vid] + sum([window[j] for j in neighbors])) / config.capacity_Bps
            loss = config.base_loss + config.load_coefficient * load
            loss_p.append(min(max(loss, 0.0), 1.0))
        self.loss_p = loss_p
        self.tx_bytes_window = [0.0] * self.n

    def _sample_queues(self) -> None:
        depths = [bsec.queue_depth for bsec in self._security_layers]
        if depths:
            self.metrics.queue_depth_by_second.append(
                (float(sum(depths)) / len(depths), max(depths))
            )

    # -- mobility -----------------------------------------------------------------------

    def _advance_to(self, t_ms: int) -> None:
        target = float(t_ms)
        while self.kin_time < target - 1e-9:
            dt = (target - self.kin_time) / 1000.0
            crossed = self._advance_segment(dt)
            if crossed is None:
                self.kin_time = target
            else:
                self.kin_time += crossed * 1000.0

    def _advance_segment(self, dt: float) -> float | None:
        """Advance everyone by up to ``dt`` seconds.

        If a pair collides inside the segment, the world is committed at the
        exact collision instant instead, the pair is frozen there, and the
        seconds consumed are returned so the caller can continue the rest of
        the segment with the updated dynamics.
        """
        x0 = self.x
        v0 = self.v
        a = self.a
        earliest: tuple[float, int] | None = None
        for l in self._closing_pairs(dt):
            f = l + 1
            tau = _pair_crossing(
                x0[f], v0[f], a[f], x0[l], v0[l], a[l], dt
            )
            if tau is not None and (earliest is None or tau < earliest[0]):
                earliest = (tau, l)
        if earliest is None:
            self.x, self.v = _kin_step(x0, v0, a, dt)
            return None
        tau, l = earliest
        self.x, self.v = _kin_step(x0, v0, a, tau)
        f = l + 1
        self.pair_done[l] = True
        crash_pos = self.x[l]
        self.x[f] = crash_pos
        self.v[f] = 0.0
        self.v[l] = 0.0
        self.a[f] = 0.0
        self.a[l] = 0.0
        self.crashed[f] = True
        self.crashed[l] = True
        self.emergency[f] = True
        self.emergency[l] = True
        self._radio_stale = True
        self.metrics.crash_events.append(
            CrashEvent(time_ms=round(self.kin_time + tau * 1000.0), follower=f, leader=l)
        )
        # progress is guaranteed even for tau == 0 because the pair is done now
        return tau

    def _closing_pairs(self, dt: float) -> list[int]:
        """Leaders of open pairs that may touch within ``dt`` seconds.

        A pair is kept if it is already in contact, or if closing at the
        worst relative speed the segment allows would still reach the
        leader; ``_pair_crossing`` solves only the pairs kept here.
        """
        x = self.x
        v = self.v
        a = self.a
        kept = []
        for l, done in enumerate(self.pair_done):
            if done:
                continue
            f = l + 1
            gap = x[l] - x[f]
            vf = v[f]
            af = a[f]
            vf_max = max(vf, vf + af * dt) if af > 0 else vf
            vl = v[l]
            vl_min = min(vl, max(vl + a[l] * dt, 0.0))
            if gap <= _CONTACT_EPS or not gap + (vl_min - vf_max) * dt > 0.0:
                kept.append(l)
        return kept

    # -- finish -------------------------------------------------------------------------

    def _finalize(self) -> None:
        metrics = self.metrics
        metrics.offered_load_Bps = self.total_tx_bytes / self.config.duration_s
        metrics.final_positions = list(self.x)
        metrics.final_speeds = list(self.v)
        for bsec in self._security_layers:
            metrics.delivered += bsec.delivered_count
            metrics.evicted_jobs += bsec.evicted_jobs
            metrics.pending_dropped += bsec.pending_dropped
            metrics.verification_units += bsec.units_used
            metrics.units_by_vehicle_second.append(dict(bsec.units_by_second))
            metrics.time_to_trust_ms.extend(bsec.time_to_trust_ms)
            for reason, count in bsec.discards.items():
                metrics.discards[reason] = metrics.discards.get(reason, 0) + count
        metrics.finalize()


def _kin_step(x: list[float], v: list[float], a: list[float],
              dt: float) -> tuple[list[float], list[float]]:
    """Every vehicle's position and speed after ``dt`` seconds."""
    states = [_state_at(xi, vi, ai, dt) for xi, vi, ai in zip(x, v, a)]
    x_new, v_new, _ = map(list, zip(*states))
    return x_new, v_new


# Gaps within a nanometer of zero count as contact; well below any physical
# scale in the model but above accumulated float rounding at tick boundaries.
_CONTACT_EPS = 1e-9


def _stop_time(v: float, a: float) -> float:
    if a < 0:
        return v / -a if v > 0 else 0.0
    return math.inf


def _state_at(x0: float, v0: float, a0: float, t: float) -> tuple[float, float, float]:
    """Position, speed and effective acceleration after ``t`` seconds of
    constant acceleration with a stop clamp (no reversing)."""
    ts = _stop_time(v0, a0)
    te = t if t < ts else ts
    x = x0 + v0 * te + 0.5 * a0 * te * te
    # zero first, so a sum of -0.0 settles at 0.0
    v = max(0.0, v0 + a0 * te)
    a_eff = a0 if t < ts else 0.0
    return x, v, a_eff


def _earliest_root(c: float, b: float, q: float, seg: float) -> float | None:
    """Earliest tau in (0, seg] with q*tau^2 + b*tau + c == 0, given c > 0."""
    if q == 0.0:
        if b >= 0.0:
            return None
        tau = -c / b
        return tau if tau <= seg else None
    disc = b * b - 4.0 * q * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    r1 = (-b - sq) / (2.0 * q)
    r2 = (-b + sq) / (2.0 * q)
    if r1 > r2:
        r1, r2 = r2, r1
    for root in (r1, r2):
        if 1e-12 < root <= seg:
            return root
    return None


def _pair_crossing(xf: float, vf: float, af: float, xl: float, vl: float,
                   al: float, dt: float) -> float | None:
    """Earliest time in [0, dt] at which the follower reaches the leader.

    Piecewise quadratic: each vehicle's deceleration clamps to zero speed at
    its stop time, which splits the segment into intervals of constant
    relative acceleration.
    """
    gap_now = xl - xf
    if gap_now <= _CONTACT_EPS:
        # A crossing exactly on a segment boundary can round to a root just
        # past the segment end and go uncommitted; the pair then starts the
        # next segment already touching (gap within float noise of zero).
        # Resolve it now (tau = 0 is safe: the pair is marked done, so it is
        # never counted twice).
        return 0.0
    breakpoints = {0.0, dt}
    ts_f = _stop_time(vf, af)
    if 0.0 < ts_f < dt:
        breakpoints.add(ts_f)
    ts_l = _stop_time(vl, al)
    if 0.0 < ts_l < dt:
        breakpoints.add(ts_l)
    ordered = sorted(breakpoints)
    for start, end in zip(ordered, ordered[1:]):
        seg = end - start
        xf0, vf0, af0 = _state_at(xf, vf, af, start)
        xl0, vl0, al0 = _state_at(xl, vl, al, start)
        gap0 = xl0 - xf0
        if gap0 <= _CONTACT_EPS:
            return start if start > 0.0 else None
        tau = _earliest_root(gap0, vl0 - vf0, 0.5 * (al0 - af0), seg)
        if tau is not None:
            return start + tau
    return None


def run_scenario(config: ScenarioConfig) -> RunMetrics:
    """Build, run and summarize one scenario."""
    return HighwaySimulation(config).run()
