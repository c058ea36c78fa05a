"""Independent reference implementations used as test oracles.

Everything here is deliberately written straight-line, without reusing the
package's own dispatch/decision code, so a bug in the implementation cannot
hide inside its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass


# -- hook dispatch reference ---------------------------------------------------------

DROPPED = object()


def dispatch_reference(handlers, message, direction, max_reinserts=4):
    """Flat re-statement of the chain semantics for one interception point.

    ``handlers`` is a list of (priority, seq, matcher, fn) in registration
    order. Returns the surviving message, or DROPPED.

    Rules restated from scratch: sort by (priority, seq); run each matching
    handler in order; "pass" keeps the current message, "modified" replaces it
    and continues, "drop" ends everything, "reinsert" starts the chain over
    (re-matching against the possibly replaced message) and is allowed at most
    ``max_reinserts`` times per dispatch, after which the message is dropped.
    A handler that raises drops the message.
    """
    ordered = sorted(handlers, key=lambda h: (h[0], h[1]))
    current = message
    reinserts = 0
    while True:
        restarted = False
        for _, _, matcher, fn in ordered:
            if not matcher(current, direction):
                continue
            try:
                verdict, replacement = fn(current, direction)
            except Exception:
                return DROPPED
            if verdict == "pass":
                continue
            if verdict == "modified":
                current = replacement
                continue
            if verdict == "drop":
                return DROPPED
            if verdict == "reinsert":
                reinserts += 1
                if reinserts > max_reinserts:
                    return DROPPED
                if replacement is not None:
                    current = replacement
                restarted = True
                break
            raise AssertionError(f"oracle got unknown verdict {verdict!r}")
        if not restarted:
            return current


# -- certificate attachment reference --------------------------------------------------


def attach_trace_reference(variant, alpha, beta, events):
    """Replays a scripted beacon/change/neighbor trace and returns the
    expected attach decision for every sent beacon.

    ``events`` is a sequence of ("change",), ("neighbor",) and ("send",)
    tuples. State rebuilt from scratch: a running count of beacons sent, a
    beta countdown armed by every pseudonym change, and a flag set by any new
    neighbor since the last own send.
    """
    sent = 0
    beta_left = 0
    fresh_neighbor = False
    out = []
    for event in events:
        kind = event[0]
        if kind == "change":
            beta_left = beta
        elif kind == "neighbor":
            fresh_neighbor = True
        elif kind == "send":
            if beta_left > 0:
                attach = True
            elif variant == "always":
                attach = True
            elif variant == "periodic":
                attach = sent % alpha == 0
            else:
                attach = fresh_neighbor
            out.append(attach)
            sent += 1
            if beta_left > 0:
                beta_left -= 1
            fresh_neighbor = False
        else:
            raise AssertionError(f"oracle got unknown event {kind!r}")
    return out


# -- braking kinematics reference -------------------------------------------------------


@dataclass
class VehicleState:
    x: float
    v: float
    a: float


def crash_times_reference(vehicles, duration_s, dt=1e-4):
    """Brute-force integrator: step every vehicle at ``dt`` and report the
    first gap closure per adjacent pair as (follower_index, time_s).

    ``vehicles`` is a front-to-back list of dicts with initial x/v and a
    braking schedule ``(start_time_s, decel)`` or None. Crashed pairs freeze
    at the leader's position. This is O(duration/dt) and independent of the
    engine's closed-form root solving; agreement within a few ms validates
    the analytic path.
    """
    states = [VehicleState(v["x"], v["v"], 0.0) for v in vehicles]
    schedules = [v.get("brake") for v in vehicles]
    frozen = [False] * len(states)
    crashes = []
    crashed_pairs = set()
    steps = int(round(duration_s / dt))
    for step in range(steps):
        t = step * dt
        for i, sched in enumerate(schedules):
            if sched is not None and not frozen[i] and t >= sched[0]:
                states[i].a = -sched[1]
        for s, done in zip(states, frozen):
            if done:
                continue
            if s.v > 0:
                s.v = max(0.0, s.v + s.a * dt)
                s.x += s.v * dt  # semi-implicit Euler, stable for braking
        for i in range(1, len(states)):
            if (i - 1, i) in crashed_pairs:
                continue
            if states[i].x >= states[i - 1].x:
                crashed_pairs.add((i - 1, i))
                crashes.append((i, t))
                states[i].x = states[i - 1].x
                for j in (i - 1, i):
                    states[j].v = 0.0
                    states[j].a = 0.0
                    frozen[j] = True
    return crashes


# -- emission trace audit ----------------------------------------------------------------


def audit_certificate_fraction(trace, warmup_ms):
    """Recompute the certificate fraction from the raw emission trace.

    Deliberately independent of the engine's running counters: it sees only
    the per-emission records. Exactly zero emissions after warm-up yields 0.0,
    matching the reported metric.
    """
    total = 0
    with_cert = 0
    for record in trace:
        if record.time_ms >= warmup_ms:
            total += 1
            if record.with_certificate:
                with_cert += 1
    if total == 0:
        return 0.0
    return with_cert / total


def audit_offered_load(trace, duration_s):
    """Recompute offered channel load (bytes/s) from the emission trace."""
    return sum(record.frame_len for record in trace) / duration_s


# -- budget window reference -------------------------------------------------------------


def budget_available_reference(spends, now, max_per_second):
    """Units available at ``now`` given past (time, units) spends.

    A spend at time t counts against every instant in [t, t + 1000); i.e. it
    is restored exactly 1000 ms later.
    """
    in_window = sum(units for t, units in spends if t > now - 1000)
    return max_per_second - in_window


# -- beacon receiver reference ------------------------------------------------------------


def receiver_reference(schedule, senders, *, queue_capacity, pending_capacity,
                       budget_per_second, freshness_window_ms, expiry_ms):
    """Replays a reception schedule on a plain model of the beacon receiver
    and returns everything the receiver reports.

    ``senders[s]`` describes sender ``s``'s own certificate: ``trusted``
    (issued by the authority the receiver trusts) and ``validity_end`` (its
    validity starts at 0). ``schedule`` is a time-ordered list of events:

    * ``("rx", now, beacon, s, generation_time, attached, sig_good,
      bind_good)``: beacon number ``beacon`` claims sender ``s``'s pseudonym
      id and may carry a certificate (``attached``). With ``bind_good`` it is
      ``s``'s own: ``s``'s certificate, signed with ``s``'s key. Without, an
      impostor sent it: the certificate it carries is a trusted, valid one
      that names another pseudonym, and it is signed with that certificate's
      key. ``sig_good`` says whether the signature is right for the key that
      made it.
    * ``("tick", now)``: spend the available budget on the queue.
    * ``("sweep", now)``: expire silent neighbours.

    The rules, restated from the receiver's documentation:

    * A beacon generated more than the freshness window before or after
      ``now`` is stale: on arrival it is discarded, at dequeue it is
      discarded and still charged its units (after a first contact's
      certificate check, below).
    * Every fresh arrival creates or refreshes the neighbour entry of the id
      it claims; the last-heard time never goes backwards.
    * A trusted entry's beacon is discarded on arrival if its certificate has
      expired (``now`` past its end), else queued as a 1-unit job. An
      untrusted entry's beacon with a certificate is queued as a 2-unit first
      contact. One without waits in the entry's pending buffer, which keeps
      the newest ``pending_capacity``; the oldest is dropped.
    * The queue holds ``queue_capacity`` jobs and drops the oldest when full.
      It drains right after a beacon is queued and on every tick.
    * The budget is ``budget_per_second`` minus the units spent in the last
      second (a spend at t counts until t + 1000). Jobs run oldest first
      while units are left; a first contact at the head with one unit left
      waits, and so does everything behind it.
    * A 1-unit job past its certificate's end is ``expired_certificate``;
      otherwise its signature decides between delivery and
      ``bad_signature`` (an impostor's signature never checks under the
      sender's key).
    * A first contact's certificate is checked first, stale or not. One
      that is untrusted, outside its validity or names another id is
      ``bad_certificate`` and costs 1 unit. Otherwise it costs 2, and the
      entry, if it is still in the table, becomes trusted until the
      certificate's end; the first time, the ms since the entry's first
      beacon are a time-to-trust sample. Its pending beacons are then queued
      behind it as 1-unit jobs, except the stale ones, which are discarded.
      The job itself then goes on as a 1-unit job would: stale, expired or
      its signature decides.
    * A sweep drops every entry silent for strictly longer than
      ``expiry_ms``, and the beacons it was holding with it.
    """
    counts = {"received": 0, "delivered": 0, "evicted": 0, "pending_dropped": 0}
    discards = {}
    delivered = []
    time_to_trust = []
    units_by_second = {}
    spends = []  # (time, units)
    queue = []  # jobs, oldest first
    table = {}  # sender -> {"first", "last", "trusted_until" (None: untrusted), "held"}

    def discard(reason):
        discards[reason] = discards.get(reason, 0) + 1

    def stale(rx, now):
        return abs(now - rx["generation_time"]) > freshness_window_ms

    def enqueue(job):
        if len(queue) == queue_capacity:
            queue.pop(0)
            counts["evicted"] += 1
        queue.append(job)

    def deliver(rx, now):
        counts["delivered"] += 1
        delivered.append((rx["beacon"], now))

    def drain(now):
        left = budget_per_second - sum(u for t, u in spends if t > now - 1000)
        spent = 0
        while queue and left > 0:
            rx, first_contact, trusted_until = queue[0]
            cost = 2 if first_contact else 1
            if cost > left:
                break
            queue.pop(0)
            if first_contact:
                own = senders[rx["sender"]]
                if not (rx["bind_good"] and own["trusted"] and now <= own["validity_end"]):
                    discard("bad_certificate")
                    left -= 1
                    spent += 1
                    continue
                trusted_until = own["validity_end"]
                entry = table.get(rx["sender"])
                if entry is not None:
                    if entry["trusted_until"] is None:
                        time_to_trust.append(now - entry["first"])
                    entry["trusted_until"] = trusted_until
                    held, entry["held"] = entry["held"], []
                    for waiting in held:
                        if stale(waiting, now):
                            discard("stale")
                        else:
                            enqueue((waiting, False, trusted_until))
            if stale(rx, now):
                discard("stale")
            elif now > trusted_until:
                discard("expired_certificate")
            elif rx["sig_good"] and rx["bind_good"]:
                deliver(rx, now)
            else:
                discard("bad_signature")
            left -= cost
            spent += cost
        if spent:
            spends.append((now, spent))
            units_by_second[now // 1000] = units_by_second.get(now // 1000, 0) + spent

    for event in schedule:
        kind, now = event[0], event[1]
        if kind == "tick":
            drain(now)
        elif kind == "sweep":
            for sender in [s for s, e in table.items() if e["last"] < now - expiry_ms]:
                counts["pending_dropped"] += len(table.pop(sender)["held"])
        elif kind == "rx":
            _, _, beacon, sender, generation_time, attached, sig_good, bind_good = event
            rx = {"beacon": beacon, "sender": sender, "generation_time": generation_time,
                  "sig_good": sig_good, "bind_good": bind_good}
            counts["received"] += 1
            if stale(rx, now):
                discard("stale")
                continue
            entry = table.get(sender)
            if entry is None:
                entry = table[sender] = {"first": now, "last": now, "trusted_until": None,
                                         "held": []}
            entry["last"] = max(entry["last"], now)
            if entry["trusted_until"] is not None:
                if now > entry["trusted_until"]:
                    discard("expired_certificate")
                    continue
                enqueue((rx, False, entry["trusted_until"]))
            elif attached:
                enqueue((rx, True, None))
            else:
                entry["held"].append(rx)
                if len(entry["held"]) > pending_capacity:
                    entry["held"].pop(0)
                    counts["pending_dropped"] += 1
                continue
            drain(now)
        else:
            raise AssertionError(f"oracle got unknown event {kind!r}")

    return {
        "delivered": delivered,
        "received": counts["received"],
        "delivered_count": counts["delivered"],
        "discards": discards,
        "evicted": counts["evicted"],
        "pending_dropped": counts["pending_dropped"],
        "queued": len(queue),
        "pending": sum(len(e["held"]) for e in table.values()),
        "neighbors": len(table),
        "units_by_second": units_by_second,
        "time_to_trust": time_to_trust,
    }


def pkcs7_ecies_length(plaintext_len, point_len=57, iv_len=16, tag_len=20, block=16):
    """Envelope size: ephemeral point, IV, padded CBC body, MAC tag.

    PKCS#7 always pads, so the body is the next multiple of the block size
    strictly greater than the plaintext length.
    """
    body = (plaintext_len // block + 1) * block
    return point_len + iv_len + body + tag_len
