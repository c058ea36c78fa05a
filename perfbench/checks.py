"""Output checks for the benchmark's workloads.

Every check states a property the method must have, or recomputes a value
apart from the program; none compares against a stored copy of earlier
output. Each returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import math

# Wire sizes from the protocol description: a 6-byte link header, a 119-byte
# signed beacon and, when attached, a 142-byte compact certificate.
LINK_HEADER_LEN = 6
SECURED_BEACON_LEN = 119
CERTIFICATE_LEN = 142

# Discard reasons that mean a genuine beacon failed authentication. Every
# beacon in these workloads is genuine, so each one is a failed operation.
FAILURE_REASONS = ("bad_signature", "bad_certificate")


def counters(sim, metrics) -> dict:
    """The run's outcome as plain values: the CSV row, every counter of the
    reception funnel summed over vehicles, and each vehicle's beacons sent."""
    layers = [node.bsec for node in sim.nodes if node.bsec is not None]
    return {
        "csv_row": metrics.csv_row(),
        "emissions": metrics.beacons_sent,
        "receptions": metrics.receptions,
        "channel_losses": metrics.channel_losses,
        "delivered": metrics.delivered,
        "evicted": metrics.evicted_jobs,
        "pending_dropped": metrics.pending_dropped,
        "discards": dict(sorted(metrics.discards.items())),
        "queued_at_end": sum(b.queue_depth for b in layers),
        "pending_at_end": sum(b.pending_count for b in layers),
        "verification_units": metrics.verification_units,
        "sent": [b.beacons_sent for b in layers],
        "sent_with_cert": [b.beacons_sent_with_cert for b in layers],
    }


def failed_receptions(c: dict) -> int:
    return sum(count for reason, count in c["discards"].items()
               if reason in FAILURE_REASONS or reason.startswith("malformed"))


def check_funnel(c: dict) -> list[str]:
    """Every reception ends delivered, evicted, pending-dropped, discarded,
    or still queued or pending at the end."""
    accounted = (c["delivered"] + c["evicted"] + c["pending_dropped"]
                 + sum(c["discards"].values()) + c["queued_at_end"] + c["pending_at_end"])
    if accounted != c["receptions"]:
        return [f"funnel: {c['receptions']} receptions, {accounted} accounted for"]
    return []


def check_overhead(c: dict, metrics, config) -> list[str]:
    problems = check_funnel(c)
    if not metrics.certificate_fraction <= 0.10:
        problems.append(f"certificate fraction {metrics.certificate_fraction:.4f} > 0.10")
    wire_bytes = sum(sent * (LINK_HEADER_LEN + SECURED_BEACON_LEN) + with_cert * CERTIFICATE_LEN
                     for sent, with_cert in zip(c["sent"], c["sent_with_cert"]))
    reported = metrics.offered_load_Bps * config.duration_s
    if round(reported) != wire_bytes:
        problems.append(f"offered load covers {reported:.1f} B, beacons sent make {wire_bytes} B")
    return problems


def check_budget(units_by_vehicle_second: list[dict[int, int]], budget: int,
                 steady_seconds: range) -> list[str]:
    """No vehicle spends more than the budget in any second, and each spends
    the budget, give or take one unit, in every steady second.

    One unit may stay unspent when the queue head is a first contact, which
    needs two.
    """
    problems = []
    for vid, by_second in enumerate(units_by_vehicle_second):
        for second, units in sorted(by_second.items()):
            if units > budget:
                problems.append(f"vehicle {vid} spent {units} > {budget} units in second {second}")
        for second in steady_seconds:
            units = by_second.get(second, 0)
            if abs(units - budget) > 1:
                problems.append(f"vehicle {vid} spent {units} units in steady second {second}")
    return problems


def check_saturation(c: dict, metrics, config) -> list[str]:
    problems = check_funnel(c)
    steady = range(math.ceil(config.warmup_s), math.floor(config.duration_s))
    problems += check_budget(metrics.units_by_vehicle_second, config.budget_per_second, steady)
    peak = max((deepest for _, deepest in metrics.queue_depth_by_second), default=0)
    if peak != config.queue_capacity:
        problems.append(f"peak queue depth {peak}, capacity {config.queue_capacity}")
    if c["evicted"] < 1:
        problems.append("no queue eviction under overload")
    return problems


def check_same_outcome(c: dict, reference: dict) -> list[str]:
    """The run's CSV row and counters equal those of a reference run."""
    return [f"{key}: {c[key]!r} != {reference[key]!r}"
            for key in reference if c.get(key) != reference[key]]


def check_reports(reports) -> list[str]:
    return [f"{report.title}: {check.name} failed ({check.detail})"
            for report in reports for check in report.checks if not check.passed]


def first_match_decision(rules, app_id: str, resource_id: str) -> str:
    """Scan rules in (priority, insertion) order; the first match decides and
    nothing matching means deny. ``rules`` are in insertion order."""
    ranked = sorted(enumerate(rules), key=lambda item: (item[1].priority, item[0]))
    for _, rule in ranked:
        if rule.app_id in ("*", app_id) and rule.resource_id in ("*", resource_id):
            return rule.action.value
    return "deny"


def check_firewall_sample(samples) -> list[str]:
    """``samples`` holds (rules in insertion order, app, resource, decision)."""
    problems = []
    for rules, app_id, resource_id, decision in samples:
        expected = first_match_decision(rules, app_id, resource_id)
        if decision.value != expected:
            problems.append(f"firewall said {decision.value} for ({app_id}, {resource_id}), "
                            f"first match says {expected}")
    if not samples:
        problems.append("no firewall decisions sampled")
    return problems


def check_repeatable(outcomes: list) -> list[str]:
    """Passes over the same inputs give the same outcome."""
    return [f"pass {i} differs from pass 0" for i, outcome in enumerate(outcomes)
            if outcome != outcomes[0]]
