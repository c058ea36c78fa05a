"""Print a hash of everything a simulation run reports, per configuration.

    python3 tools/fingerprint.py [--root CHECKOUT] [NAME_PREFIX ...]

Runs a fixed set of scenario configurations with the ``v2xsec`` sources of
``CHECKOUT`` (default: the checkout holding this script) and prints one line
per configuration: its name and a SHA-256 of its full fingerprint. The
fingerprint covers the CSV row, the reception funnel (receptions, losses,
delivered, discards by reason, evictions, pending drops, jobs queued and
beacons pending at the end), verification units per vehicle and second,
queue-depth samples, the sorted time-to-trust samples, crash events, final
positions and speeds, and every emission-trace record.

Two checkouts produce the same metrics exactly when their outputs are equal:

    python3 tools/fingerprint.py --root OLD_CHECKOUT > old.txt
    python3 tools/fingerprint.py > new.txt
    diff old.txt new.txt

Name prefixes, if given, select a subset (``overhead-120s``, ``braking``).
All configurations together take a few minutes of CPU time.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def configurations(scenario, scenarios_dir: Path):
    """(name, config) pairs: the shipped scenarios and the acceptance
    suite's variants of them."""
    def load(ini, **overrides):
        config = scenario.load_scenario(str(scenarios_dir / ini))
        for key, value in overrides.items():
            config = scenario.apply_override(config, key, str(value))
        return config

    yield "overhead-120s-seed11", load("overhead.ini")
    for seed in range(1, 11):
        yield f"overhead-120s-seed{seed}", load("overhead.ini", seed=seed)
    yield "overhead-3-6s-pseudonyms", load("overhead.ini", min_lifetime_s=3, max_lifetime_s=6)
    # the only configurations whose pseudonym changes hit the beacon cap; with a
    # pool of 4 every vehicle runs out of spares
    yield "overhead-60s-max-beacons", load("overhead.ini", duration_s=60, min_lifetime_s=3,
                                           max_beacons=100)
    yield "overhead-60s-pool-4", load("overhead.ini", duration_s=60, min_lifetime_s=3,
                                      max_beacons=100, pool_size=4)
    for interval in (200, 500):
        for seed in (1, 2, 3):
            yield (f"overhead-60s-{interval}ms-seed{seed}",
                   load("overhead.ini", duration_s=60, beacon_interval_ms=interval, seed=seed))
    yield "overhead-30s-traced", load("overhead.ini", duration_s=30, record_trace="true",
                                      min_lifetime_s=8, max_lifetime_s=15)
    yield "saturation", load("saturation.ini")
    yield "smoke", load("smoke.ini")
    for mode in ("novc", "unsecured"):
        yield f"braking-{mode}", load("braking.ini", security_mode=mode)
    for seed in range(1, 21):
        yield f"braking-secured-seed{seed}", load("braking.ini", seed=seed)
    # late reactions crash vehicles that keep beaconing, so the radio and the
    # channel run on after a crash
    for mode in ("unsecured", "secured"):
        yield (f"braking-{mode}-late-reaction",
               load("braking.ini", security_mode=mode, reaction_delay_ms=5000))
    # with no delays, brake events share their millisecond with the tick, with
    # deliveries and with each other, so the order of ties decides the outcome
    for mode in ("novc", "unsecured", "secured"):
        yield (f"braking-{mode}-zero-delay",
               load("braking.ini", security_mode=mode, reaction_delay_ms=0,
                    propagation_delay_ms=0))
    # real curve, with pseudonym changes: seeded keys make it repeat
    yield "p224-12v-15s-3-6s-pseudonyms", load("overhead.ini", crypto="p224", vehicle_count=12,
                                               duration_s=15, min_lifetime_s=3,
                                               max_lifetime_s=6)


def fingerprint(engine, config) -> tuple:
    sim = engine.HighwaySimulation(config)
    m = sim.run()
    layers = [node.bsec for node in sim.nodes]
    return (
        m.csv_row(),
        (m.beacons_sent, m.beacons_sent_post_warmup, m.certs_post_warmup),
        (m.receptions, m.channel_losses, m.delivered, m.evicted_jobs, m.pending_dropped,
         sorted(m.discards.items()), m.verification_units),
        (sum(b.queue_depth for b in layers), sum(b.pending_count for b in layers)),
        [sorted(units.items()) for units in m.units_by_vehicle_second],
        m.queue_depth_by_second,
        sorted(m.time_to_trust_ms),
        (m.p95_time_to_trust_ms, m.median_time_to_trust_ms),
        m.crash_events,
        m.final_positions,
        m.final_speeds,
        m.trace,
    )


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=here,
                        help="checkout whose src/ and scenarios/ to use")
    parser.add_argument("names", nargs="*", help="run only names with these prefixes")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from v2xsec.sim import engine, scenario

    for name, config in configurations(scenario, root / "scenarios"):
        if args.names and not name.startswith(tuple(args.names)):
            continue
        digest = hashlib.sha256(repr(fingerprint(engine, config)).encode()).hexdigest()
        print(f"{name} {digest[:16]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
