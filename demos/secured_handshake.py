"""Two vehicles establishing trust over signed beacons, step by step.

Both stations beacon with neighbor-triggered certificate omission: a
certificate rides along only when a station has recently heard someone new.
Carol pulls into range mid-stream and misses the certificate Alice would
have offered on first contact, so Alice's beacon parks in Carol's pending
buffer. Hearing Alice is itself the trigger for Carol, though: her very
first beacon goes out with the certificate attached, and one round later
Alice reciprocates, releasing the buffered beacon.
"""

from random import Random

from v2xsec.beaconing import Beacon, BeaconSecurity, OmissionStrategy
from v2xsec.clocks import VirtualClock
from v2xsec.hsm import Hsm
from v2xsec.identity import CertificateAuthority, IdentityManager
from v2xsec.suites import get_suite

SUITE = get_suite("p224")


def station(name, ca, seed, log):
    clock = VirtualClock(0)
    hsm = Hsm(clock, SUITE, Random(seed))
    hsm.install_factory_root(ca.public_key)
    manager = IdentityManager(hsm, rng=Random(seed + 1))
    manager.provision(ca, count=3, validity_ms=10**9)
    manager.activate_next(0)
    return BeaconSecurity(
        hsm, manager, ca.public_key,
        OmissionStrategy.neighbor_triggered(beta=1),
        deliver=lambda sb, now: log.append((name, now, sb.signer_pseudonym_id.hex())),
    )


def beacon_at(now, x):
    return Beacon(x=x, y=0.0, velocity=27.0, heading=0.0,
                  generation_time=now, payload=b"hello")


def describe(sb):
    cert = "+certificate" if sb.certificate is not None else "certificate omitted"
    return f"{len(sb.to_wire())}B wire, {cert}"


def counters(bsec):
    """Where every beacon a station has received ended up so far."""
    return (f"received={bsec.beacons_received} delivered={bsec.delivered_count}"
            f" queued={bsec.queue_depth} pending={bsec.pending_count}"
            f" discarded={sum(bsec.discards.values())} evicted={bsec.evicted_jobs}"
            f" pending_dropped={bsec.pending_dropped}")


def main():
    ca = CertificateAuthority(issuer_id=1, suite=SUITE, rng=Random(7))
    delivered = []
    alice = station("alice", ca, seed=100, log=delivered)
    carol = station("carol", ca, seed=200, log=delivered)

    print("phase 1: alice beacons alone, nothing triggers an attachment")
    for now in (0, 100, 200):
        sb = alice.make_beacon(beacon_at(now, x=0.0), now)
        print(f"  t={now:4d}  alice -> air    {describe(sb)}")

    print("phase 2: carol pulls into range and hears a certless beacon")
    now = 300
    sb = alice.make_beacon(beacon_at(now, x=0.0), now)
    carol.on_receive(sb, now)
    print(f"  t={now:4d}  carol <- alice  {describe(sb)}")
    print(f"          carol: {counters(carol)}")

    print("phase 3: hearing alice tripped carol's trigger, she introduces"
          " herself with her certificate")
    now = 350
    sb = carol.make_beacon(beacon_at(now, x=12.0), now)
    alice.on_receive(sb, now)
    print(f"  t={now:4d}  alice <- carol  {describe(sb)}")
    print(f"          alice: {counters(alice)}")

    print("phase 4: alice heard someone new too and re-attaches hers")
    now = 400
    sb = alice.make_beacon(beacon_at(now, x=1.1), now)
    carol.on_receive(sb, now)
    print(f"  t={now:4d}  carol <- alice  {describe(sb)}")
    print(f"          carol: {counters(carol)} (buffered beacon released too)")
    now = 450
    sb = carol.make_beacon(beacon_at(now, x=13.2), now)
    alice.on_receive(sb, now)
    print(f"  t={now:4d}  alice <- carol  {describe(sb)}")
    print(f"          alice: {counters(alice)}")

    print("phase 5: steady state, certificates stay omitted again")
    for now in (500, 600):
        sb = alice.make_beacon(beacon_at(now, x=2.0), now)
        carol.on_receive(sb, now)
        print(f"  t={now:4d}  carol <- alice  {describe(sb)}")
        print(f"          carol: {counters(carol)}")

    print()
    print(f"deliveries to the applications ({len(delivered)} total):")
    for name, now, pid in delivered:
        print(f"  t={now:4d}  {name} accepted a beacon from pseudonym {pid}")
    print(f"carol spent {carol.units_used} verification units on"
          f" {carol.delivered_count} delivered beacons (certificate chains"
          " cost 2, cached signers cost 1)")


if __name__ == "__main__":
    main()
