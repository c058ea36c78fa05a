"""Command line front end.

Subcommands:

* ``run``       one scenario, metrics to stdout and optionally CSV
* ``sweep``     a parameter grid over a base scenario, CSV per grid point
* ``validate``  parse and check a scenario file without running it
* ``selftest``  built-in HSM and gateway security suites

Exit codes: 0 on success, 2 for configuration or usage errors, 1 for runtime
or self-test failures.
"""

from __future__ import annotations

import argparse
import sys

from .sim.engine import run_scenario
from .sim.metrics import CSV_COLUMNS, RunMetrics, write_csv
from .sim.scenario import ScenarioError, apply_override, load_scenario
from .sim.sweep import GridSpec, run_sweep
from .suites import SUITE_NAMES, get_suite


def _count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2xsec",
        description="secure vehicular beaconing simulator and security self-tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--scenario", required=True, help="scenario INI file")
    run_p.add_argument("--out", help="write metrics CSV here (atomic)")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one scenario parameter (repeatable)",
    )

    sweep_p = sub.add_parser("sweep", help="run a parameter grid")
    sweep_p.add_argument("--scenario", required=True, help="base scenario INI file")
    sweep_p.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2,...",
        help="one grid axis (repeatable; first axis is outermost)",
    )
    sweep_p.add_argument("--out", help="write metrics CSV here (atomic)")
    sweep_p.add_argument("--seed", type=int, help="base seed (grid index is XORed in)")
    sweep_p.add_argument("--jobs", type=int, default=1, help="worker processes")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("--scenario", required=True, help="scenario INI file")

    self_p = sub.add_parser("selftest", help="run built-in security suites")
    self_p.add_argument("--hsm-sequences", type=_count, default=10_000)
    self_p.add_argument("--gateway-events", type=_count, default=10_000)
    self_p.add_argument("--seed", type=int, default=0x5EC0)
    self_p.add_argument("--crypto", default="p224", choices=SUITE_NAMES)
    return parser


def _print_run(metrics: RunMetrics) -> None:
    config = metrics.config
    print(f"scenario {config.name} seed={config.seed} "
          f"mode={config.security_mode} strategy={config.strategy}")
    print(f"  beacons sent:          {metrics.beacons_sent}")
    print(f"  certificate fraction:  {metrics.certificate_fraction:.4f} "
          f"(post warm-up, {metrics.beacons_sent_post_warmup} beacons)")
    print(f"  offered load:          {metrics.offered_load_Bps:.1f} B/s")
    print(f"  receptions/losses:     {metrics.receptions}/{metrics.channel_losses}")
    print(f"  delivered to app:      {metrics.delivered}")
    if metrics.p95_time_to_trust_ms is not None:
        print(f"  p95 time to trust:     {metrics.p95_time_to_trust_ms:.1f} ms "
              f"(median {metrics.median_time_to_trust_ms:.1f} ms)")
    print(f"  crashes:               {metrics.crashes}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    for spec in args.overrides:
        key, sep, value = spec.partition("=")
        if not sep:
            raise ScenarioError(f"--set expects KEY=VALUE (got {spec!r})")
        config = apply_override(config, key.strip(), value.strip())
    if args.seed is not None:
        config = apply_override(config, "seed", str(args.seed))
    metrics = run_scenario(config)
    _print_run(metrics)
    if args.out:
        write_csv(args.out, [metrics])
        print(f"wrote {args.out} ({', '.join(CSV_COLUMNS)})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    grid = GridSpec.parse(args.grid)
    runs = run_sweep(config, grid, base_seed=args.seed, jobs=args.jobs)
    for metrics in runs:
        _print_run(metrics)
    if args.out:
        write_csv(args.out, runs)
        print(f"wrote {args.out} with {len(runs)} rows")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    print(f"{args.scenario}: ok "
          f"(name={config.name}, vehicles={config.vehicle_count}, "
          f"mode={config.security_mode}, duration={config.duration_s}s)")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    # loaded here, so that run, sweep and validate load neither selftest nor gateway
    from .selftest import run_gateway_suite, run_hsm_security_suite

    suite = get_suite(args.crypto)
    hsm_report = run_hsm_security_suite(
        sequences=args.hsm_sequences, seed=args.seed, suite=suite
    )
    gateway_report = run_gateway_suite(events=args.gateway_events, seed=args.seed)
    ok = True
    for report in (hsm_report, gateway_report):
        for line in report.summary_lines():
            print(line)
        ok = ok and report.passed
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
