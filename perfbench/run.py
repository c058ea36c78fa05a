"""Benchmark of the v2xsec secure-beaconing stack and its simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any working directory works; paths are taken
from this file's location). One process, one thread. The run repeats passes
of the workload for ``--seconds`` seconds of wall time, at least one, each
from the state a fresh process has, and checks every pass's outputs.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``, the CPU
time of interpreter start-up and imports plus the median CPU time of one
pass's set-up; ``run_s``, the median CPU time of one pass's work;
``ops_per_s``, operations per second of ``run_s``; and ``peak_rss_mb``.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones. Each metric is printed on its own
line; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "v2xsec" / "__init__.py").is_file():
    sys.exit(f"run.py: no v2xsec sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# CPU time of interpreter start-up and every import, paid once per process.
STARTUP_CPU_S = time.process_time()


def timed_pass(workload, seed: int, context=None):
    """One pass from cold state: (set-up CPU s, run CPU s, result)."""
    workloads.reset_process_state()
    gc.collect()
    with context or contextlib.nullcontext():
        start = time.process_time()
        state = workload.setup(seed)
        built = time.process_time()
        result = workload.run(state)
        done = time.process_time()
    return built - start, done - built, result


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def measure(workload, seed: int, seconds: float):
    """Untraced passes until ``seconds`` have passed; end-to-end metrics."""
    setup_s, run_s, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        result = None  # free the previous pass before the next one
        setup, run, result = timed_pass(workload, seed)
        setup_s.append(setup)
        run_s.append(run)
        outcomes.append(workload.outcome(result))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = checks.check_repeatable(outcomes) + workload.check(result, seed)
    median_run_s = statistics.median(run_s)
    metrics = {
        "setup_s": (STARTUP_CPU_S + statistics.median(setup_s), "s"),
        "run_s": (median_run_s, "s"),
        "ops_per_s": (workload.ops(outcomes[0]) / median_run_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return outcomes, problems, metrics


def measure_traced(workload, seed: int, seconds: float):
    """Pairs of untraced and traced passes until ``seconds`` have passed."""
    tracer = tracing.Tracer()
    plain_s, traced_s, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced_s or time.perf_counter() < deadline:
        result = None
        _, run, result = timed_pass(workload, seed)
        plain_s.append(run)
        outcomes.append(workload.outcome(result))
        result = None
        _, run, result = timed_pass(workload, seed, tracer)
        traced_s.append(run)
        outcomes.append(workload.outcome(result))
    # traced and untraced passes must agree: tracing changes no behaviour
    problems = checks.check_repeatable(outcomes) + workload.check(result, seed)
    metrics = layer_metrics(tracer, len(traced_s), outcomes[0])
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / statistics.median(plain_s),
                                       "ratio")
    return outcomes, problems, metrics


def layer_metrics(tracer: tracing.Tracer, passes: int, outcome) -> dict:
    """Per-layer metrics of ``passes`` traced passes with this outcome."""
    counts = outcome if isinstance(outcome, dict) else {}
    receptions = counts.get("receptions", 0)
    verify_calls = tracer.calls["suites.verify"]
    metrics = tracer.layer_metrics(passes)
    metrics.update({
        "sim.engine.build_s": (tracer.total_s["sim.engine.init"] / passes, "s"),
        "sim.engine.run.self_s": (tracer.self_s("sim.engine.run") / passes, "s"),
        "sim.engine.emissions": (counts.get("emissions", 0), "count"),
        "sim.engine.receptions": (receptions, "count"),
        "sim.scenario.load_s": (tracer.total_s["sim.scenario.load_scenario"] / passes, "s"),
        "beaconing.delivered": (counts.get("delivered", 0), "count"),
        "beaconing.evicted": (counts.get("evicted", 0), "count"),
        "beaconing.pending_dropped": (counts.get("pending_dropped", 0), "count"),
        "beaconing.verify_units": (counts.get("verification_units", 0), "count"),
        "beaconing.delivered_per_reception": (
            counts.get("delivered", 0) / receptions if receptions else 0.0, "ratio"),
        "suites.verify.distinct_ratio": (
            sum(tracer.distinct_verify_inputs) / verify_calls if verify_calls else 0.0, "ratio"),
        "selftest.hsm_suite.self_s": (tracer.self_s("selftest.hsm_suite") / passes, "s"),
        "selftest.gateway_suite.self_s": (tracer.self_s("selftest.gateway_suite") / passes, "s"),
        "src.lines": (src_lines(), "lines"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    measure_fn = measure_traced if args.trace else measure
    outcomes, problems, metrics = measure_fn(workload, args.seed, args.seconds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(workload.ops(outcome) for outcome in outcomes),
        "failed": sum(workload.failed(outcome) for outcome in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
