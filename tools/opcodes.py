"""Count the bytecode a simulation run executes, per workload.

    python3 tools/opcodes.py [--root CHECKOUT]

Runs two fixed workloads with the ``v2xsec`` sources of ``CHECKOUT``
(default: the checkout holding this script): 20 simulated s of
``overhead.ini`` and 5 simulated s of ``saturation.ini``. For each it prints
one line: the workload's name and the number of opcodes the interpreter
executed from ``HighwaySimulation(config)`` through ``run()``, counted with
``sys.settrace`` and ``f_trace_opcodes``. Loading the scenario is not
counted.

The counts repeat to the unit on one Python version, so two checkouts can be
compared on a busy host where wall time cannot resolve a small change:

    python3 tools/opcodes.py --root OLD_CHECKOUT
    python3 tools/opcodes.py

Tracing slows the runs down; both together take under half a minute of CPU
time on a 2-vCPU Xeon virtual machine with Python 3.11.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

WORKLOADS = (("overhead", "overhead.ini", 20), ("saturation", "saturation.ini", 5))


def count_opcodes(engine, config) -> int:
    """Opcodes executed while building and running one simulation."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(on_call)
    try:
        engine.HighwaySimulation(config).run()
    finally:
        sys.settrace(None)
    return count


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=here,
                        help="checkout whose src/ and scenarios/ to use")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from v2xsec.sim import engine, scenario

    for name, ini, seconds in WORKLOADS:
        config = scenario.load_scenario(str(root / "scenarios" / ini))
        config = scenario.apply_override(config, "duration_s", str(seconds))
        print(f"{name} {count_opcodes(engine, config):,}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
