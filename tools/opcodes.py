"""Count the bytecode a simulation run executes, per workload.

    python3 tools/opcodes.py [--root CHECKOUT] [--top N]

Runs two fixed workloads with the ``v2xsec`` sources of ``CHECKOUT``
(default: the checkout holding this script): 20 simulated s of
``overhead.ini`` and 5 simulated s of ``saturation.ini``. For each it prints
one line: the workload's name and the number of opcodes the interpreter
executed from ``HighwaySimulation(config)`` through ``run()``, counted with
``sys.settrace`` and ``f_trace_opcodes``. Loading the scenario is not
counted. With ``--top N``, each total is followed by the N functions that
executed the most of those opcodes, one per line as ``share count
file:function``, from the same traced run.

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
from collections import Counter
from pathlib import Path

WORKLOADS = (("overhead", "overhead.ini", 20), ("saturation", "saturation.ini", 5))


def count_opcodes(engine, config) -> Counter:
    """Opcodes executed while building and running one simulation, by code
    object."""
    cells: dict = {}

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        # one counter per code object, looked up once per call: hashing the
        # code object on every opcode makes the count about five times slower
        cell = cells.setdefault(frame.f_code, [0])

        def local(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return local
        return local

    sys.settrace(on_call)
    try:
        engine.HighwaySimulation(config).run()
    finally:
        sys.settrace(None)
    return Counter({code: cell[0] for code, cell in cells.items()})


def by_function(counts: Counter) -> Counter:
    """The counts keyed by ``file:function``, merging code objects that
    share a name."""
    merged = Counter()
    for code, count in counts.items():
        function = getattr(code, "co_qualname", code.co_name)  # 3.11 adds the class
        merged[f"{Path(code.co_filename).name}:{function}"] += count
    return merged


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=here,
                        help="checkout whose src/ and scenarios/ to use")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also print the N functions that executed the most opcodes")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from v2xsec.sim import engine, scenario

    for name, ini, seconds in WORKLOADS:
        config = scenario.load_scenario(str(root / "scenarios" / ini))
        config = scenario.apply_override(config, "duration_s", str(seconds))
        counts = count_opcodes(engine, config)
        total = counts.total()
        print(f"{name} {total:,}", flush=True)
        for function, count in by_function(counts).most_common(args.top):
            print(f"  {count / total:6.1%} {count:,} {function}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
