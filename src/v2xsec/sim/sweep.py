"""Parameter sweeps: a grid of scenario overrides, one run per grid point.

Grid axes are given as ``key=value1,value2,...`` and expand in declaration
order (first axis outermost). Each grid point gets a deterministic seed,
``base_seed XOR index``, unless the grid itself sweeps the seed. Runs are
independent, so they can fan out across worker processes, at most one per
run; results always come back in grid order regardless of completion order.
Only a parallel sweep imports the process pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .engine import run_scenario
from .metrics import RunMetrics
from .scenario import ScenarioConfig, ScenarioError, apply_override


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[tuple[str, tuple[str, ...]], ...]

    @classmethod
    def parse(cls, specs: list[str]) -> "GridSpec":
        axes = []
        for spec in specs:
            key, sep, values = spec.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ScenarioError(f"grid axis must look like key=v1,v2 (got {spec!r})")
            parsed = tuple(v.strip() for v in values.split(",") if v.strip())
            if not parsed:
                raise ScenarioError(f"grid axis {key!r} has no values")
            axes.append((key, parsed))
        if not axes:
            raise ScenarioError("sweep needs at least one grid axis")
        return cls(axes=tuple(axes))

    def combos(self) -> list[dict[str, str]]:
        keys = [key for key, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]

    @property
    def sweeps_seed(self) -> bool:
        return any(key in ("seed", "scenario.seed") for key, _ in self.axes)


def expand_grid(base: ScenarioConfig, grid: GridSpec,
                base_seed: int | None = None) -> list[ScenarioConfig]:
    """All grid-point configs, in grid order, with derived names and seeds."""
    seed0 = base.seed if base_seed is None else base_seed
    configs = []
    for index, combo in enumerate(grid.combos()):
        config = base
        for key, value in combo.items():
            config = apply_override(config, key, value)
        updates: dict[str, object] = {"name": f"{base.name}#{index}"}
        if not grid.sweeps_seed:
            updates["seed"] = seed0 ^ index
        config = replace(config, **updates)
        config.validate()
        configs.append(config)
    return configs


def run_sweep(base: ScenarioConfig, grid: GridSpec, base_seed: int | None = None,
              jobs: int = 1) -> list[RunMetrics]:
    configs = expand_grid(base, grid, base_seed)
    if jobs <= 1 or len(configs) == 1:
        return [run_scenario(config) for config in configs]
    from concurrent.futures import ProcessPoolExecutor
    # the pool starts all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
        return list(pool.map(run_scenario, configs))
