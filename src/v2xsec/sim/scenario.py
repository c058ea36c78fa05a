"""Scenario configuration: INI files with strict validation.

A scenario file groups parameters into the sections of ``_SECTIONS``. Each
(case-sensitive) key sets the ``ScenarioConfig`` field of the same name, bar
``[braking] enabled``, and the field's type picks the parser: ``float``
values must be finite, ``bool`` takes true/false, yes/no, on/off or 1/0.
Unknown sections or keys are hard errors, not warnings, so experiment configs
cannot silently drift. ``validate`` checks ranges, including two ceilings:
every time, in ms or in s, is at most ``MAX_MS`` ms, and the queue and
pending capacities are at most ``MAX_CAPACITY``. The same schema backs the
sweep grid: a grid key addresses a field by its bare key or as ``section.key``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable

SECURITY_MODES = ("novc", "unsecured", "secured")
STRATEGIES = ("always", "periodic", "neighbor_triggered")
CRYPTO_SUITES = ("fast", "p224")

# Every time stays below 2**53 ms, so seconds convert to whole ms exactly, and
# a time plus a span fits the 8-byte time fields of beacons and certificates.
MAX_MS = 10**15  # about 31,700 years
MAX_CAPACITY = 10**9


class ScenarioError(Exception):
    """Configuration rejected; message says which key and why."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run."""

    # [scenario]
    name: str = "unnamed"
    vehicle_count: int = 10
    initial_headway_m: float = 40.0
    initial_speed_mps: float = 30.0
    beacon_interval_ms: int = 100
    duration_s: float = 60.0
    warmup_s: float = 5.0
    seed: int = 1
    security_mode: str = "secured"
    tx_range_m: float = 300.0
    crypto: str = "fast"
    mobility_tick_ms: int = 100
    record_trace: bool = False
    # [channel]
    base_loss: float = 0.02
    load_coefficient: float = 0.3
    capacity_Bps: float = 750_000.0
    propagation_delay_ms: int = 2
    # [beaconing]
    strategy: str = "neighbor_triggered"
    alpha: int = 10
    beta: int = 3
    freshness_window_ms: int = 1000
    neighbor_expiry_ms: int = 3000
    # [verification]
    budget_per_second: int = 50
    queue_capacity: int = 64
    pending_capacity: int = 64
    # [pseudonym]
    pool_size: int = 8
    cert_validity_s: float = 86_400.0
    min_lifetime_s: float = 30.0
    max_lifetime_s: float = 60.0
    max_beacons: int = 1_000_000
    # [braking]
    braking_enabled: bool = False
    trigger_time_s: float = 30.0
    lead_decel_mps2: float = 8.0
    brake_decel_mps2: float = 8.0
    reaction_delay_ms: int = 1200
    sight_threshold_m: float = 50.0

    # -- derived views ------------------------------------------------------

    @property
    def duration_ms(self) -> int:
        return round(self.duration_s * 1000)

    @property
    def warmup_ms(self) -> int:
        return round(self.warmup_s * 1000)

    def validate(self) -> None:
        def need(cond: bool, message: str) -> None:
            if not cond:
                raise ScenarioError(message)

        need(self.vehicle_count >= 1, "vehicle_count must be >= 1")
        need(self.initial_headway_m > 0, "initial_headway_m must be positive")
        need(self.initial_speed_mps >= 0, "initial_speed_mps must be nonnegative")
        need(self.beacon_interval_ms >= 10, "beacon_interval_ms must be >= 10")
        need(self.duration_s > 0, "duration_s must be positive")
        need(0 <= self.warmup_s < self.duration_s, "warmup_s must lie inside the run")
        need(self.security_mode in SECURITY_MODES,
             f"security_mode must be one of {SECURITY_MODES}")
        need(self.strategy in STRATEGIES, f"strategy must be one of {STRATEGIES}")
        need(self.crypto in CRYPTO_SUITES, f"crypto must be one of {CRYPTO_SUITES}")
        need(self.tx_range_m > 0, "tx_range_m must be positive")
        need(self.mobility_tick_ms >= 1, "mobility_tick_ms must be >= 1")
        need(1000 % self.mobility_tick_ms == 0, "mobility_tick_ms must divide 1000")
        need(0.0 <= self.base_loss <= 1.0, "base_loss must be a probability")
        need(self.load_coefficient >= 0, "load_coefficient must be nonnegative")
        need(self.capacity_Bps > 0, "capacity_Bps must be positive")
        need(self.propagation_delay_ms >= 0, "propagation_delay_ms must be nonnegative")
        need(self.alpha >= 1, "alpha must be >= 1")
        need(self.beta >= 0, "beta must be >= 0")
        need(self.freshness_window_ms > 0, "freshness_window_ms must be positive")
        need(self.neighbor_expiry_ms > 0, "neighbor_expiry_ms must be positive")
        need(self.budget_per_second >= 1, "budget_per_second must be >= 1")
        need(self.queue_capacity >= 1, "queue_capacity must be >= 1")
        need(self.pending_capacity >= 1, "pending_capacity must be >= 1")
        need(self.pool_size >= 1, "pool_size must be >= 1")
        need(self.cert_validity_s > 0, "cert_validity_s must be positive")
        need(0 <= self.min_lifetime_s <= self.max_lifetime_s,
             "pseudonym lifetimes must satisfy 0 <= min <= max")
        need(self.max_beacons >= 1, "max_beacons must be >= 1")
        need(self.trigger_time_s >= 0, "trigger_time_s must be nonnegative")
        need(self.lead_decel_mps2 > 0, "lead_decel_mps2 must be positive")
        need(self.brake_decel_mps2 > 0, "brake_decel_mps2 must be positive")
        need(self.reaction_delay_ms >= 0, "reaction_delay_ms must be nonnegative")
        need(self.sight_threshold_m > 0, "sight_threshold_m must be positive")
        # the checks above bound warmup_s, min_lifetime_s and mobility_tick_ms
        for name in ("beacon_interval_ms", "duration_s", "propagation_delay_ms",
                     "freshness_window_ms", "neighbor_expiry_ms", "cert_validity_s",
                     "max_lifetime_s", "trigger_time_s", "reaction_delay_ms"):
            ms = getattr(self, name) * (1000 if name.endswith("_s") else 1)
            need(ms <= MAX_MS, f"{name} exceeds the ceiling of {MAX_MS:,} ms")
        for name in ("queue_capacity", "pending_capacity"):
            need(getattr(self, name) <= MAX_CAPACITY,
                 f"{name} exceeds the ceiling of {MAX_CAPACITY:,}")


# INI section -> its keys. A key is the name of the field it sets, except
# where a section prefix would repeat (braking.enabled).
_SECTIONS = {
    "scenario": ("name", "vehicle_count", "initial_headway_m", "initial_speed_mps",
                 "beacon_interval_ms", "duration_s", "warmup_s", "seed", "security_mode",
                 "tx_range_m", "crypto", "mobility_tick_ms", "record_trace"),
    "channel": ("base_loss", "load_coefficient", "capacity_Bps", "propagation_delay_ms"),
    "beaconing": ("strategy", "alpha", "beta", "freshness_window_ms", "neighbor_expiry_ms"),
    "verification": ("budget_per_second", "queue_capacity", "pending_capacity"),
    "pseudonym": ("pool_size", "cert_validity_s", "min_lifetime_s", "max_lifetime_s",
                  "max_beacons"),
    "braking": ("enabled", "trigger_time_s", "lead_decel_mps2", "brake_decel_mps2",
                "reaction_delay_ms", "sight_threshold_m"),
}
_RENAMED = {"braking.enabled": "braking_enabled"}
_PARSERS = {"str": str, "int": int, "float": _finite_float, "bool": _parse_bool}
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}

# INI (section, key) -> (field, parser), and the flat lookup for grid
# overrides, where both the bare key and section.key work.
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], Any]]]] = {}
_FLAT: dict[str, tuple[str, Callable[[str], Any]]] = {}
for _section, _keys in _SECTIONS.items():
    _SCHEMA[_section] = {}
    for _key in _keys:
        _attr = _RENAMED.get(f"{_section}.{_key}", _key)
        _entry = _SCHEMA[_section][_key] = (_attr, _PARSERS[_FIELD_TYPES[_attr]])
        _FLAT[f"{_section}.{_key}"] = _entry
        _FLAT.setdefault(_key, _entry)


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file. Any problem raises ScenarioError."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive, like the field names
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not read:
        raise ScenarioError(f"cannot read scenario file {path!r}")
    values: dict[str, Any] = {}
    for section in parser.sections():
        schema = _SCHEMA.get(section)
        if schema is None:
            raise ScenarioError(
                f"{path}: unknown section [{section}] (known: {sorted(_SCHEMA)})"
            )
        for key, raw in parser.items(section):
            entry = schema.get(key)
            if entry is None:
                raise ScenarioError(
                    f"{path}: unknown key {key!r} in [{section}] (known: {sorted(schema)})"
                )
            attr, value_parser = entry
            try:
                values[attr] = value_parser(raw)
            except ValueError as exc:
                raise ScenarioError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
    config = ScenarioConfig(**values)
    config.validate()
    return config


def apply_override(config: ScenarioConfig, key: str, raw: str) -> ScenarioConfig:
    """Return a copy of ``config`` with one field replaced from text."""
    entry = _FLAT.get(key)
    if entry is None:
        raise ScenarioError(f"unknown scenario parameter {key!r}")
    attr, value_parser = entry
    try:
        value = value_parser(raw)
    except ValueError as exc:
        raise ScenarioError(f"{key} = {raw!r}: {exc}") from exc
    updated = replace(config, **{attr: value})
    updated.validate()
    return updated
