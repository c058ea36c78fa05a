"""Scenario configuration: INI files with strict validation.

``ScenarioConfig`` declares the schema: each field names the INI section that
holds it, and is set by the (case-sensitive) key of the same name, bar
``[braking] enabled``. The field's type picks the parser: ``float`` values
must be finite, ``bool`` takes true/false, yes/no, on/off or 1/0. Unknown
sections or keys are hard errors, not warnings, so experiment configs cannot
silently drift. ``validate`` checks ranges, including two ceilings read off
the field names: every time, a field ending in ``_ms`` or ``_s``, is at most
``MAX_MS`` ms, and every ``_capacity`` field is at most ``MAX_CAPACITY``.
Overrides and sweep grid keys address a field by its bare key, as
``section.key`` or by the field's own name. Overrides only parse and replace;
a configuration is validated as a whole where it is loaded, expanded from a
grid or run, so the order of overrides never matters.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from ..beaconing import MAX_VELOCITY, OmissionVariant
from ..suites import SUITE_NAMES

SECURITY_MODES = ("novc", "unsecured", "secured")
STRATEGIES = tuple(variant.value for variant in OmissionVariant)

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


def _in(section: str, default: Any, key: str | None = None) -> Any:
    """A field set by ``key`` (the field's own name unless given) in ``[section]``."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run."""

    name: str = _in("scenario", "unnamed")
    vehicle_count: int = _in("scenario", 10)
    initial_headway_m: float = _in("scenario", 40.0)
    initial_speed_mps: float = _in("scenario", 30.0)
    beacon_interval_ms: int = _in("scenario", 100)
    duration_s: float = _in("scenario", 60.0)
    warmup_s: float = _in("scenario", 5.0)
    seed: int = _in("scenario", 1)
    security_mode: str = _in("scenario", "secured")
    tx_range_m: float = _in("scenario", 300.0)
    crypto: str = _in("scenario", "fast")
    mobility_tick_ms: int = _in("scenario", 100)
    record_trace: bool = _in("scenario", False)
    base_loss: float = _in("channel", 0.02)
    load_coefficient: float = _in("channel", 0.3)
    capacity_Bps: float = _in("channel", 750_000.0)
    propagation_delay_ms: int = _in("channel", 2)
    strategy: str = _in("beaconing", "neighbor_triggered")
    alpha: int = _in("beaconing", 10)
    beta: int = _in("beaconing", 3)
    freshness_window_ms: int = _in("beaconing", 1000)
    neighbor_expiry_ms: int = _in("beaconing", 3000)
    budget_per_second: int = _in("verification", 50)
    queue_capacity: int = _in("verification", 64)
    pending_capacity: int = _in("verification", 64)
    pool_size: int = _in("pseudonym", 8)
    cert_validity_s: float = _in("pseudonym", 86_400.0)
    min_lifetime_s: float = _in("pseudonym", 30.0)
    max_lifetime_s: float = _in("pseudonym", 60.0)
    max_beacons: int = _in("pseudonym", 1_000_000)
    braking_enabled: bool = _in("braking", False, key="enabled")
    trigger_time_s: float = _in("braking", 30.0)
    lead_decel_mps2: float = _in("braking", 8.0)
    brake_decel_mps2: float = _in("braking", 8.0)
    reaction_delay_ms: int = _in("braking", 1200)
    sight_threshold_m: float = _in("braking", 50.0)

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

        # the ceilings, read off each field's unit suffix
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith(("_ms", "_s")):
                ms = value * 1000 if f.name.endswith("_s") else value
                need(ms <= MAX_MS, f"{f.name} exceeds the ceiling of {MAX_MS:,} ms")
            elif f.name.endswith("_capacity"):
                need(value <= MAX_CAPACITY, f"{f.name} exceeds the ceiling of {MAX_CAPACITY:,}")

        need(self.vehicle_count >= 1, "vehicle_count must be >= 1")
        need(self.initial_headway_m > 0, "initial_headway_m must be positive")
        need(self.initial_speed_mps >= 0, "initial_speed_mps must be nonnegative")
        need(self.initial_speed_mps <= MAX_VELOCITY, f"initial_speed_mps exceeds "
             f"{MAX_VELOCITY!r}, the largest a beacon's 4-byte velocity holds")
        need(self.beacon_interval_ms >= 10, "beacon_interval_ms must be >= 10")
        # the engine runs in whole ms, so these must hold for the rounded times
        need(self.duration_ms >= 1, "duration_s must round to at least 1 ms")
        need(0 <= self.warmup_s and self.warmup_ms < self.duration_ms,
             "warmup_s must lie inside the run, once both are rounded to ms")
        need(self.security_mode in SECURITY_MODES,
             f"security_mode must be one of {SECURITY_MODES}")
        need(self.strategy in STRATEGIES, f"strategy must be one of {STRATEGIES}")
        need(self.crypto in SUITE_NAMES, f"crypto must be one of {SUITE_NAMES}")
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
        need(self.budget_per_second >= 2,
             "budget_per_second must be >= 2, the units one first contact costs")
        need(self.queue_capacity >= 1, "queue_capacity must be >= 1")
        need(self.pending_capacity >= 1, "pending_capacity must be >= 1")
        need(self.pool_size >= 1, "pool_size must be >= 1")
        need(round(self.cert_validity_s * 1000) >= 1,
             "cert_validity_s must round to at least 1 ms")
        need(0 <= self.min_lifetime_s <= self.max_lifetime_s,
             "pseudonym lifetimes must satisfy 0 <= min <= max")
        need(self.max_beacons >= 1, "max_beacons must be >= 1")
        need(self.trigger_time_s >= 0, "trigger_time_s must be nonnegative")
        need(self.lead_decel_mps2 > 0, "lead_decel_mps2 must be positive")
        need(self.brake_decel_mps2 > 0, "brake_decel_mps2 must be positive")
        need(self.reaction_delay_ms >= 0, "reaction_delay_ms must be nonnegative")
        need(self.sight_threshold_m > 0, "sight_threshold_m must be positive")


_PARSERS = {"str": str, "int": int, "float": _finite_float, "bool": _parse_bool}

# INI (section, key) -> (field, parser), and the flat lookup for overrides,
# where the bare key, section.key and the field's own name all work.
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], Any]]]] = {}
_FLAT: dict[str, tuple[str, Callable[[str], Any]]] = {}
for _field in fields(ScenarioConfig):
    _section = _field.metadata["section"]
    _key = _field.metadata["key"] or _field.name
    _entry = _SCHEMA.setdefault(_section, {})[_key] = (_field.name, _PARSERS[_field.type])
    _FLAT[f"{_section}.{_key}"] = _FLAT[_key] = _FLAT[_field.name] = _entry


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file. Any problem raises ScenarioError."""
    # No header can name the empty section, so ``[DEFAULT]`` is an ordinary
    # (unknown) section rather than defaults merged into every other one.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
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


def parameter(key: str) -> tuple[str, Callable[[str], Any]]:
    """The field an override key (bare or ``section.key``) sets, and its parser."""
    entry = _FLAT.get(key)
    if entry is None:
        raise ScenarioError(f"unknown scenario parameter {key!r}")
    return entry


def apply_override(config: ScenarioConfig, key: str, raw: str) -> ScenarioConfig:
    """Return a copy of ``config`` with one field replaced from text.

    The copy is not validated: its user validates the final configuration.
    """
    attr, value_parser = parameter(key)
    try:
        value = value_parser(raw)
    except ValueError as exc:
        raise ScenarioError(f"{key} = {raw!r}: {exc}") from exc
    return replace(config, **{attr: value})
