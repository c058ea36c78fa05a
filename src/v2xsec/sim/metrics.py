"""Run metrics and deterministic CSV output.

Each run's metrics hold the whole ``ScenarioConfig`` that produced them, and
the CSV row leads with the config fields that identify the run. The CSV
column set is fixed so downstream analysis never has to sniff headers. Files
are written atomically (temp file, then rename); a failed run leaves no
partial output behind. Float fields are formatted with fixed precision so a
rerun of the same seed produces byte-identical files.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

from .scenario import ScenarioConfig

CSV_COLUMNS = [
    "scenario_id",
    "seed",
    "security_mode",
    "strategy",
    "alpha",
    "beta",
    "beacon_interval_ms",
    "vehicle_count",
    "certificate_fraction",
    "offered_load_Bps",
    "p95_time_to_trust_ms",
    "crashes",
]


@dataclass(frozen=True)
class CrashEvent:
    time_ms: int
    follower: int
    leader: int


@dataclass(frozen=True)
class EmissionRecord:
    """One sent beacon, as needed to re-derive overhead metrics from scratch."""

    time_ms: int
    vehicle: int
    with_certificate: bool
    frame_len: int


@dataclass
class RunMetrics:
    """Everything one simulation run reports."""

    config: ScenarioConfig
    # beaconing overhead
    beacons_sent: int = 0
    beacons_sent_post_warmup: int = 0
    certs_post_warmup: int = 0
    certificate_fraction: float = 0.0
    offered_load_Bps: float = 0.0
    # reception pipeline
    receptions: int = 0
    channel_losses: int = 0
    delivered: int = 0
    evicted_jobs: int = 0
    pending_dropped: int = 0
    discards: dict[str, int] = field(default_factory=dict)
    verification_units: int = 0
    units_by_vehicle_second: list[dict[int, int]] = field(default_factory=list)
    queue_depth_by_second: list[tuple[float, int]] = field(default_factory=list)
    # trust establishment
    time_to_trust_ms: list[int] = field(default_factory=list)
    p95_time_to_trust_ms: float | None = None
    median_time_to_trust_ms: float | None = None
    # safety
    crashes: int = 0
    crash_events: list[CrashEvent] = field(default_factory=list)
    final_positions: list[float] = field(default_factory=list)
    final_speeds: list[float] = field(default_factory=list)
    # raw trace (only when the scenario asks for it)
    trace: list[EmissionRecord] | None = None

    def finalize(self) -> None:
        if self.beacons_sent_post_warmup > 0:
            self.certificate_fraction = self.certs_post_warmup / self.beacons_sent_post_warmup
        else:
            self.certificate_fraction = 0.0
        if self.time_to_trust_ms:
            ordered = sorted(self.time_to_trust_ms)
            self.p95_time_to_trust_ms = _percentile(ordered, 95)
            self.median_time_to_trust_ms = _percentile(ordered, 50)
        self.crashes = len(self.crash_events)

    def csv_row(self) -> list[str]:
        p95 = "" if self.p95_time_to_trust_ms is None else f"{self.p95_time_to_trust_ms:.3f}"
        c = self.config
        return [
            c.name,
            str(c.seed),
            c.security_mode,
            c.strategy,
            str(c.alpha),
            str(c.beta),
            str(c.beacon_interval_ms),
            str(c.vehicle_count),
            f"{self.certificate_fraction:.6f}",
            f"{self.offered_load_Bps:.3f}",
            p95,
            str(self.crashes),
        ]


def _percentile(ordered: list[float], q: float) -> float:
    """The ``q``-th percentile of sorted values, interpolated linearly.

    The 7th method of Hyndman and Fan, computed operation for operation as
    ``numpy.percentile`` does by default, so the reported figure is the same
    to the last bit: the lerp runs from the nearer end, ``b`` once the
    fraction reaches 0.5.
    """
    last = len(ordered) - 1
    index = last * (q / 100)
    lo = math.floor(index)
    a = float(ordered[lo])
    b = float(ordered[min(lo + 1, last)])
    g = index - lo
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g


def write_csv(path: str, runs: list[RunMetrics]) -> None:
    """Write one row per run, atomically, with the mode ``open`` gives a new
    file under the process umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.path.join(directory, f".metrics-{os.urandom(8).hex()}.csv")
    handle = open(tmp_path, "x", newline="")
    try:
        with handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for run in runs:
                writer.writerow(run.csv_row())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise

