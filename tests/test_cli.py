"""Command line interface: subcommands, exit codes, CSV output."""

from __future__ import annotations

import csv
import os

import pytest

from v2xsec.cli import main
from v2xsec.sim.metrics import CSV_COLUMNS

SCENARIO = """\
[scenario]
name = cli-check
vehicle_count = 3
duration_s = 5
warmup_s = 1
security_mode = unsecured
seed = 7
"""

SMOKE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scenarios", "smoke.ini")


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO)
    return str(path)


def test_run_subcommand(scenario_file, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = main(["run", "--scenario", scenario_file, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "scenario cli-check seed=7" in printed
    assert "beacons sent:" in printed
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 2
    assert rows[1][0] == "cli-check" and rows[1][1] == "7"


def test_run_with_overrides(scenario_file, capsys):
    code = main(["run", "--scenario", scenario_file, "--seed", "99",
                 "--set", "vehicle_count=2", "--set", "duration_s=4"])
    assert code == 0
    assert "seed=99" in capsys.readouterr().out


def test_overrides_are_validated_together_in_any_order(capsys):
    """Only the final configuration is validated: a warm-up that fits the
    shortened run is accepted whether it is set before or after the new
    duration, and a bad final configuration exits 2 before any work."""
    shorten = ["--set", "duration_s=1.5"]
    warm = ["--set", "warmup_s=1"]
    assert main(["run", "--scenario", SMOKE] + shorten + warm) == 0
    printed = capsys.readouterr().out
    assert "scenario smoke seed=7" in printed
    assert main(["run", "--scenario", SMOKE] + warm + shorten) == 0
    assert capsys.readouterr().out == printed

    assert main(["sweep", "--scenario", SMOKE,
                 "--grid", "duration_s=1.5", "--grid", "warmup_s=1"]) == 0
    assert "scenario smoke#0 seed=" in capsys.readouterr().out

    assert main(["run", "--scenario", SMOKE] + warm + ["--set", "duration_s=0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "warmup_s must lie inside the run" in captured.err


def test_overrides_and_grid_axes_may_name_a_field(scenario_file, capsys):
    """``[braking] enabled`` sets ``braking_enabled``; an override or a grid
    axis may also name the field itself."""
    assert main(["run", "--scenario", scenario_file, "--set", "braking_enabled=true"]) == 0
    assert main(["sweep", "--scenario", scenario_file,
                 "--grid", "braking_enabled=true,false"]) == 0
    assert "scenario cli-check#1 seed=" in capsys.readouterr().out


def test_run_rejects_bad_override(scenario_file, capsys):
    assert main(["run", "--scenario", scenario_file, "--set", "bogus=1"]) == 2
    assert main(["run", "--scenario", scenario_file, "--set", "novalue"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_a_budget_below_one_first_contact(capsys):
    """One unit a second could never pay for a first contact, which waits at
    the queue head for two, so the run would deliver nothing: it is refused
    before it starts."""
    assert main(["run", "--scenario", SMOKE, "--set", "budget_per_second=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget_per_second must be >= 2" in captured.err


def test_run_with_a_range_whose_square_overflows_puts_everyone_in_range(capsys):
    """A range past about 1.3e154 m squares to inf rather than raising, so
    the run completes and each vehicle hears the other."""
    assert main(["run", "--scenario", SMOKE, "--set", "vehicle_count=2",
                 "--set", "tx_range_m=1e300", "--set", "duration_s=3"]) == 0
    assert "delivered to app:      0" not in capsys.readouterr().out


def test_run_rejects_a_speed_a_beacon_cannot_carry(capsys):
    """Velocity is a 4-byte float on the wire: a secured run at its largest
    finite value completes, and one above it is refused before it starts."""
    fastest = ["--set", "initial_speed_mps=3.4028234663852886e38", "--set", "duration_s=3"]
    assert main(["run", "--scenario", SMOKE, *fastest]) == 0
    capsys.readouterr()
    assert main(["run", "--scenario", SMOKE, "--set", "initial_speed_mps=1e39"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "initial_speed_mps exceeds" in captured.err


@pytest.mark.parametrize("refused, shortest, needle", [
    (["duration_s=0.0004", "warmup_s=0"], ["duration_s=0.001", "warmup_s=0"],
     "duration_s must round to at least 1 ms"),
    (["duration_s=0.0014", "warmup_s=0.0011"], ["duration_s=0.0014", "warmup_s=0.0004"],
     "warmup_s must lie inside the run"),
    (["cert_validity_s=0.0004"], ["cert_validity_s=0.001"],
     "cert_validity_s must round to at least 1 ms"),
], ids=["duration", "warmup", "cert-validity"])
def test_run_rejects_times_that_round_to_nothing(refused, shortest, needle, capsys):
    """The engine counts whole ms: a run, a post-warm-up window or a
    certificate lifetime that rounds to 0 ms is refused before it starts,
    and the shortest that rounds to 1 ms runs."""
    def run(overrides):
        return main(["run", "--scenario", SMOKE,
                     *[arg for override in overrides for arg in ("--set", override)]])

    assert run(refused) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err
    assert run(shortest) == 0


def test_run_missing_scenario_exits_2(capsys):
    assert main(["run", "--scenario", "/nonexistent.ini"]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(SCENARIO.replace("cli-check", "caf\u00e9").encode("latin-1"))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert main(["run", "--scenario", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_subcommand(scenario_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", scenario_file,
                 "--grid", "beacon_interval_ms=100,200",
                 "--grid", "seed=1,2",
                 "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 5  # header + 2x2 grid
    names = [row[0] for row in rows[1:]]
    assert names == ["cli-check#0", "cli-check#1", "cli-check#2", "cli-check#3"]
    intervals = [row[CSV_COLUMNS.index("beacon_interval_ms")] for row in rows[1:]]
    assert intervals == ["100", "100", "200", "200"]  # first axis outermost


def test_sweep_with_two_jobs_writes_the_serial_csv(tmp_path):
    """``--jobs 2`` runs the grid in a pool of two worker processes and
    writes the same rows, in grid order, as one process does."""
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", "--scenario", SMOKE, "--grid", "duration_s=3",
                     "--grid", "seed=1,2", "--jobs", jobs, "--out", str(out)]) == 0
        written.append(out.read_text())
    serial, pooled = written
    assert pooled == serial
    rows = list(csv.reader(serial.splitlines()))
    assert [row[CSV_COLUMNS.index("seed")] for row in rows[1:]] == ["1", "2"]


def test_sweep_without_grid_exits_2(scenario_file, capsys):
    assert main(["sweep", "--scenario", scenario_file]) == 2
    assert "grid axis" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["name=alpha,beta", "scenario.name=alpha"])
def test_sweep_rejects_a_grid_axis_that_sets_the_name(axis, capsys):
    """Each grid point is named ``<base name>#<index>``, which would
    overwrite a swept name, so such an axis is refused."""
    assert main(["sweep", "--scenario", SMOKE, "--grid", axis]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot set the name" in captured.err


def test_validate_subcommand(scenario_file, tmp_path, capsys):
    assert main(["validate", "--scenario", scenario_file]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nvehicle_count = 0\n")
    assert main(["validate", "--scenario", str(bad)]) == 2


def test_selftest_subcommand(capsys):
    code = main(["selftest", "--hsm-sequences", "200",
                 "--gateway-events", "500", "--crypto", "fast"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "selftest: PASS" in printed
    assert "hsm security suite" in printed
    assert "gateway suite" in printed


@pytest.mark.parametrize("counts", [("0", "10"), ("10", "-3"), ("ten", "10")])
def test_selftest_rejects_counts_below_one(counts, capsys):
    """No sequences or events would test nothing: a usage error, not a
    failed HSM or a passing gateway."""
    sequences, events = counts
    with pytest.raises(SystemExit) as exit_info:
        main(["selftest", "--hsm-sequences", sequences, "--gateway-events", events,
              "--crypto", "fast"])
    assert exit_info.value.code == 2
    assert "must be a whole number of at least 1" in capsys.readouterr().err
