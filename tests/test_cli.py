"""Command line interface: subcommands, exit codes, CSV output."""

from __future__ import annotations

import csv

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


def test_run_rejects_bad_override(scenario_file, capsys):
    assert main(["run", "--scenario", scenario_file, "--set", "bogus=1"]) == 2
    assert main(["run", "--scenario", scenario_file, "--set", "novalue"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_sweep_without_grid_exits_2(scenario_file, capsys):
    assert main(["sweep", "--scenario", scenario_file]) == 2
    assert "grid axis" in capsys.readouterr().err


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
