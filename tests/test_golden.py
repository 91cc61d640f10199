"""Byte-for-byte CLI output against recorded golden files.

Each file under tests/golden/ holds the stdout of one command. A change
that only restructures code must leave every file matching; a change
that alters output on purpose replaces the affected files in the same
commit and says why.
"""

from pathlib import Path

import pytest

from catcorr.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "report_pure.csv": ["report", "--n", "3", "--p", "0.3", "0.6", "0.9", "--parity", "odd",
                        "--pure", "--k", "1"],
    "report_pure.json": ["report", "--n", "3", "--p", "0.3", "0.6", "0.9", "--parity", "odd",
                         "--pure", "--k", "1", "--format", "json"],
    "report_pure_rate.csv": ["report", "--n", "2", "--p", "0.4", "0.7", "--pure", "--k", "1",
                             "--rate", "0.8", "--time", "0.5"],
    "report_mixed_rate.csv": ["report", "--n", "4", "--p", "0.5", "0.6", "0.7", "0.8",
                              "--parity", "even", "--pair", "1", "3", "--side", "second",
                              "--rate", "1", "--time", "0.3"],
    "report_mixed_rate.json": ["report", "--n", "4", "--p", "0.5", "0.6", "0.7", "0.8",
                               "--parity", "even", "--pair", "1", "3", "--side", "second",
                               "--rate", "1", "--time", "0.3", "--format", "json"],
    "report_groups.json": ["report", "--n", "4", "--p", "0.5", "0.6", "0.7", "0.8", "--parity",
                           "odd", "--pair", "1,3", "4", "--format", "json"],
    "sweep_mixed_even.csv": ["sweep", "--n", "3", "--parity", "even", "--pair", "1", "2",
                             "--steps", "7"],
    "sweep_mixed_odd.csv": ["sweep", "--n", "4", "--parity", "odd", "--pair", "2", "4",
                            "--side", "second", "--p-start", "0.1", "--p-stop", "0.999",
                            "--steps", "7"],
    "sweep_pure.json": ["sweep", "--n", "3", "--parity", "odd", "--pure", "--k", "2",
                        "--p-stop", "0.99", "--steps", "7", "--format", "json"],
    # odd mixed pair crossing from mixed_minus to mixed_plus: string cells in JSON rows
    "sweep_mixed_odd.json": ["sweep", "--n", "5", "--parity", "odd", "--pair", "2", "5",
                             "--p-start", "0.05", "--p-stop", "0.95", "--steps", "9",
                             "--format", "json"],
    "sweep_su11.json": ["sweep", "--n", "3", "--family", "su11", "--bargmann", "1.5",
                        "--z-start", "0", "--z-stop", "0.8", "--pair", "1", "3", "--steps", "7",
                        "--format", "json"],
    "sweep_su2.csv": ["sweep", "--n", "3", "--family", "su2", "--j", "1.5", "--z-start", "0",
                      "--z-stop", "0.8", "--pair", "1", "3", "--steps", "7"],
    "evolve.csv": ["evolve", "--n", "4", "--p", "0.5", "0.6", "0.7", "0.8", "--parity", "odd",
                   "--pair", "1", "2", "--rate", "1", "--t-max", "2", "--steps", "7"],
    "evolve.json": ["evolve", "--n", "4", "--p", "0.5", "0.6", "0.7", "0.8", "--parity", "odd",
                    "--pair", "1", "2", "--rate", "1", "--t-max", "2", "--steps", "7",
                    "--format", "json"],
    "evolve_two_modes.csv": ["evolve", "--n", "2", "--p", "0.5", "0.5", "--rate", "1",
                             "--t-max", "3", "--steps", "7"],
    # n = 2: nothing traced out, the summary is the string "infinite"
    "evolve_two_modes.json": ["evolve", "--n", "2", "--p", "0.5", "0.5", "--rate", "1",
                              "--t-max", "3", "--steps", "7", "--format", "json"],
    # minus-to-plus branch crossing at t_c = 0.401, between two rows
    "evolve_crossing.csv": ["evolve", "--n", "3", "--p", "0.9", "0.9", "0.9", "--parity", "odd",
                            "--pair", "1", "2", "--rate", "1", "--t-max", "3", "--steps", "31"],
    # p_i = 1: the concurrence product is -0.0 after death and prints as 0.0
    "evolve_unit_mode.json": ["evolve", "--n", "3", "--p", "1", "1", "0.3", "--pair", "1", "2",
                              "--rate", "1", "--t-max", "5", "--steps", "41", "--format", "json"],
    "verify.txt": ["verify", "--samples", "20"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    expected = (GOLDEN / name).read_bytes().decode("utf-8")
    assert captured.out == expected
