import json
import math

import pytest

from catcorr.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_report_pure_orthogonal_branches(capsys):
    code, out, err = run_cli(capsys, "report", "--n", "2", "--p", "0", "0",
                             "--parity", "even", "--pure", "--k", "1")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert rows[0]["discord"] == "0.5"
    assert rows[0]["concurrence"] == "1"
    assert rows[0]["branch"] == "pure"


def test_report_mixed_frozen_example(capsys):
    code, out, _ = run_cli(capsys, "report", "--n", "3", "--p", "0.5", "0.5", "0.5",
                           "--parity", "even", "--pair", "1", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["discord"] - 5.0 / 36.0) < 1e-9
    assert abs(payload["discord"] - payload["discord_numeric"]) < 1e-9
    assert payload["branch"] == "mixed_plus"
    assert payload["spec"]["parity"] == "even"
    assert payload["selection"]["pair"] == [1, 2]


def test_report_divergent_spec_exits_2(capsys):
    code, out, err = run_cli(capsys, "report", "--n", "3", "--p", "1", "1", "1",
                             "--parity", "odd")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "null" in err or "normalization" in err


def test_report_validation_failures_exit_2(capsys):
    cases = [
        ["report", "--n", "3", "--p", "0.5", "0.5", "0.5"],                # no selection
        ["report", "--p", "0.5", "0.5", "--pair", "1", "1"],               # equal pair
        ["report", "--p", "0.5", "0.5", "--pair", "1", "3"],               # out of range
        ["report", "--p", "0.5", "1.5", "--pair", "1", "2"],               # bad overlap
        ["report", "--n", "3", "--p", "0.5", "0.5", "--pair", "1", "2"],   # n mismatch
        ["report", "--p", "0.5", "0.5", "--family", "wh", "--z", "1.0",
         "--pair", "1", "2"],                                              # both inputs
        ["report", "--n", "2", "--family", "su2", "--z", "0.5", "--j", "0.3",
         "--pair", "1", "2"],                                              # bad spin label
        ["report", "--p", "0.5", "0.5", "--pair", "1", "2", "--time", "1"],  # time, no rate
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_report_family_translation(capsys):
    # wh family at |z|^2 = ln(2)/2 lands on p = 1/2 per mode
    z = str(math.sqrt(math.log(2.0) / 2.0))
    code, out, _ = run_cli(capsys, "report", "--n", "3", "--family", "wh",
                           "--z", z, "--pair", "1", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["spec"]["overlaps"][0] - 0.5) < 1e-9
    assert abs(payload["discord"] - 5.0 / 36.0) < 1e-8


def test_report_trajectory_block(capsys):
    code, out, _ = run_cli(capsys, "report", "--n", "4", "--p", "0.5", "0.5",
                           "0.5", "0.5", "--pair", "1", "2", "--rate", "1",
                           "--time", "0.25", "--format", "json")
    assert code == 0
    block = json.loads(out)["trajectory"]
    assert abs(block["gamma"] - (1.0 - math.exp(-0.25))) < 1e-9
    assert abs(block["sudden_death_time"] - math.log(5.0 / 3.0)) < 1e-9
    assert block["concurrence"] < json.loads(out)["concurrence"]


def test_report_pure_trajectory_never_dies(capsys):
    code, out, _ = run_cli(capsys, "report", "--n", "2", "--p", "0.5", "0.5",
                           "--pure", "--k", "1", "--rate", "1", "--time", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    block = payload["trajectory"]
    assert block["sudden_death_time"] == "infinite"
    assert block["concurrence"] > 0.0
    # exponential decay of the split concurrence
    assert abs(block["concurrence"] - payload["concurrence"] * math.exp(-2.0)) < 1e-8


def test_json_output_roundtrips_byte_identically(capsys):
    _, out, _ = run_cli(capsys, "report", "--n", "3", "--p", "0.3", "0.6", "0.9",
                        "--parity", "odd", "--pair", "2", "3", "--format", "json")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_csv_output_is_deterministic(capsys):
    args = ("sweep", "--n", "3", "--parity", "even", "--pair", "1", "2",
            "--steps", "11")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert first.endswith("\n")


def test_sweep_column_contract(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--parity", "even",
                           "--pair", "1", "2", "--steps", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["p", "discord_closed", "discord_numeric", "branch",
                      "concurrence", "lambda1", "lambda2", "lambda3"]
    assert len(rows) == 5
    assert rows[0]["p"] == "0" and rows[-1]["p"] == "1"
    # endpoints carry no discord
    assert float(rows[0]["discord_closed"]) == 0.0
    assert float(rows[-1]["discord_closed"]) == 0.0
    for row in rows:
        assert abs(float(row["discord_closed"]) - float(row["discord_numeric"])) < 1e-8


def test_sweep_pure_mode_and_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--pure", "--k", "1",
                           "--steps", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][0] == "p"
    assert len(payload["rows"]) == 5
    assert payload["rows"][0]["p"] == 0.0
    assert payload["rows"][0]["discord_closed"] == 0.5
    assert all(row["branch"] == "pure" for row in payload["rows"])


def test_sweep_family_grid_translates_labels(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--pure", "--k", "1",
                           "--family", "su2", "--j", "1", "--z-start", "0",
                           "--z-stop", "0.5", "--steps", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "p"
    # z = 0 maps to unit overlap; z = 0.5 to 0.36
    assert float(rows[0]["p"]) == 1.0
    assert abs(float(rows[-1]["p"]) - 0.36) < 1e-8


def test_sweep_validation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "3", "--pair", "1", "2",
                           "--steps", "1")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "sweep", "--n", "3", "--pair", "1", "2",
                           "--p-stop", "1.5")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "sweep", "--pair", "1", "2")
    assert code == 2


def test_sweep_rejects_inputs_it_would_ignore(capsys):
    # sweep has no --p or --z: argparse rejects them instead of running
    # the default grid
    for argv in (["sweep", "--n", "3", "--p", "0.9", "0.9", "0.9", "--pair", "1", "2"],
                 ["sweep", "--n", "3", "--z", "0.4", "--pair", "1", "2"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--pure", "--k", "1",
                             "--pair", "1", "2")
    assert code == 2 and out == ""
    assert err == "error: give either --pure/--k or --pair, not both\n"


def test_evolve_matches_report_at_time_zero(capsys):
    _, evolve_out, _ = run_cli(capsys, "evolve", "--n", "4", "--p", "0.5", "0.5",
                               "0.5", "0.5", "--pair", "1", "2", "--rate", "1",
                               "--t-max", "1", "--steps", "5")
    _, report_out, _ = run_cli(capsys, "report", "--n", "4", "--p", "0.5", "0.5",
                               "0.5", "0.5", "--pair", "1", "2")
    _, evolve_rows = parse_csv(evolve_out)
    _, report_rows = parse_csv(report_out)
    assert evolve_rows[0]["t"] == "0"
    assert evolve_rows[0]["discord"] == report_rows[0]["discord"]
    assert evolve_rows[0]["concurrence"] == report_rows[0]["concurrence"]


def test_evolve_column_contract_and_death_summary(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--n", "4", "--p", "0.5", "0.5",
                           "0.5", "0.5", "--pair", "1", "2", "--rate", "1",
                           "--t-max", "1", "--steps", "9")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "gamma", "discord", "concurrence"]
    summary = [line for line in out.splitlines() if line.startswith("#")]
    assert len(summary) == 1
    t0 = float(summary[0].split("=")[1])
    assert abs(t0 - math.log(5.0 / 3.0)) < 1e-8
    # concurrence is zero strictly beyond the death time
    for row in rows:
        if float(row["t"]) > t0:
            assert float(row["concurrence"]) == 0.0
        if float(row["t"]) < t0:
            assert float(row["concurrence"]) > 0.0
        assert float(row["discord"]) > 0.0


def test_evolve_two_modes_never_dies(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--n", "2", "--p", "0.5", "0.5",
                           "--rate", "1", "--t-max", "3", "--steps", "7",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sudden_death_time"] == "infinite"
    assert all(row["concurrence"] > 0.0 for row in payload["rows"])
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_evolve_validation(capsys):
    code, _, err = run_cli(capsys, "evolve", "--n", "2", "--p", "0.5", "0.5",
                           "--t-max", "1")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "evolve", "--n", "2", "--p", "0.5", "0.5",
                           "--rate", "1")
    assert code == 2


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--pair", "1", "2",
                           "--steps", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("p,discord_closed")
    assert text.endswith("\n")


def test_verify_passes_at_default_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--samples", "25",
                           "--search-samples", "6", "--seed", "11")
    assert code == 0
    assert "verify: PASS" in out
    assert out.count("PASS") == 6  # five assertions plus the summary


def test_verify_fails_honestly_at_machine_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--samples", "10",
                           "--search-samples", "4", "--tol", "1e-16")
    assert code == 1
    assert "verify: FAIL" in out
    assert "worst:" in out


def test_verify_rejects_sample_counts_below_one(capsys):
    for argv in (["verify", "--samples", "0"],
                 ["verify", "--samples", "-5"],
                 ["verify", "--samples", "10", "--search-samples", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "at least 1" in err, argv


def test_verify_deterministic_output(capsys):
    args = ("verify", "--samples", "15", "--search-samples", "5", "--seed", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_unknown_arguments_exit_2(capsys):
    code, _, _ = run_cli(capsys, "report", "--nonsense")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
