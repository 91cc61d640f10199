import dataclasses
import json
import math
import sys
from collections import Counter

import pytest

import numpy as np

import catcorr.cli
from catcorr.cli import main
from catcorr.correlations import geometric_discord_numeric, mixed_discord_closed
from catcorr.dephasing import DephasingParams
from catcorr.errors import CatcorrError, DivergentNormalizationError
from catcorr.kernels import WEYL_HEISENBERG, overlap, su2, su11
from catcorr.states import Parity, SuperpositionSpec, reduced_pair_density
from reference import closed_reference


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
        ["report", "--p", "0.5", "0.5", "--pair", "1", "2", "--rate", "inf"],  # infinite rate
        # an infinite time printed "time": Infinity, which is not JSON
        ["report", "--p", "0.5", "0.6", "--pair", "1", "2", "--rate", "1", "--time", "inf",
         "--format", "json"],
        ["report", "--p", "0.5", "0.6", "--pair", "1", "2", "--rate", "1", "--time", "nan"],
        ["report", "--p", "0.5", "0.5", "0.5", "--pair", "1", "2", "--k", "1"],  # --k, no --pure
        # a finite sudden-death time beyond the largest float once printed "infinite"
        ["report", "--n", "3", "--p", "0.5", "0.6", "0.7", "--pair", "1", "2", "--rate", "1e-320"],
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_family_labels_are_checked_not_ignored(capsys):
    spin = "error: --j must be a positive integer or half-integer\n"
    cases = [
        (["--n", "3", "--p", "0.5", "0.5", "0.5", "--z", "0.3"], "error: --z needs --family\n"),
        (["--n", "3", "--p", "0.5", "0.5", "0.5", "--j", "1"], "error: --j needs --family\n"),
        (["--n", "3", "--p", "0.5", "0.5", "0.5", "--bargmann", "1"],
         "error: --bargmann needs --family\n"),
        (["--n", "3", "--family", "su2", "--z", "0.3", "--j", "inf"], spin),
        (["--n", "3", "--family", "su2", "--z", "0.3", "--j", "nan"], spin),
        (["--n", "3", "--family", "su2", "--z", "0.3", "--j", "1", "--bargmann", "1"],
         "error: the su2 family takes no --bargmann label\n"),
        (["--n", "3", "--family", "su11", "--z", "0.3", "--bargmann", "inf"],
         "error: bargmann_index must be finite\n"),
        (["--n", "3", "--family", "su11", "--z", "0.3", "--bargmann", "1", "--j", "1"],
         "error: the su11 family takes no --j label\n"),
        # a non-finite label amplitude, no longer read as overlap 0 (wh) or nan
        (["--n", "3", "--family", "wh", "--z", "inf"],
         "error: family label z must be finite, got inf\n"),
        (["--n", "3", "--family", "wh", "--z", "nan"],
         "error: family label z must be finite, got nan\n"),
        (["--n", "3", "--family", "su2", "--j", "1", "--z", "inf"],
         "error: family label z must be finite, got inf\n"),
        # a finite label whose |z|^2 overflows, no longer an OverflowError traceback
        (["--n", "3", "--family", "wh", "--z", "1e200"],
         "error: family label |z|^2 overflows a float, got z = 1e+200\n"),
    ]
    for flags, message in cases:
        for command in (["report", "--pair", "1", "2"],
                        ["evolve", "--rate", "1", "--t-max", "1", "--steps", "3"]):
            code, out, err = run_cli(capsys, *command, *flags)
            assert (code, out, err) == (2, "", message), command + flags


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
    # non-finite grid bounds are rejected before the grid is built, so
    # numpy never warns about an inf or nan step
    for bounds in (["--family", "wh", "--z-start", "0", "--z-stop", "inf"],
                   ["--family", "wh", "--z-start", "nan", "--z-stop", "1"],
                   ["--p-start", "nan"], ["--p-stop", "inf"]):
        code, out, err = run_cli(capsys, "sweep", "--n", "3", "--pair", "1", "2",
                                 "--steps", "3", *bounds)
        assert code == 2 and out == "", bounds
        assert err == "error: sweep grid bounds must be finite\n", bounds
    # a finite label whose |z|^2 overflows is refused as report refuses it,
    # not read as p = 0 behind a numpy overflow warning
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--family", "wh", "--z-start", "0",
                             "--z-stop", "1e200", "--steps", "3")
    assert (code, out, err) == (
        2, "", "error: family label |z|^2 overflows a float, got z = 5e+199\n")


def test_family_help_names_the_label_flags_of_each_command(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--help")
    assert "--z-start/--z-stop into overlaps" in " ".join(out.split())
    for command in ("report", "evolve"):
        _, out, _ = run_cli(capsys, command, "--help")
        assert "translate --z into an overlap" in " ".join(out.split()), command


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
    # family labels without --family would leave the default p grid running
    for flags, message in ((["--z-start", "0.1", "--z-stop", "0.2"], "--z-start needs --family"),
                           (["--z-stop", "0.2"], "--z-stop needs --family"),
                           (["--j", "1"], "--j needs --family"),
                           (["--bargmann", "1"], "--bargmann needs --family"),
                           # the default pair ran and the split size was dropped
                           (["--k", "1", "--steps", "3"], "--k needs --pure"),
                           (["--family", "su2", "--j", "inf", "--z-start", "0.1",
                             "--z-stop", "0.2"], "--j must be a positive integer or half-integer"),
                           (["--family", "su11", "--bargmann", "inf", "--z-start", "0.1",
                             "--z-stop", "0.2"], "bargmann_index must be finite"),
                           # a family sweep runs over --z-start/--z-stop, not the p grid
                           (["--family", "wh", "--z-start", "0", "--z-stop", "1", "--steps", "3",
                             "--p-start", "0.5"], "--p-start cannot be used with --family"),
                           (["--family", "wh", "--z-start", "0", "--z-stop", "1", "--steps", "3",
                             "--p-stop", "0.2"], "--p-stop cannot be used with --family")):
        code, out, err = run_cli(capsys, "sweep", "--n", "3", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n"), flags


def _sweep_argv(rng, kind, parity, steps):
    """A random sweep and the overlap grid it runs over, computed as the CLI does."""
    n = int(rng.integers(3, 7))
    if kind == "family":
        family, label, params = [
            ("wh", [], WEYL_HEISENBERG), ("su2", ["--j", "1.5"], su2(3)),
            ("su11", ["--bargmann", "0.7"], su11(0.7))][int(rng.integers(3))]
        z_start = round(float(rng.uniform(0.05, 0.3)), 4)
        z_stop = round(float(rng.uniform(0.5, 0.95)), 4)
        i, j = (int(x) + 1 for x in rng.choice(n, size=2, replace=False))
        argv = ["--family", family, *label, "--z-start", str(z_start), "--z-stop", str(z_stop),
                "--pair", str(i), str(j)]
        grid = [overlap(z, params) for z in np.linspace(z_start, z_stop, steps).tolist()]
        return n, (i, j), argv + ["--steps", str(steps)], grid
    # odd grids run to 1 - 1e-6 at the closest
    p_stop = 1.0 - float(10.0 ** rng.uniform(-6, -1)) if parity == "odd" else 1.0
    p_start = round(float(rng.uniform(0.0, 0.4)), 4)
    if kind == "pure":
        k = int(rng.integers(1, n))
        selection = (tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)))
        argv = ["--pure", "--k", str(k)]
    else:
        selection = tuple(int(x) + 1 for x in rng.choice(n, size=2, replace=False))
        argv = ["--pair", *map(str, selection)]
    argv += ["--p-start", repr(p_start), "--p-stop", repr(p_stop), "--steps", str(steps)]
    return n, selection, argv, np.linspace(p_start, p_stop, steps).tolist()


def test_sweep_rows_equal_pointwise_routes(capsys):
    # every row of the one-pass sweep is the row the single-state API gives
    # for that grid point's SuperpositionSpec, byte for byte
    rng = np.random.default_rng(2026)
    fmt = catcorr.cli._fmt
    for kind in ("mixed", "pure", "family"):
        for parity in ("even", "odd"):
            for side in ("first", "second"):
                # one grid longer than a stacked pass, where odd grids are most delicate
                steps = 700 if (kind, parity) == ("mixed", "odd") else int(rng.integers(40, 90))
                n, selection, flags, grid = _sweep_argv(rng, kind, parity, steps)
                argv = ["sweep", "--n", str(n), "--parity", parity, "--side", side, *flags]
                # the second side measures the first group of the reversed pair
                groups = selection if side == "first" else selection[::-1]
                code, out, err = run_cli(capsys, *argv)
                assert code == 0 and err == "", argv
                rows = out.splitlines()[1:]
                assert len(rows) == len(grid), argv
                for p, row in zip(grid, rows):
                    pair = SuperpositionSpec(overlaps=(p,) * n, parity=Parity(parity)).pair(*groups)
                    closed = mixed_discord_closed(pair)
                    rho = reduced_pair_density(pair)
                    numeric = geometric_discord_numeric(rho).discord
                    expected = [fmt(p), fmt(closed.discord), fmt(numeric), closed.branch.value,
                                fmt(closed.concurrence), *map(fmt, closed.k_eigenvalues)]
                    assert row == ",".join(expected), (argv, p)


@pytest.mark.parametrize("argv, message", [
    ("sweep --n 3 --parity odd --pair 1 2 --steps 5",
     "odd parity with unit overlap product gives a null state"),
    ("sweep --n 3 --parity odd --pure --k 1 --steps 5",
     "odd parity with unit overlap product gives a null state"),
    ("sweep --n 3 --pair 1 5 --steps 5", "mode indices must lie in 1..3, got (1, 5)"),
    # the earliest failing point decides, and at one point the spec fails first:
    # a bad pair fails every point, so it wins unless point 0 is the null state
    ("sweep --n 3 --parity odd --pair 1 5 --steps 5", "mode indices must lie in 1..3, got (1, 5)"),
    ("sweep --n 3 --parity odd --pair 1 5 --p-start 1 --p-stop 0 --steps 5",
     "odd parity with unit overlap product gives a null state"),
    # the points before the null state at p = 1 pass, so the null state decides
    ("sweep --n 3 --parity odd --pair 1 2 --p-start 0.99999999 --p-stop 1 --steps 5",
     "odd parity with unit overlap product gives a null state"),
    # failing points past the first stacked pass of the grid
    ("sweep --n 3 --parity odd --pair 1 2 --p-start 0.5 --p-stop 1 --steps 1200",
     "odd parity with unit overlap product gives a null state"),
    ("sweep --n 3 --pair 1,2 3,1 --steps 5", "pair indices must differ"),
])
def test_sweep_error_exits_are_those_of_the_first_failing_point(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    ("report --n 3 --family wh --z 0.3 --j 1 --pair 1 2",
     "the wh family takes no --j or --bargmann label"),
    ("report --n 3 --family su2 --z 0.3 --pair 1 2", "--family su2 needs --j"),
    ("report --n 3 --family su11 --z 0.3 --pair 1 2", "--family su11 needs --bargmann"),
    ("report --n 3 --family wh --pair 1 2", "--family needs --z"),
    ("report --family wh --z 0.3 --pair 1 2", "--family mode needs an explicit --n"),
    ("report --n 3 --pair 1 2", "overlaps required: give --p or --family with --z"),
    ("report --n 3 --p 0.5 0.5 0.5 --pure", "--pure needs --k"),
    ("sweep --n 3 --family wh --z-start 0", "family sweeps need --z-start and --z-stop"),
    ("evolve --p 0.5 0.5 --rate 1 --t-max 1 --steps 1", "a time grid needs at least 2 steps"),
])
def test_missing_and_conflicting_flags_exit_2(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


# odd grids whose last points lie within 1e-8 of unit overlap, where 1 - P
# formed by cancellation once broke the pair density's trace by ~1e-9
@pytest.mark.parametrize("argv", [
    "sweep --n 3 --parity odd --pair 1 2 --p-start 0.99999999 --p-stop 0.999999999 --steps 5",
    "sweep --n 4 --parity odd --pair 1 2 --p-stop 0.999999999 --steps 401",
    "sweep --n 3 --parity odd --pair 1 2 --p-start 0.99999999 --p-stop 0.9999999999 --steps 4",
    "sweep --n 3 --parity odd --pair 1 2 --p-start 0.9999999 --p-stop 0.999999999 --steps 1500",
    "sweep --n 5 --parity odd --pair 1,4 2,3 --side second --p-start 0.9999 --p-stop 0.99999999999 "
    "--steps 300",
])
def test_near_unit_odd_sweeps_print_the_high_precision_values(capsys, argv):
    args = catcorr.cli.build_parser().parse_args(argv.split())
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    grid = np.linspace(args.p_start or 0.0, args.p_stop, args.steps).tolist()
    cells = {"discord_closed": "discord", "discord_numeric": "discord",
             "concurrence": "concurrence", "lambda1": "lam1", "lambda2": "lam2", "lambda3": "lam3"}
    for p, row in zip(grid, rows):
        exact = closed_reference((p,) * args.n, -1, *args.pair, first=args.side == "first")
        for column, name in cells.items():
            # 9 printed digits: half a unit in the ninth digit, plus rounding
            value = float(exact[name])
            assert abs(float(row[column]) - value) <= 5e-9 * abs(value) + 1e-15, (p, column)


def test_near_unit_even_groups_report_the_high_precision_values(capsys):
    # 50-digit values: discord 2.9999998333e-18, lambda2 5.9999996666e-18,
    # concurrence 2.4494896747e-09; forming 1 - P by cancellation printed
    # 2.99999984e-18, 5.99999968e-18 and 2.44948968e-09
    code, out, err = run_cli(capsys, "report", "--n", "5", "--p", *["0.999999999"] * 5,
                             "--parity", "even", "--pair", "1,2", "3,4,5")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert (rows[0]["discord"], rows[0]["lambda2"], rows[0]["concurrence"]) == (
        "2.99999983e-18", "5.99999967e-18", "2.44948967e-09")


def test_near_unit_pure_odd_pair_reports_exactly_half(capsys):
    # the odd two-mode split has discord 1/2 and concurrence 1 at every p < 1;
    # 1 - p^2 by cancellation once printed discord 0.500000001 here
    code, out, _ = run_cli(capsys, "report", "--n", "2", "--p", "0.99999999", "0.99999999",
                           "--parity", "odd", "--pure", "--k", "1")
    _, rows = parse_csv(out)
    assert code == 0
    assert [rows[0][c] for c in ("discord", "discord_numeric", "concurrence", "branch")] == [
        "0.5", "0.5", "1", "pure"]


def test_evolve_matches_report_at_time_zero(capsys):
    # a rate near the float maximum once made the t = 0 discord NaN:
    # -2 * rate overflowed to -inf before it met t = 0
    for state, rate, static in ((("4", "0.5", "0.5", "0.5", "0.5"), "1", None),
                                (("3", "0.5", "0.6", "0.7"), "1e308", "0.122122806")):
        spec = ["--n", state[0], "--p", *state[1:], "--pair", "1", "2"]
        _, evolve_out, _ = run_cli(capsys, "evolve", *spec, "--rate", rate,
                                   "--t-max", "1", "--steps", "5")
        _, report_out, _ = run_cli(capsys, "report", *spec)
        _, evolve_rows = parse_csv(evolve_out)
        _, report_rows = parse_csv(report_out)
        assert evolve_rows[0]["t"] == "0"
        assert evolve_rows[0]["discord"] == report_rows[0]["discord"]
        assert evolve_rows[0]["concurrence"] == report_rows[0]["concurrence"]
        if static is not None:
            assert report_rows[0]["discord"] == static
        _, dephased_out, _ = run_cli(capsys, "report", *spec, "--rate", rate, "--time", "0")
        _, dephased_rows = parse_csv(dephased_out)
        assert dephased_rows[0]["discord_t"] == dephased_rows[0]["discord"]
    # at rate 1e308 and t = 3, rate * t itself overflows to inf: after t = 0
    # the pair is fully damped, with no warning
    code, evolve_out, err = run_cli(capsys, "evolve", *spec, "--rate", "1e308",
                                    "--t-max", "3", "--steps", "5")
    assert (code, err) == (0, "")
    for row in parse_csv(evolve_out)[1][1:]:
        assert (row["gamma"], row["discord"], row["concurrence"]) == ("1", "0", "0")
    code, report_out, err = run_cli(capsys, "report", *spec, "--rate", "1e308", "--time", "3")
    assert (code, err) == (0, "")
    row = parse_csv(report_out)[1][0]
    assert (row["gamma"], row["discord_t"], row["concurrence_t"]) == ("1", "0", "0")


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
    # non-finite inputs get one error line that names the bad flag
    for flags, message in (
            (["--rate", "1", "--t-max", "inf"], "evolve needs a positive, finite --t-max"),
            (["--rate", "1", "--t-max", "nan"], "evolve needs a positive, finite --t-max"),
            (["--rate", "inf", "--t-max", "1"], "dephasing rate must be positive and finite"),
            # a finite sudden-death time beyond the largest float once printed "infinite"
            (["--rate", "1e-320", "--t-max", "1e300", "--format", "json"],
             "sudden-death time overflows a float at rate 1e-320")):
        code, out, err = run_cli(capsys, "evolve", "--n", "3", "--p", "0.5", "0.5", "0.5",
                                 "--steps", "3", *flags)
        assert code == 2 and out == "", flags
        assert err == f"error: {message}\n", flags


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--pair", "1", "2",
                           "--steps", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("p,discord_closed")
    assert text.endswith("\n")


def test_unwritable_out_path_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    # the path is checked before the command's work: verify never draws a sample
    def unreached(*args):
        raise AssertionError("verify ran before its --out path was checked")

    monkeypatch.setattr(catcorr.cli, "_verify_gaps", unreached)
    target = tmp_path / "absent" / "x.csv"
    for argv in (["report", "--p", "0.5", "0.6", "0.7", "--pair", "1", "2"],
                 ["verify", "--samples", "2"]):
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, ""), argv
        assert err == f"error: cannot write {target}: No such file or directory\n", argv
    assert not target.parent.exists()


def test_failing_command_leaves_out_file_as_it_was(tmp_path, capsys):
    # an exit 2 creates no --out file and leaves an existing one untouched;
    # a success replaces all of an existing file's text
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("earlier text, longer than the report that replaces it\n" * 20)
    before = kept.read_bytes()
    for argv in (["report", "--p", "0.5", "1.5", "--pair", "1", "2"],
                 ["sweep", "--n", "3", "--parity", "odd", "--p-start", "0.9", "--steps", "3"],
                 ["evolve", "--n", "3", "--p", "0.5", "0.5", "0.5", "--rate", "1e-320",
                  "--t-max", "1e300", "--steps", "3"]):
        for target in (kept, absent):
            code, out, err = run_cli(capsys, *argv, "--out", str(target))
            assert (code, out) == (2, "") and err.startswith("error:"), argv
    assert kept.read_bytes() == before and not absent.exists()
    argv = ["report", "--p", "0.5", "0.6", "0.7", "--pair", "1", "2"]
    _, expected, _ = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--out", str(kept)) == (0, "", "")
    assert kept.read_text() == expected


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


def _uniform_verify_samples(rng, count: int, make_spec=SuperpositionSpec) -> list:
    """verify's draw as it read through Generator.uniform, literally: the
    reference that the raw-word draw must equal bit for bit."""
    samples = []
    while len(samples) < count:
        n = int(rng.integers(2, 7))
        ps = rng.uniform(0.0, 1.0, size=n)
        parity = Parity.EVEN if rng.uniform() < 0.5 else Parity.ODD
        try:
            spec = make_spec(overlaps=tuple(ps), parity=parity)
        except CatcorrError:
            continue
        i, j = sorted(int(x) + 1 for x in rng.choice(n, size=2, replace=False))
        side = "first" if rng.uniform() < 0.5 else "second"
        rate = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(0.0, 3.0))
        gamma = float(rng.uniform(0.0, 1.0))
        samples.append((spec, i, j, side, rate, t, gamma))
    return samples


def test_verify_draw_is_bitwise_the_uniform_draw():
    # uniform(lo, hi) is lo + (hi - lo) * random() in numpy's Generator, so the
    # cheaper calls give the same values, of the same types, and leave the
    # generator in the same state
    def fields(sample):
        spec, *rest = sample
        return [(type(v), v) for v in (*spec.overlaps, spec.parity, *rest)]

    for seed in range(100):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = catcorr.cli._random_verify_samples(rngs[0], 60)
        expected = _uniform_verify_samples(rngs[1], 60)
        assert [fields(s) for s in drawn] == [fields(s) for s in expected]
        assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("r", [0, 1, 4, 5, 3 * 2**30, 2**31 + 1, 2**32 - 3])
def test_raw_bounded_draw_is_generator_integers(r):
    # Lemire's rule rejects a draw with probability (2^32 mod (r + 1)) / 2^32:
    # about 1/4 at 3 * 2^30 and near 1/2 at 2^31 + 1; the value of each draw and
    # the state after it, the buffered half word included, are the Generator's
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(seed % 3):  # a half word buffered before the draw, or not
            assert rng.integers(0, 5) == ref.integers(0, 5)
        draw = catcorr.cli._RawDraw(rng, 4)
        values = [draw.bounded(r) for _ in range(9)]
        draw.close()
        assert values == [int(ref.integers(0, r + 1)) for _ in range(9)]
        assert rng.bit_generator.state == ref.bit_generator.state


def test_raw_two_of_n_draw_is_generator_choice():
    for n in range(2, 7):
        for seed in range(1000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            draw = catcorr.cli._RawDraw(rng, 2)
            pairs = [draw.two_of(n) for _ in range(3)]
            draw.close()
            assert pairs == [tuple(sorted(int(x) for x in ref.choice(n, 2, replace=False)))
                             for _ in range(3)]
            assert rng.bit_generator.state == ref.bit_generator.state


def test_verify_draw_skips_a_spec_that_raises(monkeypatch):
    # a spec that raises is dropped before its pair is drawn, in the reference
    # and in the raw-word draw alike: the samples and the end state still match
    def raising_at(calls):
        made = []

        def make(**kwargs):
            made.append(kwargs)
            if len(made) - 1 in calls:
                raise DivergentNormalizationError("drawn to raise")
            return SuperpositionSpec(**kwargs)
        return make, made

    for seed, calls in ((1, {0}), (2, {3, 4, 9}), (3, set(range(1, 40, 2)))):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        make, made = raising_at(calls)
        monkeypatch.setattr(catcorr.cli, "SuperpositionSpec", make)
        drawn = catcorr.cli._random_verify_samples(rngs[0], 25)
        assert len(made) == 25 + len(calls)
        make, _ = raising_at(calls)
        expected = _uniform_verify_samples(rngs[1], 25, make)
        assert [(s[0].overlaps, *s[1:]) for s in drawn] == [(s[0].overlaps, *s[1:])
                                                             for s in expected]
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_verify_fails_a_nan_deviation(monkeypatch, capsys):
    # a NaN gap is the worst of its check, the first NaN sample its worst
    # sample, and no bound passes it
    closed = catcorr.cli.discord_trajectory
    samples = catcorr.cli._random_verify_samples(np.random.default_rng(20260817), 5)
    nan_times = [samples[2][5], samples[4][5]]

    def nan_discord(pair, rate, time):
        # a stacked call: NaN at the members that are samples 2 and 4
        report = closed(pair, rate, time)
        return dataclasses.replace(
            report, discord=np.where(np.isin(time, nan_times), math.nan, report.discord))

    monkeypatch.setattr(catcorr.cli, "discord_trajectory", nan_discord)
    code, out, _ = run_cli(capsys, "verify", "--samples", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == "trajectory_consistency   samples=5 max_deviation=nan FAIL"
    assert lines[4] == "    worst: " + catcorr.cli._describe_sample(samples[2])
    assert [line.split()[-1] for line in lines[:3] + lines[5:-1]] == ["PASS"] * 4
    assert lines[-1].startswith("verify: FAIL (4/5")


def test_verify_checks_the_gram_densities_it_reads(monkeypatch, capsys):
    # the Gram route does not check its own result; verify checks the stack
    # it reads, one index-array call per parity, so a bad member exits 2
    # rather than reading as a FAIL line
    gram = catcorr.cli.pair_density_from_overlaps
    calls = []

    def bad_third(spec, i, j):
        # the first stack's third member
        calls.append((i, j))
        stack = gram(spec, i, j)
        if len(calls) == 1:
            stack[2] = np.diag([1.5, -0.5, 0.0, 0.0])
        return stack

    monkeypatch.setattr(catcorr.cli, "pair_density_from_overlaps", bad_third)
    code, out, err = run_cli(capsys, "verify", "--samples", "5")
    assert (code, out) == (2, "")
    assert err == "error: density has eigenvalue -0.5 below -1e-10\n"
    assert len(calls) == 2 and all(i.shape == j.shape == (len(i),) for i, j in calls)


def _verify_selections(rng, count: int, parity: Parity) -> list:
    """(spec, a, b, rate, t) of random samples of one parity, n = 2..6, either
    side measured, overlaps down to 1 - 1e-12."""
    selections = []
    while len(selections) < count:
        n = int(rng.integers(2, 7))
        ps = rng.uniform(0.0, 1.0, size=n)
        near = rng.uniform(size=n) < 0.3
        ps[near] = 1.0 - rng.choice([1e-12, 1e-9, 1e-6], size=near.sum())
        try:
            spec = SuperpositionSpec(overlaps=tuple(ps.tolist()), parity=parity)
        except CatcorrError:
            continue
        a, b = (int(x) + 1 for x in rng.choice(n, size=2, replace=False))
        selections.append((spec, a, b, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 3.0))))
    return selections


def test_verify_gram_stack_is_bitwise_each_sample(rng):
    # on the grid of the selections' overlaps in mode order, padded by unit
    # overlaps, the Gram densities at the index arrays are each sample's own
    for parity in Parity:
        selections = _verify_selections(rng, 60, parity)
        grid, a, b = catcorr.cli._selection_grid([s[:3] for s in selections], parity)
        stack = catcorr.cli.pair_density_from_overlaps(grid, a, b)
        for member, (spec, a, b, *_) in zip(stack, selections):
            assert np.array_equal(member, catcorr.cli.pair_density_from_overlaps(spec, a, b))


def test_verify_closed_stack_is_bitwise_each_sample(rng):
    # the grid's pair at the index arrays, and its density, closed discord,
    # trajectory and gamma, each member bitwise its one-sample value
    for parity in Parity:
        selections = _verify_selections(rng, 60, parity)
        pairs = [spec.pair(a, b) for spec, a, b, *_ in selections]
        rate, t = (np.array([s[k] for s in selections]) for k in (3, 4))
        grid, a, b = catcorr.cli._selection_grid([s[:3] for s in selections], parity)
        pair = grid.pair(a, b)
        assert pair.traced == any(one.traced for one in pairs)
        rho = reduced_pair_density(pair)
        discord = mixed_discord_closed(pair).discord
        traj = catcorr.cli.discord_trajectory(pair, rate, t)
        gamma = DephasingParams(rate=rate, time=t).gamma
        for k, one in enumerate(pairs):
            assert np.array_equal(rho[k], reduced_pair_density(one))
            assert discord[k] == mixed_discord_closed(one).discord
            alone = catcorr.cli.discord_trajectory(one, float(rate[k]), float(t[k]))
            assert (traj.discord[k], traj.concurrence[k]) == (alone.discord, alone.concurrence)
            assert gamma[k] == DephasingParams(rate=float(rate[k]), time=float(t[k])).gamma


def test_verify_rejects_sample_counts_below_one(capsys):
    # also a tolerance no deviation can be compared against; --tol 0 stays legal
    for argv, fragment in ((["verify", "--samples", "0"], "at least 1"),
                           (["verify", "--samples", "-5"], "at least 1"),
                           (["verify", "--samples", "10", "--search-samples", "0"], "at least 1"),
                           (["verify", "--samples", "2", "--tol", "nan"], "--tol"),
                           (["verify", "--samples", "2", "--tol", "-1"], "--tol"),
                           (["verify", "--samples", "2", "--tol", "inf"], "--tol"),
                           (["verify", "--samples", "2", "--seed", "-1"], "--seed")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1 and fragment in err, argv
    code, out, _ = run_cli(capsys, "verify", "--samples", "2", "--search-samples", "1",
                           "--tol", "0")
    assert code in (0, 1) and out.startswith("gram_vs_closed")


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


def _count_calls(monkeypatch, targets) -> Counter:
    """Count calls to each (owner, name) target: on its class for a method,
    at every catcorr module binding for a function."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("catcorr")]

    def counting(label, original):
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        original = getattr(owner, name)
        wrapper = counting(name, original)
        owners = [owner] if isinstance(owner, type) else [
            m for m in modules if vars(m).get(name) is original]
        for bound in owners:
            monkeypatch.setattr(bound, name, wrapper)
    return counts


# a sweep evaluates its whole grid in one pass, and evolve its whole time grid
# (its trajectory pass, its gamma column and sudden_death_time's t = 0 call),
# so their counts are per request; a selection's inputs are formed once per
# request, and in verify once per parity, as are its closed routes
@pytest.mark.parametrize("argv, exact", [
    ("sweep --n 3 --parity even --pair 1 2 --steps 100",
     {"pair": 1, "pair_k_spectrum": 1, "reduced_pair_density": 1}),
    ("sweep --n 3 --parity even --pure --k 1 --steps 100",
     {"pair": 1, "pair_k_spectrum": 1, "reduced_pair_density": 1}),
    ("sweep --n 5 --parity odd --pair 1,3 5 --p-stop 0.99 --steps 100",
     {"pair": 1, "pair_k_spectrum": 1, "reduced_pair_density": 1}),
    ("report --n 4 --p 0.5 0.6 0.7 0.8 --pure --k 2 --rate 1 --time 0.5",
     {"pair": 1, "pair_k_spectrum": 3, "reduced_pair_density": 1, "apply_dephasing": 0}),
    ("evolve --n 4 --p 0.5 0.5 0.5 0.5 --pair 1 2 --rate 1 --t-max 1.5 --steps 100",
     {"__post_init__": 3, "pair": 1, "pair_k_spectrum": 2}),
    # closed and Gram routes once per parity (the closed discord and the
    # trajectory each form the K spectrum; the trajectory checks the rate),
    # the time-t damping once over all samples; the Gram stack is checked
    # once, and each numeric route runs once, over all samples, the search on
    # the first 48: 1 + 5 density checks
    ("verify --samples 100",
     {"pair": 2, "reduced_pair_density": 2, "pair_k_spectrum": 4, "__post_init__": 3,
      "pair_density_from_overlaps": 2, "apply_dephasing": 2, "k_spectrum_discord": 1,
      "discord_by_measurement_search": 1, "check_density": 6}),
])
def test_each_point_computes_closed_data_once(monkeypatch, capsys, argv, exact):
    correlations, states = catcorr.correlations, catcorr.states
    counts = _count_calls(monkeypatch, [
        (correlations, "pair_k_spectrum"), (correlations, "k_spectrum_discord"),
        (states, "reduced_pair_density"), (states, "check_density"),
        (catcorr.dephasing, "apply_dephasing"), (catcorr.oracle, "discord_by_measurement_search"),
        (catcorr.oracle, "pair_density_from_overlaps"), (SuperpositionSpec, "pair"),
        (DephasingParams, "__post_init__")])
    code, _, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert {name: counts[name] for name in exact} == exact


def test_a_failing_sweep_runs_no_closed_route(monkeypatch, capsys):
    # the null state at p = 1 fails the grid; its first point checks the selection
    counts = _count_calls(monkeypatch, [(catcorr.correlations, "pair_k_spectrum")])
    assert run_cli(capsys, *"sweep --n 3 --parity odd --pair 1 2 --steps 5".split()) == (
        2, "", "error: odd parity with unit overlap product gives a null state\n")
    assert counts["pair_k_spectrum"] == 0


def test_group_pairs_through_unit_and_zero_overlaps_print_clean_cells(capsys):
    # p = 1 rows print 0, never -0 (-expm1(0.0) is -0.0), and p = 0 rows of
    # odd groups take log1p(-1) without a numpy warning, which pytest raises
    for argv in ("sweep --n 3 --parity even --pure --k 1 --steps 5",
                 "sweep --n 4 --parity even --pair 1,2 3,4 --steps 5",
                 "sweep --n 4 --parity odd --pair 1,2 3,4 --p-stop 0.99 --steps 5",
                 "sweep --n 5 --parity odd --pure --k 2 --p-stop 0.99 --steps 5 --format json",
                 "sweep --n 5 --parity odd --pair 1,2 4 --p-stop 0.99 --steps 5"):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, ""), argv
        cells = out.replace("\n", ",").replace(" ", ",").split(",")
        assert "-0" not in cells and "-0.0" not in cells, argv


def test_pure_and_pair_spellings_of_one_cut_print_the_same(capsys):
    # --pure --k K is --pair 1,...,K K+1,...,n: the same bytes, mode and branch pure
    outputs = set()
    for selection in (["--pure", "--k", "2"], ["--pair", "1,2", "3,4"]):
        code, out, err = run_cli(capsys, "report", "--n", "4", "--p", "0.5", "0.6", "0.7", "0.8",
                                 "--parity", "odd", *selection, "--rate", "1", "--time", "0.4")
        assert (code, err) == (0, "")
        outputs.add(out)
    assert len(outputs) == 1
    _, rows = parse_csv(outputs.pop())
    assert (rows[0]["mode"], rows[0]["selection"], rows[0]["branch"]) == ("pure", "2", "pure")
    assert rows[0]["sudden_death_time"] == "infinite"
    # any other selection reads as its groups; traced-out modes make it mixed
    code, out, _ = run_cli(capsys, "report", "--n", "4", "--p", "0.5", "0.6", "0.7", "0.8",
                           "--pair", "1,3", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["selection"] == {"mode": "mixed", "pair": [[1, 3], 4]}
    assert payload["branch"] in ("mixed_plus", "mixed_minus")
    code, out, _ = run_cli(capsys, "report", "--n", "4", "--p", "0.5", "0.6", "0.7", "0.8",
                           "--pair", "1,3", "4")
    _, rows = parse_csv(out)
    assert rows[0]["selection"] == "1 3-4"
    for bad in (["--pair", "1,2", "2"], ["--pair", "1,5", "2"], ["--pure", "--k", "4"]):
        code, out, err = run_cli(capsys, "report", "--n", "4", "--p", "0.5", "0.6", "0.7", "0.8",
                                 *bad)
        assert code == 2 and out == "" and err.startswith("error:"), bad


@pytest.mark.parametrize("command", [
    "report --n 4 --p 0.5 0.6 0.7 0.8 --parity {parity} --rate 1 --time 0.4",
    "report --n 4 --p 0.5 0.6 0.7 0.8 --parity {parity} --format json",
    "sweep --n 4 --parity {parity} --p-stop 0.99 --steps 40",
    "evolve --n 4 --p 0.3 0.6 0.8 0.4 --parity {parity} --rate 0.7 --t-max 3 --steps 40",
])
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("groups", [("1", "2"), ("1,3", "4"), ("4", "1,2,3")])
def test_second_side_is_the_first_side_of_the_reversed_pair(capsys, command, parity, groups):
    # --side second --pair A B is a spelling of --side first --pair B A; only
    # report's selection labels tell the two apart
    def numbers(side, pair):
        argv = command.format(parity=parity).split() + ["--side", side, "--pair", *pair]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if argv[0] != "report":
            return out
        row = json.loads(out) if "json" in argv else parse_csv(out)[1][0]
        return {key: val for key, val in row.items()
                if key not in ("selection", "measurement_side")}

    assert numbers("second", groups) == numbers("first", groups[::-1])


def test_parser_built_once_parses_each_request_afresh(capsys):
    # main reuses one parser: a later request sees none of an earlier one's flags
    assert catcorr.cli.build_parser() is catcorr.cli.build_parser()
    base = ["report", "--n", "3", "--p", "0.5", "0.6", "0.7", "--pair", "1", "2"]
    code, out, _ = run_cli(capsys, *base, "--rate", "1", "--time", "0.3")
    assert code == 0 and "sudden_death_time" in out.splitlines()[0]
    code, out, err = run_cli(capsys, *base)
    assert (code, err) == (0, "")
    assert out.splitlines()[0].split(",")[-1] == "lambda3"
    # an argparse error still exits 2 with the message a freshly built parser gives
    code, out, err = run_cli(capsys, "report", "--side", "third")
    assert (code, out) == (2, "") and "invalid choice: 'third'" in err
    with pytest.raises(SystemExit):
        catcorr.cli.build_parser.__wrapped__().parse_args(["report", "--side", "third"])
    assert capsys.readouterr().err == err
    assert run_cli(capsys, "report", "--side", "third") == (2, "", err)
