import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import ab  # noqa: E402


def test_paired_ratio_statistics_on_synthetic_times():
    # a constant ratio has no spread; the geometric mean of the ratios is exact
    parent = [0.001 * (1 + k % 7) for k in range(50)]
    constant = ab.paired_ratio(parent, [0.6 * t for t in parent])
    assert set(constant) == {"ratio", "interval", "time_ratio", "time_interval"}
    for value in (constant["ratio"], *constant["interval"], constant["time_ratio"],
                  *constant["time_interval"]):
        assert value == pytest.approx(0.6, rel=1e-12)
    # ratios 2^x for x symmetric about 0: their geometric mean is 1
    ratios = [2.0 ** (x / 8) for x in range(-8, 9)] * 2
    ones = [1.0] * len(ratios)
    found = ab.paired_ratio(ones, ratios)
    assert found["ratio"] == pytest.approx(1.0, rel=1e-12)
    # the interval holds the ratio, lies within the extreme ratios, and is
    # the same on every call: the bootstrap's resampling is seeded
    low, high = found["interval"]
    assert 0.5 < low < found["ratio"] < high < 2.0
    assert ab.paired_ratio(ones, ratios) == found
    assert ab.paired_ratio(ones, ratios, seed=1) != found
    # a pair is a ratio: scaling both sides of every pair changes nothing
    scaled = ab.paired_ratio([3.0] * len(ratios), [3.0 * r for r in ratios])
    assert scaled["ratio"] == pytest.approx(found["ratio"], rel=1e-12)
    assert scaled["interval"] == pytest.approx(found["interval"], rel=1e-12)
    with pytest.raises(ValueError):
        ab.paired_ratio([1.0, 2.0], [1.0])


def test_total_time_ratio_weighs_requests_by_their_time():
    # small requests halve and large ones hold: per request the geometric mean
    # is 2^-1/2, while the total time falls only by the small requests' share
    parent = [0.001] * 20 + [0.1] * 20
    change = [0.0005] * 20 + [0.1] * 20
    found = ab.paired_ratio(parent, change)
    assert found["ratio"] == pytest.approx(2.0 ** -0.5, rel=1e-12)
    assert found["time_ratio"] == pytest.approx(2.01 / 2.02, rel=1e-12)
    low, high = found["time_interval"]
    assert found["interval"][1] < low <= found["time_ratio"] <= high
    # the interval of the total-time ratio is a resample statistic like the other
    assert 0.99 < low < high < 1.0


def test_ab_replays_each_verify_searching_every_sample():
    # the stream's argv, then the same draws searched in full, every worst: line printed
    requests = ab._requests([101], 1)
    streamed = [argv for name, argv in ab._streams([101], 1) if name == "verify"]
    widened = [argv for name, argv in requests if name == "verify"][len(streamed):]
    assert len(widened) == len(streamed) == 9
    for stream, wide in zip(streamed, widened):
        samples = stream[stream.index("--samples") + 1]
        assert wide == stream + ["--search-samples", samples, "--tol", "0"]


def test_ab_tallies_moved_lines_by_first_word(capsys):
    # synthetic outcome pairs, no children: per kind, the moved lines of each
    # side counted by their first word, an exit code's under "exit"
    def outcome(code, out, err=""):
        return [0.001, [code, out, err]]

    requests = [("verify", ["verify", "--samples", "2"]), ("verify", ["verify", "--tol", "0"]),
                ("sweep", ["sweep"]), ("report", ["report"])]
    outcomes = [
        (outcome(0, "gram PASS\nsearch_vs_spectrum 1e-10 PASS\nverify: PASS\n"),
         outcome(0, "gram PASS\nsearch_vs_spectrum 1e-15 PASS\nverify: PASS\n")),
        (outcome(1, "search_vs_spectrum 1e-10 FAIL\n    worst: n=2\nverify: FAIL\n"),
         outcome(1, "search_vs_spectrum 1e-15 FAIL\n    worst: n=3\nverify: FAIL\n")),
        (outcome(0, "p,d\n"), outcome(0, "p,d\n")),
        (outcome(0, "x\n"), outcome(2, "", "error: bad\n")),
    ]
    assert ab._report(requests, outcomes) is True
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5:] == ["verify: 2 of 2 argvs differ",
                          "sweep: 0 of 1 argvs differ",
                          "report: 1 of 1 argvs differ",
                          "verify moved lines: search_vs_spectrum -2 +2, worst: -1 +1",
                          "report moved lines: exit -1 +1, x -1 +0, error: -0 +1"]
    assert lines[:3] == ["catcorr verify --samples 2",
                         "  stdout -search_vs_spectrum 1e-10 PASS",
                         "  stdout +search_vs_spectrum 1e-15 PASS"]
    # no moved byte: the counts alone, and no tally
    assert ab._report(requests[2:3], outcomes[2:3]) is False
    assert capsys.readouterr().out == "sweep: 0 of 1 argvs differ\n"


def test_ab_counts_how_moved_deviations_went(capsys):
    # per kind and check, the moved max_deviation= values that fell and rose,
    # after the tally; an unmoved value and a check on one side only are not counted
    def verify(search, gram="2.22044605e-16"):
        return [0.001, [0, f"gram_vs_closed           samples=20 max_deviation={gram} PASS\n"
                           f"search_vs_spectrum       samples=20 max_deviation={search} PASS\n"
                           "verify: PASS (2/2 assertions within tol=1e-06)\n", ""]]

    requests = [("verify", ["verify", "--seed", str(k)]) for k in range(4)]
    outcomes = [(verify("1.9e-15"), verify("1.2e-15")),
                (verify("7e-16"), verify("4e-16", gram="1.1e-16")),
                (verify("3e-16"), verify("5e-16")),
                (verify("3e-16"), [0.001, [0, "verify: PASS (0/0 assertions within tol=1e-06)\n",
                                           ""]])]
    assert ab._report(requests, outcomes) is True
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4:] == [
        "verify: 4 of 4 argvs differ",
        "verify moved lines: search_vs_spectrum -4 +3, gram_vs_closed -2 +1, verify: -1 +1",
        "verify search_vs_spectrum max_deviation: 2 fell, 1 rose",
        "verify gram_vs_closed max_deviation: 1 fell, 0 rose"]


def _files() -> set:
    return {path for folder in ("perfbench", "src") for path in (ROOT / folder).rglob("*")}


def _ab(parent: Path, change: Path) -> subprocess.CompletedProcess:
    # with bytecode writing on, as it is by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "ab.py"), str(parent),
                           str(change), "--blocks", "1", "--seeds", "101"],
                          capture_output=True, text=True, env=env, timeout=300, check=False)


def test_ab_of_a_checkout_against_itself_finds_no_difference_and_prints_one_row_per_workload():
    # the output's shape only: timings on a shared host are not asserted
    before = _files()
    proc = _ab(ROOT, ROOT)
    assert (proc.returncode, proc.stderr) == (0, "")
    # the replay writes nothing, bytecode included, into the checkout it reads or perfbench/
    assert _files() == before
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["sweep: 0 of 13 argvs differ",
                         "evolve: 0 of 9 argvs differ",
                         "verify: 0 of 18 argvs differ",
                         "report: 0 of 18 argvs differ"]
    rows = [json.loads(line) for line in lines[4:]]
    assert [row["workload"] for row in rows] == ["sweep", "evolve", "verify", "setup"]
    for row in rows[:3]:
        assert set(row) == {"workload", "ratio", "interval", "time_ratio", "time_interval",
                            "requests", "seeds", "wall_s", "argvs"}
        assert row["requests"] == 9 and row["seeds"] == [101]
        assert row["argvs"] == {row["workload"]: 9}
    assert set(rows[3]) == {"workload", "ratio", "interval", "time_ratio", "time_interval",
                            "requests", "parent_median_s", "change_median_s"}
    for row in rows:
        for ratio, (low, high) in ((row["ratio"], row["interval"]),
                                   (row["time_ratio"], row["time_interval"])):
            assert all(math.isfinite(v) and v > 0 for v in (low, ratio, high))
            assert low <= ratio <= high


def test_ab_reports_each_argv_whose_bytes_moved(tmp_path):
    # a copy of src/ whose verify summary line reads differently
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "catcorr" / "cli.py"
    text = cli.read_text()
    assert text.count("assertions within tol=") == 1
    cli.write_text(text.replace("assertions within tol=", "assertions within tolerance="))
    proc = _ab(ROOT, tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    counts = [line for line in lines if line.endswith(" argvs differ")]
    assert counts == ["sweep: 0 of 13 argvs differ",
                      "evolve: 0 of 9 argvs differ",
                      "verify: 18 of 18 argvs differ",
                      "report: 0 of 18 argvs differ"]
    # the tally shows that the summary line alone moved
    assert lines[lines.index(counts[-1]) + 1] == "verify moved lines: verify: -18 +18"
    # each moved argv is named, then its parent line and its changed line
    moved = lines[:lines.index(counts[0])]
    assert len(moved) == 18 * 3
    for head, old, new in zip(moved[::3], moved[1::3], moved[2::3]):
        assert head.startswith("catcorr verify --samples ")
        assert old.startswith("  stdout -verify: ") and "assertions within tol=" in old
        assert new == old.replace("  stdout -", "  stdout +").replace("tol=", "tolerance=")
