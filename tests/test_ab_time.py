import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import ab_time  # noqa: E402


def test_paired_ratio_statistics_on_synthetic_times():
    # a constant ratio has no spread; the geometric mean of the ratios is exact
    parent = [0.001 * (1 + k % 7) for k in range(50)]
    constant = ab_time.paired_ratio(parent, [0.6 * t for t in parent])
    assert set(constant) == {"ratio", "interval", "time_ratio", "time_interval"}
    for value in (constant["ratio"], *constant["interval"], constant["time_ratio"],
                  *constant["time_interval"]):
        assert value == pytest.approx(0.6, rel=1e-12)
    # ratios 2^x for x symmetric about 0: their geometric mean is 1
    ratios = [2.0 ** (x / 8) for x in range(-8, 9)] * 2
    ones = [1.0] * len(ratios)
    found = ab_time.paired_ratio(ones, ratios)
    assert found["ratio"] == pytest.approx(1.0, rel=1e-12)
    # the interval holds the ratio, lies within the extreme ratios, and is
    # the same on every call: the bootstrap's resampling is seeded
    low, high = found["interval"]
    assert 0.5 < low < found["ratio"] < high < 2.0
    assert ab_time.paired_ratio(ones, ratios) == found
    assert ab_time.paired_ratio(ones, ratios, seed=1) != found
    # a pair is a ratio: scaling both sides of every pair changes nothing
    scaled = ab_time.paired_ratio([3.0] * len(ratios), [3.0 * r for r in ratios])
    assert scaled["ratio"] == pytest.approx(found["ratio"], rel=1e-12)
    assert scaled["interval"] == pytest.approx(found["interval"], rel=1e-12)
    with pytest.raises(ValueError):
        ab_time.paired_ratio([1.0, 2.0], [1.0])


def test_total_time_ratio_weighs_requests_by_their_time():
    # small requests halve and large ones hold: per request the geometric mean
    # is 2^-1/2, while the total time falls only by the small requests' share
    parent = [0.001] * 20 + [0.1] * 20
    change = [0.0005] * 20 + [0.1] * 20
    found = ab_time.paired_ratio(parent, change)
    assert found["ratio"] == pytest.approx(2.0 ** -0.5, rel=1e-12)
    assert found["time_ratio"] == pytest.approx(2.01 / 2.02, rel=1e-12)
    low, high = found["time_interval"]
    assert found["interval"][1] < low <= found["time_ratio"] <= high
    # the interval of the total-time ratio is a resample statistic like the other
    assert 0.99 < low < high < 1.0


def _files() -> set:
    return {path for folder in ("perfbench", "src") for path in (ROOT / folder).rglob("*")}


def test_ab_time_of_a_checkout_against_itself_prints_one_row_per_workload():
    # the output's shape only: timings on a shared host are not asserted
    before = _files()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_time.py"), str(ROOT),
                           str(ROOT), "--blocks", "1", "--seeds", "101"],
                          capture_output=True, text=True, env=env, timeout=300, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    # with bytecode writing on, the checkout and perfbench/ gain no file
    assert _files() == before
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
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
