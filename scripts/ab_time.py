"""Time two checkouts request by request on the benchmark's streams, paired.

Usage, from anywhere:

    python3 scripts/ab_time.py PARENT CHANGE [--blocks N] [--seeds S ...]

PARENT and CHANGE are source checkouts of catcorr (each with src/catcorr).
The requests are the timed streams that scripts/byte_audit.py replays: the
first N blocks of every workload's seeded stream in perfbench/workloads.py.
Two long-lived child interpreters, one per checkout, import catcorr.cli as
perfbench/run.py does, with BLAS pinned to one thread and no bytecode
written into a checkout. The driver sends each request to one child and
then to the other, never to both at once, and alternates which goes first.
Each child times its cli.main(argv) with perf_counter, output discarded,
after a few untimed warm-up requests of the workload; a request that
raises is timed as any other and named on stderr.

Output is one JSON object per workload: the geometric mean of the
per-request time ratios CHANGE/PARENT ("ratio") and the ratio of the total
times ("time_ratio"), each with its 95% percentile bootstrap interval
("interval", "time_interval"; 2,000 resamples of the requests, fixed seed),
the number of requests, the seeds, the wall seconds of the paired pass and
the argv count per subcommand. The geometric mean weighs every request
alike; the total-time ratio weighs each by its time, as perfbench's
items_per_s does when request sizes differ. A last object gives setup_s,
the same statistics over alternated fresh-interpreter imports of
catcorr.cli from each checkout, with bytecode cached outside the checkouts.

Limits:
- Pairing cancels drift that is slower than one request. It does not
  cancel contention from other processes within one request.
- The two children differ in memory layout. A checkout timed against
  itself (an A/A run) bounds that effect; on a 2-core shared host its
  intervals lay within about 2.5% of 1 on 270 requests per workload.
- Peak memory is perfbench's to measure: two paired children cannot.
- A request's time is cli.main's in-process time; interpreter start-up
  shows only in setup_s.
"""

import argparse
import collections
import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # neither perfbench/ nor a checkout gains a file
sys.path.insert(0, str(Path(__file__).resolve().parent))

from byte_audit import PERFBENCH, _streams  # noqa: E402

RESAMPLES = 2000


def _runner():
    """perfbench/run.py, whose import pins BLAS to one thread before numpy loads."""
    sys.path.insert(0, str(PERFBENCH))
    import run

    return run


def paired_ratio(parent: list, change: list, resamples: int = RESAMPLES, seed: int = 0) -> dict:
    """Geometric mean of the ratios change[k] / parent[k] and the ratio
    sum(change) / sum(parent), each with a 95% percentile bootstrap interval
    over the pairs (one resample of the pairs serves both)."""
    logs = [math.log(new / old) for old, new in zip(parent, change, strict=True)]
    rng = random.Random(seed)
    means, totals = [], []
    for _ in range(resamples):
        picks = rng.choices(range(len(logs)), k=len(logs))
        means.append(statistics.fmean(logs[k] for k in picks))
        totals.append(math.fsum(change[k] for k in picks) / math.fsum(parent[k] for k in picks))
    cuts, time_cuts = statistics.quantiles(means, n=40), statistics.quantiles(totals, n=40)
    return {"ratio": math.exp(statistics.fmean(logs)),
            "interval": [math.exp(cuts[0]), math.exp(cuts[-1])],
            "time_ratio": math.fsum(change) / math.fsum(parent),
            "time_interval": [time_cuts[0], time_cuts[-1]]}


class _Child:
    """A child interpreter that runs and times cli.main of one checkout."""

    def __init__(self, checkout: Path):
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--child", str(checkout)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self, argv: list) -> float:
        self.process.stdin.write(json.dumps(argv) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit(f"error: the child running {self.process.args[-1]} stopped")
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def _child(checkout: Path) -> None:
    run = _runner()
    run.SRC = (checkout / "src").resolve()
    cli, _ = run._load_cli()
    for line in sys.stdin:
        argv, sink, crash = json.loads(line), io.StringIO(), None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                cli.main(argv)
            except Exception as exc:  # a crash is timed as any other outcome, and reported
                crash = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if crash:
            print(f"warning: catcorr {' '.join(argv)} crashed in {checkout}: {crash}",
                  file=sys.stderr)
        print(json.dumps(elapsed), flush=True)


def _paired(children: list, argvs: list) -> tuple:
    """Each child's time of each argv, the first child first on even requests."""
    times = ([], [])
    for k, argv in enumerate(argvs):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[side].append(children[side].time(argv))
    return times


def _setup_times(checkouts: list) -> tuple:
    """Wall seconds of fresh-interpreter imports of catcorr.cli, alternated,
    after an untimed one per checkout that fills the bytecode cache. The
    cache lives in a temporary directory, so no checkout gains a file."""
    run = _runner()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = ([], [])
    with tempfile.TemporaryDirectory() as cache:
        command = [sys.executable, "-X", f"pycache_prefix={cache}", "-c", run.SETUP_SNIPPET]
        for k in range(-1, run.SETUP_REPEATS):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                subprocess.run(command, cwd=checkouts[side], env=env, check=True,
                               stdout=subprocess.DEVNULL)
                if k >= 0:
                    times[side].append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose times are the base")
    parser.add_argument("change", type=Path, help="checkout timed against it")
    parser.add_argument("--blocks", type=int, default=10, help="stream blocks per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    args = parser.parse_args(argv)
    workloads = collections.defaultdict(list)
    for name, request in _streams(args.seeds, args.blocks):
        workloads[name].append(request)
    warm = _runner().WARM_REQUESTS
    children = [_Child(args.parent), _Child(args.change)]
    try:
        for name, argvs in workloads.items():
            _paired(children, argvs[:warm])
            start = time.perf_counter()
            times = _paired(children, argvs)
            wall = time.perf_counter() - start
            print(json.dumps({
                "workload": name, **paired_ratio(*times), "requests": len(argvs),
                "seeds": args.seeds, "wall_s": wall,
                "argvs": dict(collections.Counter(argv[0] for argv in argvs))}), flush=True)
    finally:
        for child in children:
            child.close()
    setup = _setup_times([args.parent, args.change])
    print(json.dumps({"workload": "setup", **paired_ratio(*setup), "requests": len(setup[0]),
                      "parent_median_s": statistics.median(setup[0]),
                      "change_median_s": statistics.median(setup[1])}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(Path(sys.argv[2]))
    else:
        sys.exit(main())
