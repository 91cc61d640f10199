"""Replay the benchmark's request streams through two checkouts: diff the bytes, time the pairs.

Usage, from anywhere:

    python3 scripts/ab.py PARENT CHANGE [--blocks N] [--seeds S ...]

PARENT and CHANGE are source checkouts of catcorr (each with src/catcorr).
Two long-lived child interpreters, one per checkout, import catcorr.cli as
perfbench/run.py does, with BLAS pinned to one thread and no bytecode
written into a checkout or perfbench/. The driver sends each argv to one
child and then to the other, never to both at once, and alternates which
goes first. Each child runs cli.main(argv) and returns its time, taken with
perf_counter around that call alone, and its exit code (or the text of the
exception it raised), stdout and stderr. A request that raises is named on
stderr.

The timed pass replays the first N blocks of every workload's seeded stream
in perfbench/workloads.py, seeded as perfbench/run.py seeds its timed pass,
after a few untimed warm-up requests of each workload. An untimed pass then
replays the probe of a workload that has one, each evolve request as two
reports of its state and selection (one at --time equal to its --t-max, one
without --rate/--time), and each verify request with --search-samples equal
to its --samples and --tol 0, so the measurement search runs on every sample
drawn and every check prints the sample at its largest deviation.

Output: each argv whose exit code, stdout or stderr differs, with its moved
lines, then a count per kind of argv, then for each kind with moved lines
their tally by first word, for example `verify moved lines:
search_vs_spectrum -900 +900, worst: -415 +415`: a deliberate one-line move
shows there that nothing else moved. Then, per kind and check, how many of
the moved `max_deviation=` values fell and how many rose from parent to
change, for example `verify search_vs_spectrum max_deviation: 200 fell,
0 rose`. Then one JSON object per workload: the geometric mean of the
per-request time ratios CHANGE/PARENT ("ratio") and
the ratio of the total times ("time_ratio"), each with its 95% percentile
bootstrap interval ("interval", "time_interval"; 2,000 resamples of the
requests, fixed seed), the number of requests, the seeds, the wall seconds
of the paired pass and the argv count per subcommand. The geometric mean
weighs every request alike; the total-time ratio weighs each by its time,
as perfbench's items_per_s does when request sizes differ. A last object
gives setup_s, the same statistics over alternated fresh-interpreter imports
of catcorr.cli from each checkout, with bytecode cached outside the
checkouts. Exit 1 on any difference in bytes, 0 on none.

Limits:
- Pairing cancels drift that is slower than one request. It does not
  cancel contention from other processes within one request.
- The two children differ in memory layout. A checkout timed against
  itself (an A/A run) bounds that effect; on a 2-core shared host its
  intervals mostly lay within about 2.5% of 1 on 450 requests per
  workload, but two of eleven runs with the same sweep code on both sides
  read sweep 2 to 4% from 1.
- Peak memory is perfbench's to measure: two paired children cannot.
- A request's time is cli.main's in-process time; interpreter start-up
  shows only in setup_s.
"""

import argparse
import collections
import contextlib
import difflib
import importlib
import io
import itertools
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

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RESAMPLES = 2000


def _perfbench(module: str):
    """A module of perfbench/; importing run pins BLAS to one thread before numpy loads."""
    sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(module)


def _streams(seeds: list, blocks: int) -> list:
    """(workload, argv) of the first `blocks` blocks of each workload's seeded
    stream, seeded as perfbench/run.py seeds its timed pass."""
    return [(name, list(r.argv)) for name, workload in _perfbench("workloads").WORKLOADS.items()
            for seed in seeds
            for block in itertools.islice(workload.stream(random.Random(seed)), blocks)
            for r in block]


def _requests(seeds: list, blocks: int) -> list:
    """(kind, argv) of every request to replay, in order: the streams, the
    probes, then the reports of each evolve and each verify widened."""
    requests = _streams(seeds, blocks) + [
        (name, list(r.argv)) for name, workload in _perfbench("workloads").WORKLOADS.items()
        if workload.probe for seed in seeds for r in workload.probe(random.Random(f"probe-{seed}"))]
    return (requests
            + [("report", report) for name, argv in requests if name == "evolve"
               for report in _reports(argv)]
            + [("verify", _widened(argv)) for name, argv in requests if name == "verify"])


def _reports(evolve: list) -> list:
    """The report argvs of an evolve request's state: at its --t-max, and undephased."""
    def without(*flags):
        return ["report"] + [arg for k, arg in enumerate(evolve[1:], start=1)
                             if arg not in flags and evolve[k - 1] not in flags]

    at_t_max = without("--steps")
    at_t_max[at_t_max.index("--t-max")] = "--time"
    return [at_t_max, without("--steps", "--rate", "--t-max")]


def _widened(verify: list) -> list:
    """A verify argv that searches every sample it draws and, at --tol 0,
    prints each check's worst: line."""
    return verify + ["--search-samples", verify[verify.index("--samples") + 1], "--tol", "0"]


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
        self.checkout = checkout
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--child", str(checkout)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list) -> list:
        """[seconds, [exit code or exception text, stdout, stderr]] of argv."""
        self.process.stdin.write(json.dumps(argv) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit(f"error: the child running {self.checkout} stopped")
        result = json.loads(line)
        if isinstance(result[1][0], str):
            print(f"warning: catcorr {' '.join(argv)} crashed in {self.checkout}: "
                  f"{result[1][0]}", file=sys.stderr)
        return result

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def _child(checkout: Path) -> None:
    run = _perfbench("run")
    run.SRC = (checkout / "src").resolve()
    cli, _ = run._load_cli()
    for line in sys.stdin:
        argv, out, err = json.loads(line), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is an outcome to time and compare
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        print(json.dumps([elapsed, [code, out.getvalue(), err.getvalue()]]), flush=True)


def _paired(children: list, argvs: list) -> tuple:
    """Each child's result of each argv, the first child first on even requests."""
    results = ([], [])
    for k, argv in enumerate(argvs):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            results[side].append(children[side].run(argv))
    return results


def _setup_times(checkouts: list) -> tuple:
    """Wall seconds of fresh-interpreter imports of catcorr.cli, alternated,
    after an untimed one per checkout that fills the bytecode cache. The
    cache lives in a temporary directory, so no checkout gains a file."""
    run = _perfbench("run")
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


def _moved(parent: list, change: list) -> list:
    """(stream, sign, line) of each line that differs, sign '-' for the
    parent's and '+' for the change's."""
    lines = []
    for label, old, new in zip(("exit", "stdout", "stderr"), parent, change):
        if old == new:
            continue
        old, new = ([str(old)], [str(new)]) if label == "exit" else (old.splitlines(),
                                                                     new.splitlines())
        lines += [(label, line[0], line[1:])
                  for line in difflib.unified_diff(old, new, lineterm="", n=0)
                  if not line.startswith(("---", "+++", "@@"))]
    return lines


def _deviations(stdout: str) -> dict:
    """The printed max_deviation= value of each check line of a verify output,
    by check name."""
    return {line.split()[0]: word.removeprefix("max_deviation=")
            for line in stdout.splitlines() for word in line.split()
            if word.startswith("max_deviation=")}


def _report(requests: list, outcomes: list) -> bool:
    """Print each argv whose bytes moved with its moved lines, a count of such
    argvs per kind, then per kind with moved lines its tally: the moved lines
    counted by their first word ("exit" for an exit code), parent's and
    change's apart, in order of first appearance. Then per kind and check
    with a moved max_deviation= value, how many such values fell and how
    many rose. True when any argv moved."""
    counts = {name: [0, 0] for name, _ in requests}
    tallies, shifts = {}, {}
    for (name, request), (old, new) in zip(requests, outcomes, strict=True):
        counts[name][1] += 1
        if old[1] != new[1]:
            counts[name][0] += 1
            moved = _moved(old[1], new[1])
            print(f"catcorr {' '.join(request)}")
            print("\n".join(f"  {label} {sign}{line}" for label, sign, line in moved))
            for label, sign, line in moved:
                word = "exit" if label == "exit" else next(iter(line.split()), "")
                tallies.setdefault(name, {}).setdefault(word, collections.Counter())[sign] += 1
            before = _deviations(old[1][1])
            for check, value in _deviations(new[1][1]).items():
                if check in before and value != before[check]:
                    shifts.setdefault(name, {}).setdefault(check, collections.Counter())[
                        "fell" if float(value) < float(before[check]) else "rose"] += 1
    for name, (differ, total) in counts.items():
        print(f"{name}: {differ} of {total} argvs differ")
    for name, words in tallies.items():
        print(f"{name} moved lines: " + ", ".join(f"{word} -{signs['-']} +{signs['+']}"
                                                  for word, signs in words.items()))
    for name, checks in shifts.items():
        for check, moves in checks.items():
            print(f"{name} {check} max_deviation: {moves['fell']} fell, {moves['rose']} rose")
    return any(differ for differ, _ in counts.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose outputs and times are the base")
    parser.add_argument("change", type=Path, help="checkout compared against it")
    parser.add_argument("--blocks", type=int, default=10, help="stream blocks per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103, 104, 105])
    args = parser.parse_args(argv)
    streams = _streams(args.seeds, args.blocks)
    requests = _requests(args.seeds, args.blocks)
    warm = _perfbench("run").WARM_REQUESTS
    children = [_Child(args.parent), _Child(args.change)]
    outcomes, rows = [], []
    try:
        for name, group in itertools.groupby(streams, key=lambda request: request[0]):
            argvs = [request for _, request in group]
            _paired(children, argvs[:warm])
            start = time.perf_counter()
            parent, change = _paired(children, argvs)
            wall = time.perf_counter() - start
            outcomes += zip(parent, change)
            rows.append({
                "workload": name, **paired_ratio([t for t, _ in parent], [t for t, _ in change]),
                "requests": len(argvs), "seeds": args.seeds, "wall_s": wall,
                "argvs": dict(collections.Counter(argv[0] for argv in argvs))})
        outcomes += zip(*_paired(children, [request for _, request in requests[len(streams):]]))
    finally:
        for child in children:
            child.close()
    setup = _setup_times([args.parent, args.change])
    moved = _report(requests, outcomes)
    for row in rows:
        print(json.dumps(row))
    print(json.dumps({"workload": "setup", **paired_ratio(*setup), "requests": len(setup[0]),
                      "parent_median_s": statistics.median(setup[0]),
                      "change_median_s": statistics.median(setup[1])}))
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(Path(sys.argv[2]))
    else:
        sys.exit(main())
