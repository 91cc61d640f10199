"""Replay the benchmark's request streams through two checkouts and diff the bytes.

Usage, from anywhere:

    python3 scripts/byte_audit.py PARENT CHANGE [--blocks N] [--seeds S ...]

PARENT and CHANGE are source checkouts of catcorr (each with src/catcorr).
The argv lists are the first N blocks of every workload's seeded stream in
this repository's perfbench/workloads.py, seeded as perfbench/run.py seeds
its timed pass, plus the untimed probe of a workload that has one. Each
evolve request is also replayed as two reports of its state and selection:
one at --time equal to its --t-max, one without --rate/--time. Each verify
request is also replayed with --search-samples equal to its --samples and
--tol 0, so the measurement search runs on every sample drawn and every
check prints the sample at its largest deviation. Each
checkout replays them through catcorr.cli.main in a child interpreter of
its own, which imports catcorr as perfbench/run.py does and writes no
bytecode into the checkout or perfbench/. Exit code, stdout and stderr
are compared; each argv that differs is printed with its moved lines,
then a count per workload. Exit 1 on any difference, 0 on none.
"""

import argparse
import contextlib
import difflib
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # neither perfbench/ nor a checkout gains a file

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads() -> dict:
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    return WORKLOADS


def _streams(seeds: list, blocks: int) -> list:
    """(workload, argv) of the first `blocks` blocks of each workload's seeded
    stream, seeded as perfbench/run.py seeds its timed pass."""
    return [(name, list(r.argv)) for name, workload in _workloads().items() for seed in seeds
            for block in itertools.islice(workload.stream(random.Random(seed)), blocks)
            for r in block]


def _requests(seeds: list, blocks: int) -> list:
    """(kind, argv) of every request to replay, in order: the streams, the
    probes, then the reports of each evolve and each verify widened."""
    requests = _streams(seeds, blocks) + [
        (name, list(r.argv)) for name, workload in _workloads().items() if workload.probe
        for seed in seeds for r in workload.probe(random.Random(f"probe-{seed}"))]
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


def _replay(checkout: Path, argvs: list) -> list:
    """[exit code, stdout, stderr] of each argv, run in a child interpreter
    that imports catcorr from checkout/src."""
    proc = subprocess.run(
        [sys.executable, __file__, "--replay", str(checkout)],
        input=json.dumps(argvs), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: replay in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _child(checkout: Path) -> None:
    sys.path.insert(0, str(PERFBENCH))
    import run  # perfbench's runner, for its guarded import of catcorr.cli

    run.SRC = (checkout / "src").resolve()
    cli, _ = run._load_cli()
    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is an outcome to compare, not an abort
                code = f"{type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def _moved(parent: list, change: list) -> list:
    """The lines of each stream that differ, '-' for the parent's, '+' for the change's."""
    lines = []
    for label, old, new in zip(("exit", "stdout", "stderr"), parent, change):
        if old == new:
            continue
        old, new = ([str(old)], [str(new)]) if label == "exit" else (old.splitlines(),
                                                                     new.splitlines())
        lines += [f"  {label} {line}" for line in difflib.unified_diff(old, new, lineterm="", n=0)
                  if not line.startswith(("---", "+++", "@@"))]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("change", type=Path, help="checkout compared against it")
    parser.add_argument("--blocks", type=int, default=3, help="stream blocks per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103, 104, 105])
    args = parser.parse_args(argv)
    requests = _requests(args.seeds, args.blocks)
    argvs = [request for _, request in requests]
    parent, change = _replay(args.parent, argvs), _replay(args.change, argvs)
    counts = {name: [0, 0] for name, _ in requests}
    for (name, request), old, new in zip(requests, parent, change):
        counts[name][1] += 1
        if old != new:
            counts[name][0] += 1
            print(f"catcorr {' '.join(request)}")
            print("\n".join(_moved(old, new)))
    for name, (differ, total) in counts.items():
        print(f"{name}: {differ} of {total} argvs differ")
    return 1 if any(differ for differ, _ in counts.values()) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--replay"]:
        _child(Path(sys.argv[2]))
    else:
        sys.exit(main())
