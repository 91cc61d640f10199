"""Seeded end-to-end benchmark of the catcorr command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep|evolve|verify --seed N \
        --seconds S --trace 0|1

The program under test is ``catcorr.cli.main(argv)``, imported from
``src/`` of the checkout and called in-process from this single-threaded
process, one request after another (closed loop, one caller). Requests
come from the seeded generators in ``workloads.py``; each output is
checked (``checks.py``) and its sha256 recorded.

--trace 0 measures the end-to-end metrics: throughput of checked items,
median and tail request time, fresh-interpreter import time, peak RSS.
On sweep it then runs a small fixed probe of near-unit requests that hit
the known `1 - P` crash; the probe is untimed, checked like any other
request, listed on its own and not counted in attempted/failed.
--trace 1 runs a fixed prefix of the same request stream with every
public layer function wrapped (``layers.py``) and reports per-layer
calls, self time, share and errors; each request also runs untraced,
next to its traced run, to give the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Details
(environment, every request with its digest, failures, spans) go to
``perfbench/results/``. Exit code 0 means the run completed; without
catcorr sources under ``src/`` it exits 1 before printing a result.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in child interpreters.
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from checks import CHECKS, is_known_defect  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 9
WARM_REQUESTS = 3
TAIL_BEYOND = 10
TAIL_PERCENTILES = (50, 75, 90, 95, 99)
SETUP_SNIPPET = "import sys; sys.path.insert(0, 'src'); import catcorr.cli"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_cli():
    """Import catcorr.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "catcorr" / "cli.py").is_file():
        raise SystemExit(f"error: no catcorr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import catcorr.cli
    from catcorr.errors import CatcorrError
    if Path(catcorr.cli.__file__).resolve().parent != (SRC / "catcorr").resolve():
        raise SystemExit(f"error: catcorr imported from {catcorr.cli.__file__}, not {SRC}")
    return catcorr.cli, CatcorrError


def _git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "catcorr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "git_revision": _git_revision(), "src_sha256": digest.hexdigest(),
        "thread_pins": THREAD_PINS,
    }


def _setup_sample() -> float:
    """Wall seconds for a fresh interpreter to import catcorr.cli."""
    t0 = time.perf_counter()
    # no timeout: Popen.wait(timeout) polls in 50 ms steps and would
    # quantize the measurement
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Runner:
    """Calls main(argv) in-process, times it and checks its output."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.check = CHECKS[workload]

    def call(self, request) -> dict:
        out, err = io.StringIO(), io.StringIO()
        argv = list(request.argv)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed request, not a benchmark abort
                rc, crash = None, f"{type(exc).__name__}: {exc}"
            else:
                crash = None
            elapsed = time.perf_counter() - t0
        text, err_text = out.getvalue(), err.getvalue()
        if crash is not None:
            reason = crash
        elif rc != 0:
            reason = (err_text.strip().splitlines() or [f"exit {rc}"])[-1]
        else:
            try:
                reason = self.check(request, text)
            except (ValueError, KeyError, IndexError) as exc:
                reason = f"unparsable output: {type(exc).__name__}: {exc}"
        return {
            "argv": argv, "rc": rc, "seconds": elapsed, "items": request.items,
            "passed": reason is None, "error": reason,
            "known_defect": reason is not None and is_known_defect(request, rc, err_text),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }


def _warm(runner, workload, seed):
    block = next(workload.stream(random.Random(f"warm-{seed}")))
    for request in block[:WARM_REQUESTS]:
        runner.call(request)


def _timed_pass(runner, blocks, seconds) -> tuple:
    """Run whole blocks, stopping at the block boundary nearest to `seconds`.

    Between blocks it also takes the SETUP_REPEATS fresh-interpreter setup
    samples, spread evenly over the run, so that they see the same host
    conditions as the workload rather than those of its first seconds.
    Returns (request records, setup samples).
    """
    records, setup_times = [], []
    start = time.perf_counter()
    for count, block in enumerate(blocks, start=1):
        records.extend(dict(runner.call(request), block=count) for request in block)
        elapsed = time.perf_counter() - start
        while len(setup_times) < SETUP_REPEATS * min(1.0, elapsed / seconds):
            setup_times.append(_setup_sample())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / count >= seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(_setup_sample())
    return records, setup_times


def _paired_pass(runner, tracer, blocks, limit_s) -> tuple:
    """Run each request traced and untraced back to back, alternating which
    goes first, so host speed drifts cancel out of the overhead."""
    traced, untraced = [], []
    start = time.perf_counter()
    for block in blocks:
        for request in block:
            tracer.request_id = len(traced)
            plain_first = len(traced) % 2 == 1
            if plain_first:
                untraced.append(runner.call(request))
            with tracer.installed():
                traced.append(runner.call(request))
            if not plain_first:
                untraced.append(runner.call(request))
        # stop early rather than overrun if the program got much slower
        if time.perf_counter() - start >= limit_s:
            break
    return traced, untraced


def _tail(times: list) -> tuple:
    """(value, percentile): the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND requests beyond it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    best = (ordered[-1], 100.0)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            best = (ordered[rank - 1], pct)
    return best


def _counts(records) -> dict:
    failed = [r for r in records if not r["passed"]]
    return {
        "attempted": len(records), "failed": len(failed),
        "unexpected": [r for r in failed if not r["known_defect"]],
        "failures": failed,
        "workload_s": sum(r["seconds"] for r in records),
        "items_passed": sum(r["items"] for r in records if r["passed"]),
    }


def _end_to_end(records, setup_times) -> tuple:
    counts = _counts(records)
    times = [r["seconds"] for r in records]
    tail, pct = _tail(times)
    blocks = {}
    for r in records:
        items, seconds = blocks.get(r["block"], (0, 0.0))
        blocks[r["block"]] = (items + (r["items"] if r["passed"] else 0), seconds + r["seconds"])
    # median over blocks, so a burst of host contention moves it less than a total would
    block_rates = [items / seconds for items, seconds in blocks.values()]
    metrics = {
        "items_per_s": (statistics.median(block_rates), "items/s"),
        "request_p50_ms": (1e3 * statistics.median(times), "ms"),
        "request_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"request_tail_ms is p{pct} over {len(times)} requests "
        + (f"(at least {TAIL_BEYOND} beyond it)" if pct < 100 else
           f"(the maximum: too few requests for {TAIL_BEYOND} beyond any percentile)"),
        f"error_frac = {counts['failed']}/{counts['attempted']} = "
        f"{counts['failed'] / counts['attempted']:.6g} ratio "
        "(reported through attempted/failed, not as a bounded metric)",
        f"setup_s is the median of {len(setup_times)} fresh interpreters, "
        "taken between blocks: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
        f"items_per_s is the median over {len(block_rates)} blocks of {len(records) // len(blocks)} "
        f"requests; overall {counts['items_passed']} items passed in "
        f"{counts['workload_s']:.4f} s of workload time",
    ]
    return counts, metrics, notes


def _traced(runner, workload, seed, seconds, error_type) -> tuple:
    stream = workload.stream(random.Random(seed))
    blocks = [next(stream) for _ in range(max(1, round(workload.trace_blocks_per_s * seconds)))]
    count = sum(len(block) for block in blocks)
    tracer = Tracer(error_type)
    traced, replay = _paired_pass(runner, tracer, blocks, limit_s=3.0 * seconds)
    counts = _counts(traced)
    summary = tracer.summary(counts["workload_s"])
    untraced_s = sum(r["seconds"] for r in replay)
    metrics = dict(summary["metrics"])
    metrics["trace.workload_s"] = (counts["workload_s"], "s")
    metrics["trace.items"] = (sum(r["items"] for r in traced), "count")
    metrics["trace.overhead_s"] = (counts["workload_s"] - untraced_s, "s")
    metrics["trace.overhead_frac"] = ((counts["workload_s"] - untraced_s) / untraced_s, "ratio")
    mismatched = [t["argv"] for t, u in zip(traced, replay) if t["sha256"] != u["sha256"]]
    detail = dict(summary["detail"], requests_traced=len(traced),
                  requests_planned=count, truncated=len(traced) < count,
                  replay_untraced_s=untraced_s, digest_mismatches=mismatched)
    notes = [
        f"traced {len(traced)} of {count} planned requests; "
        f"{detail['spans']} spans over {detail['bindings_patched']} bindings",
        f"tracing overhead {metrics['trace.overhead_s'][0]:.4f} s "
        f"= traced {counts['workload_s']:.4f} s - the same requests untraced {untraced_s:.4f} s",
        "waiting time: none; single-threaded, no queues, every span is busy time",
    ]
    if detail["missing_targets"]:
        notes.append("targets not found: " + ", ".join(detail["missing_targets"]))
    if mismatched:
        notes.append(f"{len(mismatched)} outputs differ between traced and untraced runs")
    return counts, metrics, notes, detail, tracer, traced + replay


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    cli, error_type = _load_cli()
    workload = WORKLOADS[args.workload]
    env = _environment(args)
    runner = Runner(cli, args.workload)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        _warm(runner, workload, args.seed)
        counts, metrics, notes, detail, tracer, records = _traced(
            runner, workload, args.seed, args.seconds, error_type)
        tracer.save(stem.with_suffix(".spans.npz"))
        correct = not counts["unexpected"] and not detail["digest_mismatches"]
    else:
        _setup_sample()  # writes the bytecode caches a user's install would have
        _warm(runner, workload, args.seed)
        records, setup_times = _timed_pass(
            runner, workload.stream(random.Random(args.seed)), args.seconds)
        counts, metrics, notes = _end_to_end(records, setup_times)
        probe = [runner.call(r) for r in workload.probe(random.Random(f"probe-{args.seed}"))] \
            if workload.probe else []
        detail = {"setup_times_s": setup_times, "probe": probe}
        correct = not counts["unexpected"] and all(r["passed"] or r["known_defect"] for r in probe)

    print(f"catcorr benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  why: {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    for r in counts["failures"]:
        kind = "known near-unit defect" if r["known_defect"] else "UNEXPECTED"
        print(f"  failed ({kind}): catcorr {' '.join(r['argv'])} -> {r['error']}")
    for r in detail.get("probe", ()):
        outcome = "passed" if r["passed"] else (
            "known near-unit defect" if r["known_defect"] else "UNEXPECTED failure")
        print(f"  probe, untimed ({outcome}): catcorr {' '.join(r['argv'])}"
              + (f" -> {r['error']}" if r["error"] else ""))

    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "why": workload.why, "correct": correct,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "notes": notes, "detail": detail, "requests": records}, handle, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": counts["attempted"], "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
