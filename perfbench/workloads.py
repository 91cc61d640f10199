"""Seeded request streams for the catcorr CLI benchmark.

A workload turns a seed into an endless, reproducible stream of blocks
of ``catcorr`` argv lists; the program under test sees only those lists.
Inside a block the request sizes follow a jittered ladder and the
request kinds a fixed mix, both shuffled, so every block has nearly the
same size and kind distribution whatever the seed. Runs end on a block
boundary, which keeps run-to-run spread small without fixing any input
value. A block has an odd number of size rungs (nine), so a run's
median request falls inside one size class rather than between two.

No generated request of a timed stream is expected to fail. The known
near-unit crash is exercised by a separate, fixed probe (``probe``),
which runs untimed after the timed pass and is reported on its own.

Every workload is closed-loop and sequential: one caller, the next
request is sent when the previous one returns.
"""

import random
from dataclasses import dataclass

RUNGS = 9

# A sweep whose last grid point lies this close to unit overlap with odd
# parity is in the range where the known `1 - P` cancellation crash
# (ROADMAP item 3) can occur; such failures are expected at this commit.
NEAR_UNIT_EPS = 1e-7
PROBE_REQUESTS = 4


@dataclass(frozen=True)
class Request:
    """One generated CLI call and what its output must contain."""

    argv: tuple
    items: int          # grid points (sweep), time points (evolve), samples (verify)
    near_unit: bool = False


def _ladder(rng: random.Random, count: int, low: float, high: float,
            json_rungs=(), skew: float = 1.0) -> list:
    """`count` (size, emit_json) pairs in random order, one per rung of a
    ladder from `low` to `high`, each jittered by a tenth of a rung.

    Rung k sits at low * (high/low) ** (x ** skew) with x = (k + 1/2) / count;
    skew > 1 puts more rungs at small sizes. Every block then has nearly
    the same size distribution, so the median and tail request of a run
    depend on the program's speed, not on which sizes the seed drew. JSON
    output goes to fixed rungs for the same reason: the largest JSON
    document sets peak memory.
    """
    ratio = high / low
    rungs = [(round(low * ratio ** (((k + 0.5 + rng.uniform(-0.1, 0.1)) / count) ** skew)),
              k in json_rungs) for k in range(count)]
    rng.shuffle(rungs)
    return rungs


def _num(x: float) -> str:
    return f"{x:.12g}"


def _eps(rng: random.Random, low_exp: float, high_exp: float) -> float:
    """Distance from unit overlap, log-uniform, rounded to 3 digits."""
    return float(f"{10.0 ** rng.uniform(low_exp, high_exp):.3g}")


def _pair(rng: random.Random, n: int) -> list:
    return [str(m) for m in rng.sample(range(1, n + 1), 2)]


def _side(rng: random.Random) -> list:
    return ["--side", rng.choice(("first", "second"))]


def _sweep_mixed(rng, parity, eps, steps):
    n = rng.randint(3, 8)
    p_stop = 1.0 if eps is None else 1.0 - eps
    argv = ["sweep", "--n", str(n), "--parity", parity, "--pair", *_pair(rng, n),
            *_side(rng), "--p-start", _num(round(rng.uniform(0.0, 0.3), 4)),
            "--p-stop", _num(p_stop), "--steps", str(steps)]
    near = parity == "odd" and eps is not None and eps <= NEAR_UNIT_EPS
    return argv, near


def _sweep_pure(rng, parity, eps, steps):
    n = rng.randint(2, 6)
    p_stop = 1.0 if eps is None else 1.0 - eps
    argv = ["sweep", "--n", str(n), "--parity", parity, "--pure",
            "--k", str(rng.randint(1, n - 1)), *_side(rng),
            "--p-start", _num(round(rng.uniform(0.0, 0.3), 4)),
            "--p-stop", _num(p_stop), "--steps", str(steps)]
    return argv, False


def _sweep_family(rng, parity, steps):
    n = rng.randint(3, 8)
    # odd parity at z = 0 is the null state; keep odd labels off it
    z_start = round(rng.uniform(0.05 if parity == "odd" else 0.0, 0.3), 4)
    family = rng.choice(("wh", "su2", "su11"))
    if family == "wh":
        label, z_stop = [], rng.uniform(1.0, 2.5)
    elif family == "su2":
        # |z| <= 1 keeps su2 overlaps nonnegative for every spin
        label, z_stop = ["--j", rng.choice(("0.5", "1", "1.5", "2"))], rng.uniform(0.6, 0.95)
    else:
        label, z_stop = ["--bargmann", _num(round(rng.uniform(0.5, 2.0), 3))], rng.uniform(0.6, 0.95)
    argv = ["sweep", "--n", str(n), "--parity", parity, "--family", family, *label,
            "--pair", *_pair(rng, n), *_side(rng), "--z-start", _num(z_start),
            "--z-stop", _num(round(z_stop, 4)), "--steps", str(steps)]
    return argv, False


def sweep_requests(rng: random.Random):
    """Overlap-grid sweeps: the per-grid-point numeric route.

    Per block: five mixed-pair requests (three even, two odd with
    p-stop drawn near and far from unit overlap, down to 1 - 1e-6), two
    pure splits (the odd one down to 1 - 1e-9) and two coherent-state
    family sweeps; two of the nine emit JSON. Grids run from about 150
    to 2000 points on a ladder that is denser at the small end, so a
    35 s run holds 50 to 100 requests and its p75 has ten beyond it.
    """
    while True:
        builders = [
            lambda steps: _sweep_mixed(rng, "even", rng.choice((None, _eps(rng, -3, -0.5))), steps),
            lambda steps: _sweep_mixed(rng, "even", rng.choice((None, _eps(rng, -3, -0.5))), steps),
            lambda steps: _sweep_mixed(rng, "even", None, steps),
            # 1e-6 is ten times NEAR_UNIT_EPS: no timed request is meant to fail
            lambda steps: _sweep_mixed(rng, "odd", _eps(rng, -6, -4), steps),
            lambda steps: _sweep_mixed(rng, "odd", _eps(rng, -4, -1), steps),
            lambda steps: _sweep_pure(rng, "even", None, steps),
            lambda steps: _sweep_pure(rng, "odd", _eps(rng, -9, -1), steps),
            lambda steps: _sweep_family(rng, rng.choice(("even", "odd")), steps),
            lambda steps: _sweep_family(rng, rng.choice(("even", "odd")), steps),
        ]
        plan = [(build, size, emit_json) for build, (size, emit_json)
                in zip(builders, _ladder(rng, len(builders), 150, 2000, json_rungs=(2, 7), skew=3.0))]
        rng.shuffle(plan)
        block = []
        for build, steps, emit_json in plan:
            argv, near = build(steps)
            if emit_json:
                argv += ["--format", "json"]
            block.append(Request(tuple(argv), steps, near))
        yield block


def near_unit_probe(rng: random.Random) -> list:
    """Odd mixed sweeps whose last grid point is 1e-9 to 1e-8 from unit
    overlap, where the known `1 - P` crash (ROADMAP item 3) occurs at
    this commit, plus a fixed n = 4 example at 1 - 1e-9. Short grids
    (351 to 451 points), since the crash comes at the last grid point.
    """
    probe = [Request(("sweep", "--n", "4", "--parity", "odd", "--pair", "1", "2",
                      "--p-stop", "0.999999999", "--steps", "401"), 401, True)]
    for _ in range(PROBE_REQUESTS - 1):
        steps = rng.randint(351, 451)
        argv, near = _sweep_mixed(rng, "odd", _eps(rng, -9, -8), steps)
        probe.append(Request(tuple(argv), steps, near))
    return probe


def evolve_requests(rng: random.Random):
    """Dephasing trajectories: closed forms, spec products and row emission.

    Unequal random overlaps, both parities (five and four per block),
    random pair, side, rate and t-max, and 1000 to 3000 time points. Two
    of nine emit JSON. Overlaps stay in [0.05, 0.95] so no state is null.
    """
    while True:
        rungs = _ladder(rng, RUNGS, 1000, 3000, json_rungs=(2, 7))
        parities = rng.sample(["even", "odd"] * 5, RUNGS)
        block = []
        for slot, (steps, emit_json) in enumerate(rungs):
            n = rng.randint(3, 8)
            overlaps = [_num(round(rng.uniform(0.05, 0.95), 4)) for _ in range(n)]
            argv = ["evolve", "--n", str(n), "--p", *overlaps, "--parity", parities[slot],
                    "--pair", *_pair(rng, n), *_side(rng),
                    "--rate", _num(round(rng.uniform(0.2, 2.0), 4)),
                    "--t-max", _num(round(rng.uniform(0.5, 5.0), 4)),
                    "--steps", str(steps)]
            if emit_json:
                argv += ["--format", "json"]
            block.append(Request(tuple(argv), steps))
        yield block


def verify_requests(rng: random.Random):
    """Randomized cross-route checks: one heterogeneous point at a time.

    Sample counts 20 to 160 per run, with the per-run seed drawn from the
    workload seed. Runs the Gram route, Kraus dephasing and the
    measurement search (on the first 48 samples) besides the numeric
    layers sweep uses.
    """
    while True:
        yield [Request(("verify", "--samples", str(samples), "--seed", str(rng.randrange(2 ** 31))),
                       samples)
               for samples, _ in _ladder(rng, RUNGS, 20, 160)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: object            # callable(random.Random) -> iterator of Request blocks
    trace_blocks_per_s: float  # traced-pass length, in blocks per second of --seconds
    probe: object = None      # callable(random.Random) -> untimed known-defect requests


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep",
            "per-grid-point numeric route (Bloch, K eigensolve, spin-flip, validation) "
            "where batching must show; the near-unit odd crash is probed apart, untimed",
            sweep_requests, 0.05, near_unit_probe),
        Workload(
            "evolve",
            "closed forms, spec products and row emission only; numeric-route "
            "changes should leave it unchanged",
            evolve_requests, 0.25),
        Workload(
            "verify",
            "one heterogeneous point at a time plus Gram route, Kraus dephasing and "
            "measurement search; shows single-point slowdowns",
            verify_requests, 0.07),
    )
}
