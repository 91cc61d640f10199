"""Command-line front end: reports, sweeps, trajectories, verification.

Four subcommands. `report` prints the correlation data of one spec,
`sweep` tabulates discord and concurrence over an overlap grid,
`evolve` follows a pair under dephasing, and `verify` replays the
cross-route consistency checks on randomized inputs. Output is CSV or
JSON with 9 significant digits; all validation failures exit with
code 2 and a one-line message, verify exits 1 when a tolerance is
violated.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .correlations import geometric_discord_numeric, k_spectrum_discord, mixed_discord_closed
from .dephasing import (
    DephasingParams,
    apply_dephasing,
    dephased_bloch,
    discord_trajectory,
    sudden_death_time,
)
from .errors import CatcorrError, DivergentNormalizationError, DomainError
from .kernels import WEYL_HEISENBERG, FamilyParams, overlap, su2, su11
from .oracle import discord_by_measurement_search, pair_density_from_overlaps
from .states import (Parity, SuperpositionSpec, _bloch, bloch_compose, check_density,
                     reduced_pair_density)


def _fmt(x: float) -> str:
    """Locale independent, 9 significant digits."""
    return f"{x:.9g}"


def _jnum(x: float) -> float:
    """Float rounded to the printed precision so JSON round-trips."""
    return float(f"{x:.9g}")


def _emit(text: str, out_path, mode: str = "w") -> None:
    if out_path:
        try:
            with open(out_path, mode, encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise CatcorrError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_numbers(column) -> list:
    """json.dumps's text of each _jnum cell of a float column.

    For a normal double x the shortest repr of y = float("%.9g" % x) has the
    printed digits: another decimal of at most 9 significant digits within half
    an ulp of y would differ from them by under 1e-15 relative, not 1e-9. So a
    cell is its printed text, with ".0" after an integral one, unless the
    column prints a nan or inf ("n"), an exponent of 9 or more ("e+"), where %g
    and repr choose notation differently, or a subnormal ("e-3"), where 9
    digits do not pin the double; such a column goes through float and the
    C encoder's repr.
    """
    texts = list(map("%.9g".__mod__, column))
    joined = " ".join(texts)
    if "n" in joined or "e+" in joined or "e-3" in joined:
        return json.dumps(list(map(float, texts)))[1:-1].split(", ")
    return [text if "." in text or "e" in text else text + ".0" for text in texts]


def _emit_table(args, columns, rows, summary=None) -> None:
    """Write a list of rows, tuples of float and str cells (a column's kind is
    read from the first row), as CSV or JSON {"columns", "rows"}, one `%` call
    per row; summary, a (key, value) pair, is a JSON key or a "# key=value" line."""
    kinds = ["%.9g" if isinstance(val, float) else "%s" for val in rows[0]]
    if args.format == "json":
        # json.dumps(indent=2, sort_keys=True) of _jnum cells
        cells = [_json_numbers(column) if kind == "%.9g"
                 else list(map(encode_basestring_ascii, column))
                 for kind, column in zip(kinds, zip(*rows))]
        keys = sorted(dict(zip(columns, range(len(columns)))).items())  # as in a dict of a row
        template = "\n    {%s\n    }" % ",".join(
            f"\n      {encode_basestring_ascii(key).replace('%', '%%')}: %s" for key, _ in keys)
        body = ",".join(map(template.__mod__, zip(*[cells[at] for _, at in keys])))
        skeleton = dict([("columns", columns), ("rows", [0])] + ([summary] if summary else []))
        text = _json_text(skeleton).replace('"rows": [\n    0\n  ]', f'"rows": [{body}\n  ]')
        _emit(text, args.out)
        return
    lines = [",".join(columns), *map(",".join(kinds).__mod__, rows)]
    if summary is not None:
        key, val = summary
        lines.append(f"# {key}={_fmt(val) if isinstance(val, float) else val}")
    _emit("\n".join(lines) + "\n", args.out)


def _family_from_args(args) -> FamilyParams:
    if args.family == "wh":
        if args.j is not None or args.bargmann is not None:
            raise DomainError("the wh family takes no --j or --bargmann label")
        return WEYL_HEISENBERG
    if args.family == "su2":
        if args.bargmann is not None:
            raise DomainError("the su2 family takes no --bargmann label")
        if args.j is None:
            raise DomainError("--family su2 needs --j")
        # a non-finite 2j, |j| near the largest float included, fails the test below
        twice = 2.0 * args.j
        twice_j = round(twice) if math.isfinite(twice) else 0
        if abs(twice - twice_j) > 1e-9 or twice_j <= 0:
            raise DomainError("--j must be a positive integer or half-integer")
        return su2(twice_j)
    if args.j is not None:
        raise DomainError("the su11 family takes no --j label")
    if args.bargmann is None:
        raise DomainError("--family su11 needs --bargmann")
    return su11(args.bargmann)


def _reject_given(args, flags, message: str) -> None:
    """Refuse flags that would be ignored; message formats with the flag."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise DomainError(message.format(flag))


def _too_large(flag: str, value: int) -> DomainError:
    """The error of a size flag whose first full-size array cannot be allocated."""
    return DomainError(f"{flag} {value} needs more memory than can be allocated")


def _spec_from_args(args) -> SuperpositionSpec:
    parity = Parity(args.parity)
    if args.p is not None and args.family is not None:
        raise DomainError("give either --p or --family/--z, not both")
    if args.p is not None:
        if args.n is not None and args.n != len(args.p):
            raise DomainError(f"--n {args.n} disagrees with {len(args.p)} --p values")
        _reject_given(args, ("--z", "--j", "--bargmann"), "{} needs --family")
        return SuperpositionSpec(overlaps=tuple(args.p), parity=parity)
    if args.family is not None:
        if args.z is None:
            raise DomainError("--family needs --z")
        if args.n is None:
            raise DomainError("--family mode needs an explicit --n")
        p = overlap(args.z, _family_from_args(args))
        return SuperpositionSpec(overlaps=(p,) * args.n, parity=parity)
    raise DomainError("overlaps required: give --p or --family with --z")


def _mode_group(text: str):
    """One --pair member: a mode index, or the comma-separated indices of a group."""
    modes = tuple(int(m) for m in text.split(","))
    return modes if len(modes) > 1 else modes[0]


def _selection_from_args(args, n: int, default=None) -> tuple:
    """The two mode groups of --pair A B, or of --pure --k K as 1..K | K+1..n;
    `default` when neither is given."""
    if not args.pure:
        _reject_given(args, ("--k",), "{} needs --pure")
    if args.pure and args.pair is not None:
        raise DomainError("give either --pure/--k or --pair, not both")
    if args.pure:
        if args.k is None:
            raise DomainError("--pure needs --k")
        if not 1 <= args.k <= n - 1:
            raise DomainError(f"split size k must lie in 1..{n - 1}")
        return tuple(range(1, args.k + 1)), tuple(range(args.k + 1, n + 1))
    if args.pair is not None:
        return tuple(args.pair)
    if default is None:
        raise DomainError("select a bipartition: --pure --k K or --pair I J")
    return default


def _measured_first(side: str, groups) -> tuple:
    """A selection's groups with the measured one first: --side second
    measures B of --pair A B, the first group of the pair (B, A)."""
    return tuple(groups) if side == "first" else tuple(groups)[::-1]


def _describe_selection(groups, n: int) -> tuple:
    """(mode, CSV cell, JSON object) of a selection. The cut 1..k | k+1..n
    reads as pure split k however it was spelled; any other selection reads
    as its groups, and its mode is pure when nothing is traced out."""
    a, b = (g if isinstance(g, tuple) else (g,) for g in groups)
    if a + b == tuple(range(1, n + 1)):
        return "pure", str(len(a)), {"mode": "pure", "k": len(a)}
    mode = "pure" if len(a) + len(b) == n else "mixed"
    return mode, "-".join(" ".join(map(str, g)) for g in (a, b)), {"mode": mode, "pair": list(groups)}


def _closed_cells(pair) -> list:
    """The discord, discord_numeric, branch, concurrence and lambda cells of a
    selection, or arrays of them over a grid: no numeric concurrence."""
    closed = mixed_discord_closed(pair)
    return [closed.discord, k_spectrum_discord(reduced_pair_density(pair)), closed.branch,
            closed.concurrence, *closed.k_eigenvalues]


def _trajectory_cells(pair, params: DephasingParams) -> tuple:
    """gamma, discord and concurrence at params.time (a float or an array of
    times), and the sudden-death cell: "infinite" or the time as printed."""
    traj = discord_trajectory(pair, params.rate, params.time)
    t0 = sudden_death_time(pair, params.rate)
    return (params.gamma, traj.discord, traj.concurrence,
            "infinite" if math.isinf(t0) else _jnum(t0))


_REPORT_CELLS = ["discord", "discord_numeric", "branch", "concurrence",
                 "lambda1", "lambda2", "lambda3"]
_TRAJECTORY_CELLS = ["rate", "time", "gamma", "discord", "concurrence", "sudden_death_time"]


def _named_cells(names, cells) -> dict:
    """Cells by name, each float rounded to the printed precision, a branch as its value."""
    return {name: _jnum(x) if isinstance(x, float) else str(x) for name, x in zip(names, cells)}


def cmd_report(args) -> int:
    spec = _spec_from_args(args)
    groups = _selection_from_args(args, spec.n)
    pair = spec.pair(*_measured_first(args.side, groups))
    closed = _named_cells(_REPORT_CELLS, _closed_cells(pair))
    trajectory = {}
    if args.time is not None and args.rate is None:
        raise DomainError("--time needs --rate")
    if args.rate is not None:
        t = args.time if args.time is not None else 0.0
        if not math.isfinite(t):
            raise DomainError("report needs a finite --time")
        trajectory = _named_cells(_TRAJECTORY_CELLS, (
            args.rate, t, *_trajectory_cells(pair, DephasingParams(rate=args.rate, time=t))))
    mode, selection_repr, selection_json = _describe_selection(groups, spec.n)
    if args.format == "json":
        payload = {"spec": {"n": spec.n, "overlaps": [_jnum(p) for p in spec.overlaps],
                            "parity": spec.parity.value},
                   "selection": selection_json, "measurement_side": args.side, **closed}
        if trajectory:
            payload["trajectory"] = trajectory
        _emit(_json_text(payload), args.out)
        return 0
    # one flat row: a trajectory cell named as a closed one is suffixed _t
    header = ["n", "parity", "overlaps", "mode", "selection", "measurement_side", *closed,
              *(f"{name}_t" if name in closed else name for name in trajectory)]
    row = (str(spec.n), spec.parity.value, " ".join(map(_fmt, spec.overlaps)), mode,
           selection_repr, args.side, *closed.values(), *trajectory.values())
    _emit_table(args, header, [row])
    return 0


_SWEEP_COLUMNS = ["p", "discord_closed", "discord_numeric", "branch",
                  "concurrence", "lambda1", "lambda2", "lambda3"]
# grid points per stacked pass: a 2,000-point JSON sweep run unblocked raised
# peak RSS by 5.2 to 5.4 MB against 4.0 MB at 512 points, with no clear time gain
_SWEEP_BLOCK = 512


def cmd_sweep(args) -> int:
    if args.n is None:
        raise DomainError("sweeps need --n")
    if args.steps < 2:
        raise DomainError("a sweep grid needs at least 2 steps")
    if args.family is not None:
        params = _family_from_args(args)
        if args.z_start is None or args.z_stop is None:
            raise DomainError("family sweeps need --z-start and --z-stop")
        _reject_given(args, ("--p-start", "--p-stop"), "{} cannot be used with --family")
        start, stop = args.z_start, args.z_stop
    else:
        _reject_given(args, ("--z-start", "--z-stop", "--j", "--bargmann"), "{} needs --family")
        start = 0.0 if args.p_start is None else args.p_start
        stop = 1.0 if args.p_stop is None else args.p_stop
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError("sweep grid bounds must be finite")
    try:
        grid = np.linspace(start, stop, args.steps)
    except MemoryError:
        raise _too_large("--steps", args.steps) from None
    if args.family is not None:
        # as Python floats, an overflowing |z|^2 raises instead of warning
        grid = np.array([overlap(z, params) for z in grid.tolist()])
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise DomainError("overlap grid must stay within [0, 1]")
    groups = _measured_first(args.side, _selection_from_args(args, args.n, default=(1, 2)))
    parity = Parity(args.parity)
    rows = []
    for first in range(0, grid.size, _SWEEP_BLOCK):
        block = grid[first:first + _SWEEP_BLOCK]
        try:
            spec = SuperpositionSpec(overlaps=(block,) * args.n, parity=parity)
        except DivergentNormalizationError:
            # point by point the earliest failure decides: a bad selection fails
            # every point, so it raises first unless the first point is null
            SuperpositionSpec(overlaps=(block[:1],) * args.n, parity=parity).pair(*groups)
            raise
        columns = [block, *_closed_cells(spec.pair(*groups))]
        rows.extend(zip(*(np.broadcast_to(column, block.shape).tolist() for column in columns)))
    _emit_table(args, _SWEEP_COLUMNS, rows)
    return 0


_EVOLVE_COLUMNS = ["t", "gamma", "discord", "concurrence"]


def cmd_evolve(args) -> int:
    spec = _spec_from_args(args)
    if args.rate is None:
        raise DomainError("evolve needs --rate")
    if args.t_max is None or not 0.0 < args.t_max < math.inf:
        raise DomainError("evolve needs a positive, finite --t-max")
    if args.steps < 2:
        raise DomainError("a time grid needs at least 2 steps")
    try:
        times = np.linspace(0.0, args.t_max, args.steps)
    except MemoryError:
        raise _too_large("--steps", args.steps) from None
    params = DephasingParams(rate=args.rate, time=times)
    groups = args.pair if args.pair is not None else (1, 2)
    *columns, t0 = _trajectory_cells(spec.pair(*_measured_first(args.side, groups)), params)
    rows = list(zip(*(column.tolist() for column in [params.time, *columns])))
    _emit_table(args, _EVOLVE_COLUMNS, rows, summary=("sudden_death_time", t0))
    return 0


class _RawDraw:
    """numpy Generator's integers, random and choice draws, read from the raw
    64-bit words of its PCG64 bit generator in batches.

    A double is a word's top 53 bits times 2^-53 (_doubles). A 32-bit draw is
    the low half of a word, and buffers the high half for the next 32-bit
    draw, as PCG64 does; a double leaves that buffer alone. bounded(r) is
    Generator.integers(0, r + 1) for 0 <= r < 2^32 - 1: Lemire's multiply
    and shift with rejection (arXiv 1805.10941). NEP 19 keeps the raw streams
    stable; the Generator methods' streams it does not freeze. The first
    batch is drawn at once. close() leaves the bit generator where the
    Generator calls leave it.
    """

    def __init__(self, rng, batch: int):
        self._bits, self._batch = rng.bit_generator, batch
        state = self._bits.state
        self._has_half, self._half = state["has_uint32"], state["uinteger"]
        self._batches = [self._bits.random_raw(batch)]
        self.words, self._used = self._batches[0].tolist(), 0

    def take(self, count: int) -> int:
        """Claim the next count words, the count doubles Generator.random(count)
        draws, and return their offset in words, a list that grows in place;
        doubles() reads them as doubles."""
        while self._used + count > len(self.words):
            self._batches.append(self._bits.random_raw(self._batch))
            self.words += self._batches[-1].tolist()
        self._used += count
        return self._used - count

    def doubles(self) -> np.ndarray:
        """Every word drawn so far, read as a double."""
        return _doubles(np.concatenate(self._batches))

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        word = self.words[self.take(1)]
        self._has_half, self._half = 1, word >> 32
        return word & 0xFFFFFFFF

    def bounded(self, r: int) -> int:
        if r == 0:
            return 0
        m = self._uint32() * (r + 1)
        if m & 0xFFFFFFFF < r + 1:
            threshold = (0xFFFFFFFF - r) % (r + 1)
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * (r + 1)
        return m >> 32

    def two_of(self, n: int) -> tuple:
        """Generator.choice(n, 2, replace=False), sorted: Floyd's algorithm,
        then the draw that shuffles its two picks."""
        x = self.bounded(n - 2)
        y = self.bounded(n - 1)
        y = n - 1 if y == x else y
        self.bounded(1)
        return (x, y) if x < y else (y, x)

    def close(self) -> None:
        self._bits.advance(self._used - len(self.words))
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        self._bits.state = state


def _doubles(words) -> np.ndarray:
    """Raw 64-bit words as Generator.random reads them: the top 53 bits times 2^-53."""
    return (np.asarray(words, dtype=np.uint64) >> 11) * 2.0 ** -53


# raw words read per verify sample in a batch; a sample takes 10.9 on average
_VERIFY_WORDS = 12


@dataclass(frozen=True, eq=False)
class _VerifySamples:
    """verify's samples as (S,) columns: each sample's n modes, its overlaps
    in mode order padded by unit overlaps to (S, 6), whether its parity is
    odd, its pair i < j, whether the first of them is measured, and its rate,
    time t and damping probability gamma."""

    n: np.ndarray
    overlaps: np.ndarray
    odd: np.ndarray
    i: np.ndarray
    j: np.ndarray
    first: np.ndarray
    rate: np.ndarray
    t: np.ndarray
    gamma: np.ndarray


def _random_verify_samples(rng, count: int) -> _VerifySamples:
    """count verify samples, as the Generator calls integers(2, 7), random(n),
    random(), choice(n, 2, replace=False) and random() four times draw them,
    read from raw words by _RawDraw; a spec that raises is skipped before its
    pair is drawn.

    The loop draws each sample's n and pair and notes where its doubles lie;
    numpy reads them from the words afterwards. Only an odd spec with every
    overlap above 1/2 can be null, so only such a sample builds its spec,
    which alone judges whether it is skipped.
    """
    try:
        draw = _RawDraw(rng, _VERIFY_WORDS * count)
    except MemoryError:
        raise _too_large("--samples", count) from None
    words, drawn = draw.words, []
    while len(drawn) < count:
        n = 2 + draw.bounded(4)
        at = draw.take(n + 1)  # n overlaps, then the parity draw
        # an odd parity double has the word's top bit set; an overlap above
        # 1/2 has the word's top 53 bits above 2^52
        if words[at + n] >> 63 and min(words[at:at + n]) >> 11 > 1 << 52:
            try:
                SuperpositionSpec(overlaps=tuple(_doubles(words[at:at + n])), parity=Parity.ODD)
            except CatcorrError:
                continue
        x, y = draw.two_of(n)
        drawn.append((n, at, x + 1, y + 1, draw.take(4)))
    draw.close()
    n, at, i, j, tail = np.array(drawn).T
    doubles, modes = draw.doubles(), np.arange(6)  # n is at most 2 + 4
    overlaps = np.where(modes < n[:, None], doubles[at[:, None] + modes], 1.0)
    side, rate, t, gamma = doubles[tail[:, None] + np.arange(4)].T
    return _VerifySamples(n, overlaps, doubles[at + n] >= 0.5, i, j, side < 0.5,
                          0.2 + 1.8 * rate, 3.0 * t, gamma)


def _describe_sample(samples: _VerifySamples, k: int) -> str:
    n = samples.n[k]
    ps = ",".join(map(_fmt, samples.overlaps[k, :n].tolist()))
    parity = "odd" if samples.odd[k] else "even"
    side = "first" if samples.first[k] else "second"
    return (f"n={n} parity={parity} p=[{ps}] pair=({samples.i[k]},{samples.j[k]}) "
            f"side={side} rate={_fmt(samples.rate[k])} t={_fmt(samples.t[k])} "
            f"gamma={_fmt(samples.gamma[k])}")


_VERIFY_CHECKS = ("gram_vs_closed", "closed_vs_numeric", "kraus_vs_bloch_scaling",
                  "trajectory_consistency", "search_vs_spectrum")


def _verify_gaps(samples: _VerifySamples, searched: int) -> np.ndarray:
    """The deviations of every sample, one row per check in _VERIFY_CHECKS
    order; the search row holds the first `searched` samples only.

    A second-side sample measures the first mode of its reversed pair (j, i).
    The samples of one parity are one grid spec, their padded overlaps cut to
    the parity's widest n, whose pair inputs and Gram densities at each
    sample's modes are formed in one call each (see SuperpositionSpec.pair);
    the closed routes then run once per parity too. The Gram stack is
    checked once, and every numeric route runs once, over all samples; one
    Kraus call dephases the stack by gamma and by the damping at time t. The
    search reads the pair density, or the density dephased to time t when
    t > 1.5.
    """
    count = samples.n.size
    rho = np.empty((count, 4, 4), dtype=complex)
    gram = np.empty_like(rho)
    closed, traj_discord, traj_concurrence = np.empty((3, count))
    gamma_t = DephasingParams(rate=samples.rate, time=samples.t).gamma
    a = np.where(samples.first, samples.i, samples.j)
    b = np.where(samples.first, samples.j, samples.i)
    for parity, members in ((Parity.EVEN, ~samples.odd), (Parity.ODD, samples.odd)):
        if not members.any():
            continue
        width = samples.n[members].max()
        grid = SuperpositionSpec(tuple(samples.overlaps[members, :width].T), parity)
        modes = a[members], b[members]
        pair = grid.pair(*modes)
        rho[members] = reduced_pair_density(pair)
        gram[members] = pair_density_from_overlaps(grid, *modes)
        closed[members] = mixed_discord_closed(pair).discord
        traj = discord_trajectory(pair, samples.rate[members], samples.t[members])
        traj_discord[members], traj_concurrence[members] = traj.discord, traj.concurrence
    gaps = np.empty((len(_VERIFY_CHECKS), count))
    gaps[0] = np.abs(check_density(gram) - rho).reshape(count, 16).max(axis=1)
    # the first route that reads the stack as densities checks it
    discord = k_spectrum_discord(rho)
    gaps[1] = np.abs(closed - discord)
    rebuilt = bloch_compose(dephased_bloch(_bloch(rho), samples.gamma))
    dephased, evolved = np.split(apply_dephasing(np.concatenate([rho, rho]),
                                                 np.concatenate([samples.gamma, gamma_t])), 2)
    gaps[2] = np.abs(dephased - rebuilt).reshape(count, 16).max(axis=1)
    numeric = geometric_discord_numeric(evolved)
    gaps[3] = np.maximum(np.abs(traj_discord - numeric.discord),
                         np.abs(traj_concurrence - numeric.concurrence))
    late = (samples.t > 1.5)[:searched]
    target = np.where(late[:, None, None], evolved[:searched], rho[:searched])
    expected = np.where(late, numeric.discord[:searched], discord[:searched])
    gaps[4, :searched] = np.abs(discord_by_measurement_search(target) - expected)
    return gaps


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise DomainError("verify needs --samples of at least 1")
    if args.search_samples < 1:
        raise DomainError("verify needs --search-samples of at least 1")
    if not 0.0 <= args.tol < math.inf:
        raise DomainError("verify needs a finite, nonnegative --tol")
    if args.seed < 0:
        raise DomainError("verify needs a nonnegative --seed")
    rng = np.random.default_rng(args.seed)
    samples = _random_verify_samples(rng, args.samples)
    searched = min(args.samples, args.search_samples)
    gaps = _verify_gaps(samples, searched)
    lines = []
    passed = 0
    for name, row in zip(_VERIFY_CHECKS, [*gaps[:-1], gaps[-1, :searched]]):
        # the first sample at the maximum deviation, or the first NaN one
        worst = int(np.argmax(row))
        deviation = float(row[worst])
        ok = deviation <= args.tol
        passed += ok
        lines.append(f"{name:<24} samples={row.size} max_deviation={_fmt(deviation)} "
                     + ("PASS" if ok else "FAIL"))
        if not ok:
            lines.append(f"    worst: {_describe_sample(samples, worst)}")
    all_pass = passed == len(_VERIFY_CHECKS)
    lines.append(f"verify: {'PASS' if all_pass else 'FAIL'} ({passed}/{len(_VERIFY_CHECKS)} "
                 f"assertions within tol={_fmt(args.tol)})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_pass else 1


def _add_spec_arguments(parser: argparse.ArgumentParser, one_state: bool = True) -> None:
    """State flags; a sweep builds its own overlap grid, so it gets no --p or --z."""
    parser.add_argument("--n", type=int, default=None,
                        help="number of modes (inferred from --p when omitted)"
                        if one_state else "number of modes")
    if one_state:
        parser.add_argument("--p", type=float, nargs="+", default=None,
                            help="per-mode branch overlaps in [0, 1]")
    parser.add_argument("--parity", choices=["even", "odd"], default="even",
                        help="relative phase parity of the superposition")
    labels = "--z into an overlap" if one_state else "--z-start/--z-stop into overlaps"
    parser.add_argument("--family", choices=["wh", "su2", "su11"], default=None,
                        help=f"coherent-state family used to translate {labels}")
    if one_state:
        parser.add_argument("--z", type=float, default=None,
                            help="family label amplitude (equal across modes)")
    parser.add_argument("--j", type=float, default=None,
                        help="spin length for --family su2 (integer or half-integer)")
    parser.add_argument("--bargmann", type=float, default=None,
                        help="positive Bargmann index for --family su11")
    parser.add_argument("--side", choices=["first", "second"], default="first",
                        help="which pair member the local measurement acts on")


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output file (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The catcorr parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="catcorr",
        description="Pairwise quantum correlations of multimode coherent-state "
                    "superpositions: geometric discord, concurrence, dephasing.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="correlations of a single configuration")
    _add_spec_arguments(report)
    report.add_argument("--pure", action="store_true",
                        help="the pure split 1..K | K+1..n, i.e. --pair 1,...,K K+1,...,n")
    report.add_argument("--k", type=int, default=None, help="split size for --pure")
    report.add_argument("--pair", type=_mode_group, nargs=2, default=None, metavar=("A", "B"),
                        help="1-based mode pair, or comma-separated mode groups (--pair 1,2 4)")
    report.add_argument("--rate", type=float, default=None,
                        help="dephasing rate; adds a trajectory block")
    report.add_argument("--time", type=float, default=None,
                        help="evolution time for the trajectory block")
    _add_output_arguments(report)
    report.set_defaults(func=cmd_report)

    sweep = sub.add_parser("sweep", help="discord and concurrence over an overlap grid")
    _add_spec_arguments(sweep, one_state=False)
    sweep.add_argument("--pure", action="store_true")
    sweep.add_argument("--k", type=int, default=None)
    sweep.add_argument("--pair", type=_mode_group, nargs=2, default=None, metavar=("A", "B"))
    sweep.add_argument("--p-start", type=float, default=None)
    sweep.add_argument("--p-stop", type=float, default=None)
    sweep.add_argument("--z-start", type=float, default=None)
    sweep.add_argument("--z-stop", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=101)
    _add_output_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    evolve = sub.add_parser("evolve", help="pair correlations along a dephasing trajectory")
    _add_spec_arguments(evolve)
    evolve.add_argument("--pair", type=_mode_group, nargs=2, default=None, metavar=("A", "B"))
    evolve.add_argument("--rate", type=float, default=None, help="dephasing rate, > 0")
    evolve.add_argument("--t-max", type=float, default=None, help="end of the time grid")
    evolve.add_argument("--steps", type=int, default=101)
    _add_output_arguments(evolve)
    evolve.set_defaults(func=cmd_evolve)

    verify = sub.add_parser("verify", help="randomized cross-route consistency checks")
    verify.add_argument("--samples", type=int, default=200)
    verify.add_argument("--seed", type=int, default=20260817)
    verify.add_argument("--tol", type=float, default=1e-6)
    verify.add_argument("--search-samples", type=int, default=48,
                        help="subset size for the measurement-search assertion")
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    created = args.out and not os.path.exists(args.out)
    try:
        if args.out:
            # appending nothing changes no text, and an unwritable path fails before the work
            _emit("", args.out, "a")
        return args.func(args)
    except CatcorrError as exc:
        if created and os.path.exists(args.out):
            os.remove(args.out)  # exit 2 creates no --out file
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
