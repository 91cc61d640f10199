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
import json
import math
import sys

import numpy as np

from .correlations import (
    MeasurementSide,
    geometric_discord_numeric,
    geometric_discord_pure_closed,
    mixed_discord_closed,
)
from .dephasing import (
    DephasingParams,
    apply_dephasing,
    dephased_bloch,
    discord_trajectory,
    sudden_death_time,
)
from .errors import CatcorrError, DomainError
from .kernels import WEYL_HEISENBERG, FamilyParams, overlap, su2, su11
from .oracle import discord_by_measurement_search, pair_density_from_overlaps
from .states import (
    Parity,
    SuperpositionSpec,
    _bloch,
    bloch_compose,
    pure_split,
    reduced_pair_density,
)


def _fmt(x: float) -> str:
    """Locale independent, 9 significant digits."""
    return f"{x:.9g}"


def _jnum(x: float) -> float:
    """Float rounded to the printed precision so JSON round-trips."""
    return float(f"{x:.9g}")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_table(args, columns, rows, summary=None) -> None:
    """Write value rows as CSV or as JSON {"columns", "rows"}.

    summary, a (key, value) pair, becomes a top-level JSON key or a
    trailing "# key=value" CSV comment.
    """
    if args.format == "json":
        payload = {
            "columns": columns,
            "rows": [{key: (_jnum(val) if isinstance(val, float) else val)
                      for key, val in zip(columns, row)} for row in rows],
        }
        if summary is not None:
            payload[summary[0]] = summary[1]
        _emit(_json_text(payload), args.out)
        return
    lines = [",".join(columns)]
    lines.extend(",".join([_fmt(val) if isinstance(val, float) else val for val in row])
                 for row in rows)
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
        # a non-finite j fails the half-integer test below
        twice_j = round(2.0 * args.j) if math.isfinite(args.j) else 0
        if abs(2.0 * args.j - twice_j) > 1e-9 or twice_j <= 0:
            raise DomainError("--j must be a positive integer or half-integer")
        return su2(twice_j)
    if args.j is not None:
        raise DomainError("the su11 family takes no --j label")
    if args.bargmann is None:
        raise DomainError("--family su11 needs --bargmann")
    return su11(args.bargmann)


def _reject_labels_without_family(args, flags) -> None:
    """Family label flags do nothing without --family, so refuse them."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise DomainError(f"{flag} needs --family")


def _spec_from_args(args) -> SuperpositionSpec:
    parity = Parity(args.parity)
    if args.p is not None and args.family is not None:
        raise DomainError("give either --p or --family/--z, not both")
    if args.p is not None:
        if args.n is not None and args.n != len(args.p):
            raise DomainError(f"--n {args.n} disagrees with {len(args.p)} --p values")
        _reject_labels_without_family(args, ("--z", "--j", "--bargmann"))
        return SuperpositionSpec(overlaps=tuple(args.p), parity=parity)
    if args.family is not None:
        if args.z is None:
            raise DomainError("--family needs --z")
        if args.n is None:
            raise DomainError("--family mode needs an explicit --n")
        p = overlap(args.z, _family_from_args(args))
        return SuperpositionSpec(overlaps=(p,) * args.n, parity=parity)
    raise DomainError("overlaps required: give --p or --family with --z")


def _selection_from_args(args) -> tuple:
    """Return ("pure", k) or ("mixed", (i, j)) from the flags."""
    if args.pure and args.pair is not None:
        raise DomainError("give either --pure/--k or --pair, not both")
    if args.pure:
        if args.k is None:
            raise DomainError("--pure needs --k")
        return "pure", args.k
    if args.pair is not None:
        return "mixed", (args.pair[0], args.pair[1])
    raise DomainError("select a bipartition: --pure --k K or --pair I J")


def _point(spec: SuperpositionSpec, mode: str, selection, side: MeasurementSide) -> tuple:
    """Closed report of one spec and the density its numeric route reads."""
    if mode == "pure":
        return (geometric_discord_pure_closed(spec, selection),
                pure_split(spec, selection).projector())
    i, j = selection
    return mixed_discord_closed(spec, i, j, side), reduced_pair_density(spec, i, j)


def cmd_report(args) -> int:
    spec = _spec_from_args(args)
    side = MeasurementSide(args.side)
    mode, selection = _selection_from_args(args)
    closed, rho = _point(spec, mode, selection, side)
    lam1, lam2, lam3 = closed.k_eigenvalues
    if mode == "pure":
        selection_repr = str(selection)
        selection_json = {"mode": "pure", "k": selection}
    else:
        i, j = selection
        selection_repr = f"{i}-{j}"
        selection_json = {"mode": "mixed", "pair": [i, j]}

    payload = {
        "spec": {
            "n": spec.n,
            "overlaps": [_jnum(p) for p in spec.overlaps],
            "parity": spec.parity.value,
        },
        "selection": selection_json,
        "measurement_side": side.value,
        "discord": _jnum(closed.discord),
        "discord_numeric": _jnum(geometric_discord_numeric(rho, side).discord),
        "branch": closed.branch.value,
        "concurrence": _jnum(closed.concurrence),
        "lambda1": _jnum(lam1),
        "lambda2": _jnum(lam2),
        "lambda3": _jnum(lam3),
    }

    if args.time is not None and args.rate is None:
        raise DomainError("--time needs --rate")
    if args.rate is not None:
        t = args.time if args.time is not None else 0.0
        params = DephasingParams(rate=args.rate, time=t)
        if mode == "pure":
            numeric_t = geometric_discord_numeric(apply_dephasing(rho, params.gamma), side)
            discord_t, concurrence_t = numeric_t.discord, numeric_t.concurrence
            t0 = math.inf if closed.concurrence > 0.0 else 0.0
        else:
            traj = discord_trajectory(spec, i, j, args.rate, t, side)
            discord_t = traj.discord
            concurrence_t = traj.concurrence
            t0 = sudden_death_time(spec, i, j, args.rate)
        payload["trajectory"] = {
            "rate": _jnum(args.rate),
            "time": _jnum(t),
            "gamma": _jnum(params.gamma),
            "discord": _jnum(discord_t),
            "concurrence": _jnum(concurrence_t),
            "sudden_death_time": "infinite" if math.isinf(t0) else _jnum(t0),
        }

    if args.format == "json":
        _emit(_json_text(payload), args.out)
        return 0
    header = ["n", "parity", "overlaps", "mode", "selection", "measurement_side",
              "discord", "discord_numeric", "branch", "concurrence",
              "lambda1", "lambda2", "lambda3"]
    row = [str(spec.n), spec.parity.value,
           " ".join(_fmt(p) for p in spec.overlaps), mode, selection_repr,
           side.value] + [payload[key] for key in header[6:]]
    if "trajectory" in payload:
        block = payload["trajectory"]
        header += ["rate", "time", "gamma", "discord_t", "concurrence_t",
                   "sudden_death_time"]
        row += [block[key] for key in ("rate", "time", "gamma", "discord",
                                       "concurrence", "sudden_death_time")]
    _emit_table(args, header, [row])
    return 0


_SWEEP_COLUMNS = ["p", "discord_closed", "discord_numeric", "branch",
                  "concurrence", "lambda1", "lambda2", "lambda3"]


def cmd_sweep(args) -> int:
    if args.n is None:
        raise DomainError("sweeps need --n")
    if args.steps < 2:
        raise DomainError("a sweep grid needs at least 2 steps")
    if args.family is not None:
        params = _family_from_args(args)
        if args.z_start is None or args.z_stop is None:
            raise DomainError("family sweeps need --z-start and --z-stop")
        start, stop = args.z_start, args.z_stop
    else:
        _reject_labels_without_family(args, ("--z-start", "--z-stop", "--j", "--bargmann"))
        start, stop = args.p_start, args.p_stop
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError("sweep grid bounds must be finite")
    grid = np.linspace(start, stop, args.steps)
    if args.family is not None:
        grid = np.array([overlap(z, params) for z in grid])
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise DomainError("overlap grid must stay within [0, 1]")
    if args.pure:
        if args.pair is not None:
            raise DomainError("give either --pure/--k or --pair, not both")
        if args.k is None:
            raise DomainError("pure sweeps need --k")
        mode, selection = "pure", args.k
    else:
        mode, selection = "mixed", tuple(args.pair) if args.pair is not None else (1, 2)
    side = MeasurementSide(args.side)
    parity = Parity(args.parity)
    rows = []
    for p in grid:
        spec = SuperpositionSpec(overlaps=(float(p),) * args.n, parity=parity)
        closed, rho = _point(spec, mode, selection, side)
        rows.append([float(p), closed.discord, geometric_discord_numeric(rho, side).discord,
                     closed.branch.value, closed.concurrence, *closed.k_eigenvalues])
    _emit_table(args, _SWEEP_COLUMNS, rows)
    return 0


_EVOLVE_COLUMNS = ["t", "gamma", "discord", "concurrence"]


def cmd_evolve(args) -> int:
    spec = _spec_from_args(args)
    side = MeasurementSide(args.side)
    i, j = args.pair if args.pair is not None else (1, 2)
    if args.rate is None:
        raise DomainError("evolve needs --rate")
    if args.t_max is None or not 0.0 < args.t_max < math.inf:
        raise DomainError("evolve needs a positive, finite --t-max")
    if args.steps < 2:
        raise DomainError("a time grid needs at least 2 steps")
    times = np.linspace(0.0, args.t_max, args.steps)
    rows = []
    for t in times:
        traj = discord_trajectory(spec, i, j, args.rate, float(t), side)
        gamma = DephasingParams(rate=args.rate, time=float(t)).gamma
        rows.append([float(t), gamma, traj.discord, traj.concurrence])
    t0 = sudden_death_time(spec, i, j, args.rate)
    t0_repr = "infinite" if math.isinf(t0) else _jnum(t0)
    _emit_table(args, _EVOLVE_COLUMNS, rows, summary=("sudden_death_time", t0_repr))
    return 0


def _random_verify_samples(rng, count: int) -> list:
    samples = []
    while len(samples) < count:
        n = int(rng.integers(2, 7))
        ps = rng.uniform(0.0, 1.0, size=n)
        parity = Parity.EVEN if rng.uniform() < 0.5 else Parity.ODD
        try:
            spec = SuperpositionSpec(overlaps=tuple(ps), parity=parity)
        except CatcorrError:
            continue
        i, j = sorted(int(x) + 1 for x in rng.choice(n, size=2, replace=False))
        side = MeasurementSide.FIRST if rng.uniform() < 0.5 else MeasurementSide.SECOND
        rate = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(0.0, 3.0))
        gamma = float(rng.uniform(0.0, 1.0))
        samples.append((spec, i, j, side, rate, t, gamma))
    return samples


def _describe_sample(sample) -> str:
    spec, i, j, side, rate, t, gamma = sample
    ps = ",".join(_fmt(p) for p in spec.overlaps)
    return (f"n={spec.n} parity={spec.parity.value} p=[{ps}] pair=({i},{j}) "
            f"side={side.value} rate={_fmt(rate)} t={_fmt(t)} gamma={_fmt(gamma)}")


# Each gap function takes the sample's closed-form pair density rho,
# which reduced_pair_density has validated, and the sample itself.

def _gram_gap(rho, spec, i, j, side, rate, t, gamma) -> float:
    return float(np.max(np.abs(pair_density_from_overlaps(spec, i, j) - rho)))


def _closed_gap(rho, spec, i, j, side, rate, t, gamma) -> float:
    return abs(mixed_discord_closed(spec, i, j, side).discord
               - geometric_discord_numeric(rho, side).discord)


def _kraus_gap(rho, spec, i, j, side, rate, t, gamma) -> float:
    evolved = apply_dephasing(rho, gamma)
    rebuilt = bloch_compose(dephased_bloch(_bloch(rho), gamma))
    return float(np.max(np.abs(evolved - rebuilt)))


def _trajectory_gap(rho, spec, i, j, side, rate, t, gamma) -> float:
    gamma = DephasingParams(rate=rate, time=t).gamma
    evolved = apply_dephasing(rho, gamma)
    traj = discord_trajectory(spec, i, j, rate, t, side)
    numeric = geometric_discord_numeric(evolved, side)
    return max(abs(traj.discord - numeric.discord), abs(traj.concurrence - numeric.concurrence))


def _search_gap(rho, spec, i, j, side, rate, t, gamma) -> float:
    if t > 1.5:
        rho = apply_dephasing(rho, DephasingParams(rate=rate, time=t).gamma)
    return abs(discord_by_measurement_search(rho, side)
               - geometric_discord_numeric(rho, side).discord)


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise DomainError("verify needs --samples of at least 1")
    if args.search_samples < 1:
        raise DomainError("verify needs --search-samples of at least 1")
    if not 0.0 <= args.tol < math.inf:
        raise DomainError("verify needs a finite, nonnegative --tol")
    rng = np.random.default_rng(args.seed)
    samples = [(reduced_pair_density(*sample[:3]), sample)
               for sample in _random_verify_samples(rng, args.samples)]
    search_samples = samples[: min(len(samples), args.search_samples)]
    checks = [("gram_vs_closed", samples, _gram_gap),
              ("closed_vs_numeric", samples, _closed_gap),
              ("kraus_vs_bloch_scaling", samples, _kraus_gap),
              ("trajectory_consistency", samples, _trajectory_gap),
              ("search_vs_spectrum", search_samples, _search_gap)]
    lines = []
    passed = 0
    for name, subset, gap in checks:
        deviation, worst = 0.0, None
        for rho, sample in subset:
            value = gap(rho, *sample)
            if value > deviation:
                deviation, worst = value, sample
        ok = deviation <= args.tol
        passed += ok
        lines.append(f"{name:<24} samples={len(subset)} max_deviation={_fmt(deviation)} "
                     + ("PASS" if ok else "FAIL"))
        if not ok and worst is not None:
            lines.append(f"    worst: {_describe_sample(worst)}")
    all_pass = passed == len(checks)
    lines.append(f"verify: {'PASS' if all_pass else 'FAIL'} ({passed}/{len(checks)} "
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catcorr",
        description="Pairwise quantum correlations of multimode coherent-state "
                    "superpositions: geometric discord, concurrence, dephasing.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="correlations of a single configuration")
    _add_spec_arguments(report)
    report.add_argument("--pure", action="store_true",
                        help="use the pure k|(n-k) split instead of a mode pair")
    report.add_argument("--k", type=int, default=None, help="split size for --pure")
    report.add_argument("--pair", type=int, nargs=2, default=None,
                        metavar=("I", "J"), help="1-based mode pair")
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
    sweep.add_argument("--pair", type=int, nargs=2, default=None, metavar=("I", "J"))
    sweep.add_argument("--p-start", type=float, default=0.0)
    sweep.add_argument("--p-stop", type=float, default=1.0)
    sweep.add_argument("--z-start", type=float, default=None)
    sweep.add_argument("--z-stop", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=101)
    _add_output_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    evolve = sub.add_parser("evolve", help="pair correlations along a dephasing trajectory")
    _add_spec_arguments(evolve)
    evolve.add_argument("--pair", type=int, nargs=2, default=None, metavar=("I", "J"))
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
    try:
        return args.func(args)
    except CatcorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
