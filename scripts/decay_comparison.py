"""Compare discord and concurrence decay under pure dephasing.

For a few representative balanced superpositions this emits one
`catcorr evolve` CSV per state and prints a summary table of
entanglement sudden-death times next to the discord remaining at
twice that time. Discord stays finite after the concurrence hits
zero for every state with an omitted-mode product inside (0, 1).
"""

import argparse
import pathlib
import sys

from catcorr.cli import main as cli_main
from catcorr.correlations import geometric_discord_numeric
from catcorr.dephasing import DephasingParams, apply_dephasing, sudden_death_time
from catcorr.states import Parity, SuperpositionSpec, reduced_pair_density

CASES = [
    ("even_n4_p05", SuperpositionSpec(overlaps=(0.5,) * 4, parity=Parity.EVEN)),
    ("odd_n4_p05", SuperpositionSpec(overlaps=(0.5,) * 4, parity=Parity.ODD)),
    ("even_n3_p07", SuperpositionSpec(overlaps=(0.7,) * 3, parity=Parity.EVEN)),
    ("odd_n5_p06", SuperpositionSpec(overlaps=(0.6,) * 5, parity=Parity.ODD)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path,
                        default=pathlib.Path("decay"))
    parser.add_argument("--rate", type=float, default=1.0)
    parser.add_argument("--steps", type=int, default=201)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'case':<14} {'death time':>12} {'discord at 2 t0':>16}")
    for label, spec in CASES:
        t0 = sudden_death_time(spec.pair(1, 2), args.rate)
        out_path = args.out_dir / f"{label}.csv"
        code = cli_main([
            "evolve", "--n", str(spec.n),
            "--p", *(str(p) for p in spec.overlaps),
            "--parity", spec.parity.value, "--pair", "1", "2",
            "--rate", str(args.rate), "--t-max", f"{3.0 * t0:.6f}",
            "--steps", str(args.steps), "--out", str(out_path),
        ])
        if code != 0:
            raise SystemExit(f"evolve failed ({code}) for {label}")
        gamma = DephasingParams(rate=args.rate, time=2.0 * t0).gamma
        evolved = apply_dephasing(reduced_pair_density(spec.pair(1, 2)), gamma)
        late = geometric_discord_numeric(evolved).discord
        print(f"{label:<14} {t0:>12.6f} {late:>16.3e}  -> {out_path}")


if __name__ == "__main__":
    sys.exit(main())
