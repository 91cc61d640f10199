"""Output checks for each workload's CLI requests.

A check returns None when the output is right and a one-line reason
otherwise. Values are compared as printed (9 significant digits), which
is what a user of the CLI sees.
"""

import json

BRANCHES = {"pure", "mixed_plus", "mixed_minus"}
DISCORD_ROUTE_TOL = 1e-6
# A row at or after the printed death time may sit up to one print-rounding
# of t (relative 1e-9) before the true death time. For the generated rates
# and overlaps the concurrence slope there stays below 100, so what is left
# is below 1e-6, far under the O(0.1) concurrences of a real violation.
DEATH_TOL = 1e-6


def _table(out: str, fmt: str) -> tuple:
    """(rows as dicts of strings/numbers, trailer death time or None)."""
    if fmt == "json":
        payload = json.loads(out)
        return payload["rows"], payload.get("sudden_death_time")
    lines = out.splitlines()
    trailer = None
    if lines and lines[-1].startswith("# sudden_death_time="):
        trailer = lines.pop().split("=", 1)[1]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]], trailer


def _fmt(argv) -> str:
    return "json" if "json" in argv else "csv"


def check_sweep(request, out: str):
    rows, _ = _table(out, _fmt(request.argv))
    if len(rows) != request.items:
        return f"{len(rows)} rows, expected {request.items}"
    for k, row in enumerate(rows):
        gap = abs(float(row["discord_closed"]) - float(row["discord_numeric"]))
        if not gap <= DISCORD_ROUTE_TOL:
            return f"row {k}: |discord_closed - discord_numeric| = {gap:.3g}"
        if row["branch"] not in BRANCHES:
            return f"row {k}: undocumented branch {row['branch']!r}"
    return None


def check_evolve(request, out: str):
    rows, death = _table(out, _fmt(request.argv))
    if len(rows) != request.items:
        return f"{len(rows)} rows, expected {request.items}"
    if death is None:
        return "no sudden_death_time trailer"
    t = [float(r["t"]) for r in rows]
    discord = [float(r["discord"]) for r in rows]
    conc = [float(r["concurrence"]) for r in rows]
    for k in range(1, len(rows)):
        if discord[k] > discord[k - 1] or conc[k] > conc[k - 1]:
            return f"row {k}: discord or concurrence increases in t"
    if death != "infinite":
        t0 = float(death)
        for k, tk in enumerate(t):
            if tk >= t0 and conc[k] > DEATH_TOL:
                return f"row {k}: concurrence {conc[k]:.3g} at t={tk} >= death time {t0}"
    return None


def check_verify(request, out: str):
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("verify: PASS (5/5"):
        return "verify did not pass all 5 assertions"
    return None


CHECKS = {"sweep": check_sweep, "evolve": check_evolve, "verify": check_verify}


def is_known_defect(request, rc, err: str) -> bool:
    """The documented near-unit odd-parity crash (ROADMAP item 3)."""
    return request.near_unit and rc == 2 and "structurally off unit" in err
