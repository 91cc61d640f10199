"""50-digit mpmath values of the closed pair quantities, as a test oracle.

Each function reads the double inputs exactly (mpf of a float is exact)
and evaluates the textbook expressions, 1 + cos(m pi) P and 1 - p^2
included, at 50 significant digits, where their cancellation costs
nothing. A double route is then judged by its distance to these values,
not by its agreement with another double route.
"""

import mpmath

DPS = 50


def _groups(a, b):
    return tuple(g if isinstance(g, tuple) else (g,) for g in (a, b))


def closed_reference(overlaps, sign, a, b, first=True) -> dict:
    """lam1, lam2, lam3, discord and concurrence of groups a, b of the state
    with these overlaps and branch sign (+1 even, -1 odd)."""
    with mpmath.workdps(DPS):
        ps = [mpmath.mpf(p) for p in overlaps]
        group_a, group_b = _groups(a, b)
        p_a = mpmath.fprod(ps[m - 1] for m in group_a)
        p_b = mpmath.fprod(ps[m - 1] for m in group_b)
        q = mpmath.fprod(p for m, p in enumerate(ps, start=1) if m not in group_a + group_b)
        denominator = 1 + sign * p_a * p_b * q
        p_meas, p_other = (p_a, p_b) if first else (p_b, p_a)
        z_local = (p_meas + sign * p_other * q) / denominator
        zz = (p_a * p_b + sign * q) / denominator
        s_ab = mpmath.sqrt((1 - p_a ** 2) * (1 - p_b ** 2))
        lam1 = z_local ** 2 + zz ** 2
        lam2 = (s_ab / denominator) ** 2
        lam3 = lam2 * q ** 2
        return {"lam1": lam1, "lam2": lam2, "lam3": lam3,
                "discord": (min(lam1, lam2) + lam3) / 4, "concurrence": q * s_ab / denominator}


def condition(name, overlaps, sign, a, b, first=True) -> float:
    """Relative condition number of one closed quantity with respect to
    relative perturbations of each complement d_l = 1 - p_l, which a
    double overlap near 1 carries exactly (Sterbenz)."""
    with mpmath.workdps(DPS):
        base = closed_reference(overlaps, sign, a, b, first)[name]
        if base == 0:
            return 0.0
        h = mpmath.mpf("1e-30")
        total = mpmath.mpf(0)
        for k, p in enumerate(overlaps):
            moved = list(overlaps)
            moved[k] = 1 - (1 - mpmath.mpf(p)) * (1 + h)
            shifted = closed_reference(moved, sign, a, b, first)[name]
            total += abs(shifted - base) / (h * abs(base))
        return float(total)


def gram_density_reference(overlaps, sign, i, j) -> list:
    """The 4x4 density of modes i, j built as the textbook builds it, at 50
    digits: branch kets (1, 0) and (p, sqrt(1 - p^2)) per mode, the mixture
    N^2 (u u^T + v v^T + sign q (u v^T + v u^T)) of the product kets
    u, v, turned into each mode's normalized sum/difference basis (its
    difference vector is (0, 1) at p = 1). Entries that vanish exactly come
    out at the 1e-50 level."""
    with mpmath.workdps(DPS):
        ps = [mpmath.mpf(p) for p in overlaps]
        q = mpmath.fprod(p for m, p in enumerate(ps, start=1) if m not in (i, j))
        nsq = 1 / (2 * (1 + sign * mpmath.fprod(ps)))
        kets, bases = [], []
        for p in (ps[i - 1], ps[j - 1]):
            w, w_prime = mpmath.matrix([1, 0]), mpmath.matrix([p, mpmath.sqrt(1 - p * p)])
            plus, minus = w + w_prime, w - w_prime
            minus = minus / mpmath.norm(minus) if p != 1 else mpmath.matrix([0, 1])
            kets.append((w, w_prime))
            bases.append((plus / mpmath.norm(plus), minus))
        u = [kets[0][0][a] * kets[1][0][b] for a in range(2) for b in range(2)]
        v = [kets[0][1][a] * kets[1][1][b] for a in range(2) for b in range(2)]
        raw = mpmath.matrix([[nsq * (u[r] * u[c] + v[r] * v[c]
                                     + sign * q * (u[r] * v[c] + v[r] * u[c]))
                              for c in range(4)] for r in range(4)])
        basis = mpmath.matrix([[x * y for x in bases[0][a] for y in bases[1][b]]
                               for a in range(2) for b in range(2)])
        rho = basis * raw * basis.T
        return [[rho[r, c] for c in range(4)] for r in range(4)]
