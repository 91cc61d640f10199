"""Pairwise correlation measures: geometric discord and concurrence.

Geometric discord is the squared Hilbert-Schmidt distance to the
nearest classical-quantum state, computed from the spectrum of
K = x x^T + R R^T. The measured member is always the first: the first
qubit of a density, the first group of a PairInputs. Measuring the
second is measuring the first of the reversed pair, spec.pair(b, a).
For the states built in this package K is diagonal in closed form, so
both a closed route and a spectral route exist and are kept
deliberately separate so they can check each other.

The closed routes read the few numbers SuperpositionSpec.pair forms for
any two disjoint mode groups, a pure split (nothing traced out) and a
mode pair alike. The numeric concurrence goes through Wootters'
factorization rho = B B^dagger, whose singular values stay accurate to
rounding where the spin-flip eigenvalues of a rank-deficient pair do not.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .states import PAULI_PRODUCTS, BlochForm, PairInputs, _bloch, _where, check_density


class Branch(str, Enum):
    """Which analytic (or numeric) expression produced a discord value."""

    PURE = "pure"
    MIXED_PLUS = "mixed_plus"
    MIXED_MINUS = "mixed_minus"
    NUMERIC_K = "numeric_k"

    # the value, so that numpy arrays of branches hold the values too
    __str__ = str.__str__


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Discord value plus the data that determined it, for a measurement on
    the first member of the pair.

    k_eigenvalues is labeled on the closed branches: (lam1, lam2, lam3)
    as pair_k_spectrum gives them, z eigenvalue first, which is
    (2 - C^2, C^2, C^2) on the pure branch. On numeric_k it is the eigh
    spectrum of K in descending order. On a grid spec a field is an (m,)
    array (branch: of Branch values) or one value for every point.
    """

    discord: float
    branch: Branch
    k_eigenvalues: tuple | np.ndarray
    concurrence: float


def k_matrix(bloch: BlochForm) -> np.ndarray:
    """K = x x^T + R R^T of a measurement on the first qubit, whose two
    smallest eigenvalues set the discord; x is the first qubit's Bloch vector.

    (..., 4, 4) Pauli tables give (..., 3, 3) matrices.
    """
    x, r = bloch.x, bloch.r
    return x[..., :, None] * x[..., None, :] + r @ r.swapaxes(-1, -2)


def _k_discord(rho: np.ndarray) -> tuple:
    """Discord and descending K spectrum of checked densities, (..., 4, 4)."""
    lams = np.linalg.eigh(k_matrix(_bloch(rho)))[0][..., ::-1]
    return 0.25 * (lams[..., 1] + lams[..., 2]), lams


def geometric_discord_numeric(rho) -> CorrelationReport:
    """Discord of an arbitrary two-qubit state via the K spectrum; a
    (..., 4, 4) stack gives a report of arrays, one entry per member."""
    rho = check_density(rho)
    discord, lams = _k_discord(rho)
    return CorrelationReport(
        discord=discord if rho.ndim > 2 else float(discord),
        branch=Branch.NUMERIC_K,
        k_eigenvalues=lams,
        concurrence=_concurrence(rho),
    )


def k_spectrum_discord(rho):
    """The discord of geometric_discord_numeric alone, without the spin-flip
    concurrence, for a density or each member of a (..., 4, 4) stack."""
    return _k_discord(check_density(rho))[0]


def concurrence_mixed(rho):
    """Spin-flip concurrence of an arbitrary two-qubit density matrix, or of
    each member of a (..., 4, 4) stack."""
    return _concurrence(check_density(rho))


def _concurrence(rho: np.ndarray):
    """Spin-flip concurrence of a density, or (..., 4, 4) stack, that
    check_density has already passed.

    With rho = B B^dagger, the singular values of B^T (sigma_y x sigma_y) B
    are the square roots of the spin-flip spectrum (Wootters 1998; Uhlmann
    2000), without taking roots of its rounding-noise eigenvalues.
    """
    w, v = np.linalg.eigh(rho)
    b = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    s = np.linalg.svd(b.swapaxes(-1, -2) @ PAULI_PRODUCTS[2, 2] @ b, compute_uv=False)
    gap = s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3]
    # max(0.0, gap) at each member: np.maximum would keep -0.0 and NaN
    return _where(gap > 0.0, gap, 0.0) if gap.ndim else max(0.0, float(gap))


def pair_k_spectrum(pair: PairInputs) -> tuple:
    """Closed-form eigenvalues (lam1, lam2, lam3) of K for a selection's two
    groups, group a measured (group b: pass spec.pair(b, a)).

    lam1 is the eigenvalue along z, the sum of the squared local z component
    z = p_a + cos(m pi) p_b q and zz correlation p_a p_b + cos(m pi) q (over
    the denominator). Even parity adds the squares, which has no
    cancellation. With odd parity the sum equals
    (1 + p_b^2)(d_q - d_a)^2 + 2 p_a q d_b^2, whose only difference is of
    two complements, so it keeps its digits near unit overlap where z and zz
    alone cancel. A pure split (q = 1) gives (2 - C^2, C^2, C^2).
    """
    scale = 1.0 / pair.denominator  # 2 N^2
    if pair.sign > 0:
        z_local = scale * (pair.p_a + pair.p_b * pair.q)
        zz = scale * (pair.p_a * pair.p_b + pair.q)
        lam1 = z_local * z_local + zz * zz
    else:
        gap = scale * (pair.d_q - pair.d_a)
        tail = scale * pair.d_b
        lam1 = (1.0 + pair.p_b * pair.p_b) * gap * gap + 2.0 * pair.p_a * pair.q * tail * tail
    xx = scale * pair.s_a * pair.s_b
    lam2 = xx * xx
    return lam1, lam2, lam2 * pair.q * pair.q


def branch_and_discord(lam1: float, lam2: float, lam3: float) -> tuple:
    """Pick the analytic branch from the K spectrum ordering.

    lam3 <= lam2 always holds here, so the discord is a quarter of
    lam3 plus whichever of lam1, lam2 is not the largest. Ties go to
    the plus branch.
    """
    plus = lam1 >= lam2
    return (_where(plus, Branch.MIXED_PLUS, Branch.MIXED_MINUS),
            0.25 * (_where(plus, lam2, lam1) + lam3))


def mixed_discord_closed(pair: PairInputs) -> CorrelationReport:
    """Closed-form discord (group a measured) and concurrence of a selection's
    two groups; the branch is pure exactly when nothing is traced out."""
    lams = pair_k_spectrum(pair)
    branch, discord = branch_and_discord(*lams)
    # Same value as discord_trajectory's concurrence at t = 0, but
    # (1+q)-(1-q) is not 2q in floating point, so it keeps its own expression.
    return CorrelationReport(
        discord=discord,
        branch=branch if pair.traced else Branch.PURE,
        k_eigenvalues=lams,
        concurrence=pair.q * pair.s_a * pair.s_b / pair.denominator,
    )


def werner_limit_k_eigenvalues(n: int) -> tuple:
    """K spectrum of a pair inside the n-mode unit-overlap odd state."""
    if n < 2:
        raise DomainError("the limit needs at least two modes")
    lam1 = (1.0 - 4.0 / n) ** 2 + (1.0 - 2.0 / n) ** 2
    lam2 = 4.0 / (n * n)
    return lam1, lam2, lam2


def werner_limit_discord(n: int) -> float:
    """Pair discord 2/n^2 in the unit-overlap odd-parity limit.

    This is the min-pair value of the limiting K spectrum for n = 2
    and n >= 4. At n = 3 the z eigenvalue drops below the planar pair
    and the true minimum is 1/6 instead; callers comparing against a
    sweep should special-case that point.
    """
    if n < 2:
        raise DomainError("the limit needs at least two modes")
    return 2.0 / (n * n)

