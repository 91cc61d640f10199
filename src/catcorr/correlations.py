"""Pairwise correlation measures: geometric discord and concurrence.

Geometric discord is the squared Hilbert-Schmidt distance to the
nearest classical-quantum state, computed from the spectrum of
K = x x^T + R R^T (or the primed pair for measurements on the second
member). For the states built in this package K is diagonal in closed
form, so both a closed route and a spectral route exist and are kept
deliberately separate so they can check each other.

Concurrence follows the spin-flip construction. Pure splits admit the
2|c00 c11 - c01 c10| shortcut; mixed pairs go through Wootters'
factorization rho = B B^dagger, whose singular values stay accurate to
rounding where the spin-flip eigenvalues of a rank-deficient pair do not.
"""

from dataclasses import dataclass
from enum import Enum

import math

import numpy as np

from .errors import DomainError
from .states import (
    PAULI_PRODUCTS,
    BlochForm,
    SuperpositionSpec,
    _bloch,
    _sqrt,
    _square,
    _where,
    check_density,
    normalization,
)

_WITNESS_TOL = 1e-10


class MeasurementSide(str, Enum):
    """Which member of the pair the local measurement acts on."""

    FIRST = "first"
    SECOND = "second"


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
    """Discord value plus the data that determined it.

    k_eigenvalues is labeled on the closed branches: (lam1, lam2, lam3)
    as mixed_k_eigenvalues gives them, z eigenvalue first, and
    (2 - C^2, C^2, C^2) for a pure split. On numeric_k it is the eigh
    spectrum of K in descending order. On a grid spec a field is an (m,)
    array (branch: of Branch values) or one value for every point.
    """

    discord: float
    branch: Branch
    k_eigenvalues: tuple | np.ndarray
    concurrence: float


def k_matrix(bloch: BlochForm, side: MeasurementSide = MeasurementSide.FIRST) -> np.ndarray:
    """K = x x^T + R R^T, whose two smallest eigenvalues set the discord (side two: t^T).

    (..., 4, 4) Pauli tables give (..., 3, 3) matrices.
    """
    t = bloch.t if side is MeasurementSide.FIRST else bloch.t.swapaxes(-1, -2)
    x, r = t[..., 1:, 0], t[..., 1:, 1:]
    return x[..., :, None] * x[..., None, :] + r @ r.swapaxes(-1, -2)


def _k_discord(rho: np.ndarray, side: MeasurementSide) -> tuple:
    """Discord and descending K spectrum of checked densities, (..., 4, 4)."""
    lams = np.linalg.eigh(k_matrix(_bloch(rho), side))[0][..., ::-1]
    return 0.25 * (lams[..., 1] + lams[..., 2]), lams


def geometric_discord_numeric(rho, side: MeasurementSide = MeasurementSide.FIRST) -> CorrelationReport:
    """Discord of an arbitrary two-qubit state via the K spectrum; a
    (..., 4, 4) stack gives a report of arrays, one entry per member."""
    rho = check_density(rho)
    discord, lams = _k_discord(rho, side)
    return CorrelationReport(
        discord=discord if rho.ndim > 2 else float(discord),
        branch=Branch.NUMERIC_K,
        k_eigenvalues=lams,
        concurrence=_concurrence(rho),
    )


def k_spectrum_discord(rho, side: MeasurementSide = MeasurementSide.FIRST):
    """The discord of geometric_discord_numeric alone, without the spin-flip
    concurrence, for a density or each member of a (..., 4, 4) stack."""
    return _k_discord(check_density(rho), side)[0]


def geometric_discord_pure_closed(spec: SuperpositionSpec, k: int) -> CorrelationReport:
    """Closed-form discord of the pure k|(n-k) split.

    The value is half the product of (1 - P^2) factors of the two
    blocks over the squared branch denominator; it coincides with half
    the squared concurrence but is evaluated from its own expression.
    """
    if not 1 <= k <= spec.n - 1:
        raise DomainError(f"split size k must lie in 1..{spec.n - 1}")
    p_left = math.prod(spec.overlaps[:k])
    p_right = math.prod(spec.overlaps[k:])
    u_left = (1.0 - p_left) * (1.0 + p_left)
    u_right = (1.0 - p_right) * (1.0 + p_right)
    denom = spec.denominator
    csq = u_left * u_right / (denom * denom)
    return CorrelationReport(
        discord=0.5 * csq,
        branch=Branch.PURE,
        # K spectrum of a pure state: z eigenvalue 2 - C^2, planar pair C^2
        k_eigenvalues=(2.0 - csq, csq, csq),
        concurrence=_sqrt(u_left) * _sqrt(u_right) / denom,
    )


def concurrence_pure(spec: SuperpositionSpec, k: int) -> float:
    """Concurrence of the pure split, sqrt((1-P_k^2)(1-P_{n-k}^2))/(1+Pc)."""
    return geometric_discord_pure_closed(spec, k).concurrence


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


def mixed_k_eigenvalues(spec: SuperpositionSpec, i: int, j: int,
                        side: MeasurementSide = MeasurementSide.FIRST) -> tuple:
    """Closed-form eigenvalues (lam1, lam2, lam3) of K for a mode pair.

    lam1 is the eigenvalue along z. Written as a sum of two squares
    (local z component and zz correlation) it stays accurate where the
    expanded polynomial form cancels catastrophically near unit
    overlaps. Measuring the first member puts p_i in the local slot.
    """
    return _pair_closed(spec, i, j, side)[0]


def _pair_closed(spec: SuperpositionSpec, i: int, j: int, side: MeasurementSide) -> tuple:
    """((lam1, lam2, lam3), q, s_i, s_j): the pair's K eigenvalues, omitted
    product q and s = sqrt(1 - p^2) of modes i and j, which the concurrence
    expressions read over the branch denominator."""
    q = spec.omitted_product(i, j)
    p_i = spec.overlaps[i - 1]
    p_j = spec.overlaps[j - 1]
    s_i = _sqrt((1.0 - p_i) * (1.0 + p_i))
    s_j = _sqrt((1.0 - p_j) * (1.0 + p_j))
    sign = spec.parity.sign
    two_nsq = 2.0 * _square(normalization(spec))
    p_meas, p_other = (p_i, p_j) if side is MeasurementSide.FIRST else (p_j, p_i)
    z_local = two_nsq * (p_meas + p_other * q * sign)
    zz = two_nsq * (p_i * p_j + q * sign)
    xx = two_nsq * s_i * s_j
    lam2 = xx * xx
    return (z_local * z_local + zz * zz, lam2, lam2 * q * q), q, s_i, s_j


def branch_and_discord(lam1: float, lam2: float, lam3: float) -> tuple:
    """Pick the analytic branch from the K spectrum ordering.

    lam3 <= lam2 always holds here, so the discord is a quarter of
    lam3 plus whichever of lam1, lam2 is not the largest. Ties go to
    the plus branch.
    """
    plus = lam1 >= lam2
    return (_where(plus, Branch.MIXED_PLUS, Branch.MIXED_MINUS),
            0.25 * (_where(plus, lam2, lam1) + lam3))


def mixed_discord_closed(spec: SuperpositionSpec, i: int, j: int,
                         side: MeasurementSide = MeasurementSide.FIRST) -> CorrelationReport:
    """Closed-form discord and concurrence of the (i, j) mode pair."""
    lams, q, s_i, s_j = _pair_closed(spec, i, j, side)
    branch, discord = branch_and_discord(*lams)
    # Same value as discord_trajectory's concurrence at t = 0, but
    # (1+q)-(1-q) is not 2q in floating point, so it keeps its own expression.
    return CorrelationReport(
        discord=discord,
        branch=branch,
        k_eigenvalues=lams,
        concurrence=q * s_i * s_j / spec.denominator,
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


class DiscordWitness(str, Enum):
    """Rank verdict of the extended correlation matrix test."""

    ZERO_DISCORD_POSSIBLE = "zero_discord_possible"
    NON_ZERO_DISCORD = "non_zero_discord"


def zero_discord_witness(bloch: BlochForm) -> DiscordWitness:
    """Necessary rank condition for vanishing discord.

    The Pauli table stacks (1, y^T) over (x, R); rank above two certifies
    nonzero discord, rank at most two leaves zero discord possible.
    """
    if np.linalg.matrix_rank(bloch.t, tol=_WITNESS_TOL) > 2:
        return DiscordWitness.NON_ZERO_DISCORD
    return DiscordWitness.ZERO_DISCORD_POSSIBLE
