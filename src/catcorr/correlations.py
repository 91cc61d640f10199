"""Pairwise correlation measures: geometric discord and concurrence.

Geometric discord is the squared Hilbert-Schmidt distance to the
nearest classical-quantum state, computed from the spectrum of
K = x x^T + R R^T (or the primed pair for measurements on the second
member). For the states built in this package K is diagonal in closed
form, so both a closed route and a spectral route exist and are kept
deliberately separate so they can check each other.

Concurrence follows the spin-flip construction. Pure splits admit the
2|c00 c11 - c01 c10| shortcut; mixed pairs go through the Hermitian
square-root form, which stays positive semidefinite by construction.
"""

from dataclasses import dataclass
from enum import Enum

import math

import numpy as np

from .errors import DomainError
from .linalg import eig_herm, eig_sym, sqrtm_psd
from .states import (
    SIGMA_Y,
    BlochForm,
    SuperpositionSpec,
    bloch_decompose,
    check_density,
    normalization,
)


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
    ORACLE_SEARCH = "oracle_search"


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Discord value plus the data that determined it."""

    discord: float
    branch: Branch
    k_eigenvalues: np.ndarray
    concurrence: float
    measurement_side: MeasurementSide


def k_matrix(bloch: BlochForm, side: MeasurementSide = MeasurementSide.FIRST) -> np.ndarray:
    """K = x x^T + R R^T whose two smallest eigenvalues set the discord."""
    if side is MeasurementSide.FIRST:
        return np.outer(bloch.x, bloch.x) + bloch.r @ bloch.r.T
    return np.outer(bloch.y, bloch.y) + bloch.r.T @ bloch.r


def geometric_discord_numeric(rho, side: MeasurementSide = MeasurementSide.FIRST) -> CorrelationReport:
    """Discord of an arbitrary two-qubit state via the K spectrum."""
    rho = check_density(rho)
    lams = eig_sym(k_matrix(bloch_decompose(rho), side))
    return CorrelationReport(
        discord=0.25 * float(lams[1] + lams[2]),
        branch=Branch.NUMERIC_K,
        k_eigenvalues=lams,
        concurrence=concurrence_mixed(rho),
        measurement_side=side,
    )


def _split_factors(spec: SuperpositionSpec, k: int) -> tuple:
    """(1 - P^2) of each block of the k|(n-k) split and 1 + Pc cos(m pi)."""
    if not 1 <= k <= spec.n - 1:
        raise DomainError(f"split size k must lie in 1..{spec.n - 1}")
    p_left = float(np.prod(spec.overlaps[:k]))
    p_right = float(np.prod(spec.overlaps[k:]))
    u_left = (1.0 - p_left) * (1.0 + p_left)
    u_right = (1.0 - p_right) * (1.0 + p_right)
    denom = 1.0 + spec.branch_product * spec.parity.sign
    return u_left, u_right, denom


def geometric_discord_pure_closed(spec: SuperpositionSpec, k: int) -> CorrelationReport:
    """Closed-form discord of the pure k|(n-k) split.

    The value is half the product of (1 - P^2) factors of the two
    blocks over the squared branch denominator; it coincides with half
    the squared concurrence but is evaluated from its own expression.
    """
    u_left, u_right, denom = _split_factors(spec, k)
    discord = 0.5 * u_left * u_right / (denom * denom)
    # K spectrum of a pure state: (1, C^2, C^2) up to ordering
    csq = u_left * u_right / (denom * denom)
    lams = np.sort(np.array([1.0, csq, csq]))[::-1]
    return CorrelationReport(
        discord=discord,
        branch=Branch.PURE,
        k_eigenvalues=lams,
        concurrence=concurrence_pure(spec, k),
        measurement_side=MeasurementSide.FIRST,
    )


def concurrence_pure(spec: SuperpositionSpec, k: int) -> float:
    """Concurrence of the pure split, sqrt((1-P_k^2)(1-P_{n-k}^2))/(1+Pc)."""
    u_left, u_right, denom = _split_factors(spec, k)
    return math.sqrt(u_left) * math.sqrt(u_right) / denom


def concurrence_mixed(rho) -> float:
    """Spin-flip concurrence of an arbitrary two-qubit density matrix."""
    rho = check_density(rho)
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    tilde = flip @ rho.conj() @ flip
    root = sqrtm_psd(rho)
    spectrum = eig_herm(root @ tilde @ root)
    c = np.sqrt(np.clip(spectrum, 0.0, None))
    return max(0.0, float(c[0] - c[1] - c[2] - c[3]))


def _pair_factors(spec: SuperpositionSpec, i: int, j: int) -> tuple:
    """Omitted product q and s = sqrt(1 - p^2) of modes i and j.

    The branch denominator 1 + Pc cos(m pi) is left to the callers that
    need it: it costs a product over all modes, and mixed_k_eigenvalues,
    which runs once per sweep or trajectory row, does not use it.
    """
    q = spec.omitted_product(i, j)
    p_i = spec.overlaps[i - 1]
    p_j = spec.overlaps[j - 1]
    s_i = math.sqrt((1.0 - p_i) * (1.0 + p_i))
    s_j = math.sqrt((1.0 - p_j) * (1.0 + p_j))
    return q, s_i, s_j


def mixed_k_eigenvalues(spec: SuperpositionSpec, i: int, j: int,
                        side: MeasurementSide = MeasurementSide.FIRST) -> tuple:
    """Closed-form eigenvalues (lam1, lam2, lam3) of K for a mode pair.

    lam1 is the eigenvalue along z. Written as a sum of two squares
    (local z component and zz correlation) it stays accurate where the
    expanded polynomial form cancels catastrophically near unit
    overlaps. Measuring the first member puts p_i in the local slot.
    """
    q, s_i, s_j = _pair_factors(spec, i, j)
    sign = spec.parity.sign
    p_i = spec.overlaps[i - 1]
    p_j = spec.overlaps[j - 1]
    two_nsq = 2.0 * normalization(spec) ** 2
    if side is MeasurementSide.FIRST:
        p_meas, p_other = p_i, p_j
    else:
        p_meas, p_other = p_j, p_i
    z_local = two_nsq * (p_meas + p_other * q * sign)
    zz = two_nsq * (p_i * p_j + q * sign)
    xx = two_nsq * s_i * s_j
    lam1 = z_local * z_local + zz * zz
    lam2 = xx * xx
    lam3 = lam2 * q * q
    return lam1, lam2, lam3


def branch_and_discord(lam1: float, lam2: float, lam3: float) -> tuple:
    """Pick the analytic branch from the K spectrum ordering.

    lam3 <= lam2 always holds here, so the discord is a quarter of
    lam3 plus whichever of lam1, lam2 is not the largest. Ties go to
    the plus branch.
    """
    if lam1 >= lam2:
        return Branch.MIXED_PLUS, 0.25 * (lam2 + lam3)
    return Branch.MIXED_MINUS, 0.25 * (lam1 + lam3)


def mixed_discord_closed(spec: SuperpositionSpec, i: int, j: int,
                         side: MeasurementSide = MeasurementSide.FIRST) -> CorrelationReport:
    """Closed-form discord and concurrence of the (i, j) mode pair."""
    lam1, lam2, lam3 = mixed_k_eigenvalues(spec, i, j, side)
    branch, discord = branch_and_discord(lam1, lam2, lam3)
    # Same value as concurrence_trajectory at t = 0, but (1+q)-(1-q)
    # is not 2q in floating point, so it keeps its own expression.
    q, s_i, s_j = _pair_factors(spec, i, j)
    denom = 1.0 + spec.branch_product * spec.parity.sign
    concurrence = q * s_i * s_j / denom
    lams = np.sort(np.array([lam1, lam2, lam3]))[::-1]
    return CorrelationReport(
        discord=discord,
        branch=branch,
        k_eigenvalues=lams,
        concurrence=concurrence,
        measurement_side=side,
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


def zero_discord_witness(bloch: BlochForm, tol: float = 1e-10) -> DiscordWitness:
    """Necessary rank condition for vanishing discord.

    Stacks (1, y^T) over (x, R); rank above two certifies nonzero
    discord, rank at most two leaves zero discord possible.
    """
    extended = np.zeros((4, 4))
    extended[0, 0] = 1.0
    extended[0, 1:] = bloch.y
    extended[1:, 0] = bloch.x
    extended[1:, 1:] = bloch.r
    singulars = np.linalg.svd(extended, compute_uv=False)
    rank = int(np.sum(singulars > tol))
    if rank > 2:
        return DiscordWitness.NON_ZERO_DISCORD
    return DiscordWitness.ZERO_DISCORD_POSSIBLE
