"""Independent single-mode phase damping acting on a mode pair.

The channel has Kraus operators E0 = diag(1, sqrt(1-gamma)) and
E1 = diag(0, sqrt(gamma)) with gamma = 1 - exp(-rate * time), applied
to each member of the pair. On an X-shaped pair density only the
off-diagonal entries change, picking up one factor (1 - gamma) each,
which scales the planar K eigenvalues by exp(-2 rate t) and leaves
the z eigenvalue alone. Concurrence decays linearly in exp(-rate t)
and can hit zero at finite time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlations import (
    CorrelationReport,
    MeasurementSide,
    _k_eigenvalues,
    _pair_factors,
    branch_and_discord,
)
from .errors import DomainError
from .states import BlochForm, SuperpositionSpec, check_density


@dataclass(frozen=True)
class DephasingParams:
    """Rate and elapsed time of the phase damping channel."""

    rate: float
    time: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise DomainError("dephasing rate must be positive and finite")
        if not self.time >= 0.0:
            raise DomainError("evolution time must be nonnegative")

    @property
    def gamma(self) -> float:
        """Damping probability 1 - exp(-rate * time)."""
        return -math.expm1(-self.rate * self.time)


def _check_gamma(gamma: float) -> None:
    if math.isnan(gamma) or not 0.0 <= gamma <= 1.0:
        raise DomainError("damping probability must lie in [0, 1]")


def kraus_ops(gamma: float) -> tuple:
    """Kraus pair of the single-qubit phase damping channel."""
    _check_gamma(gamma)
    e0 = np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(complex)
    e1 = np.diag([0.0, math.sqrt(gamma)]).astype(complex)
    return e0, e1


def apply_dephasing(rho, gamma: float) -> np.ndarray:
    """Apply the channel independently to both qubits of a pair state."""
    rho = check_density(rho)
    e0, e1 = kraus_ops(gamma)
    out = np.zeros_like(rho)
    for left in (e0, e1):
        for right in (e0, e1):
            op = np.kron(left, right)
            out = out + op @ rho @ op.conj().T
    return out


def dephased_bloch(bloch: BlochForm, gamma: float) -> BlochForm:
    """Bloch data of the two-sided dephased state, by direct scaling.

    Each local channel shrinks the transverse (x, y) rows and columns of
    the Pauli table by sqrt(1-gamma); identity and z ones are untouched.
    """
    _check_gamma(gamma)
    shrink = math.sqrt(1.0 - gamma)
    weight = np.array([1.0, shrink, shrink, 1.0])
    return BlochForm(bloch.t * np.outer(weight, weight))


def concurrence_trajectory(spec: SuperpositionSpec, i: int, j: int,
                           rate: float, time: float) -> float:
    """Pair concurrence after dephasing for a time at the given rate."""
    return discord_trajectory(spec, i, j, rate, time).concurrence


def sudden_death_time(spec: SuperpositionSpec, i: int, j: int, rate: float) -> float:
    """Time at which the pair concurrence reaches zero, inf if never.

    Zero initial concurrence gives zero straight away; unit omitted
    product (the two-mode case) keeps the decay strictly positive for
    all finite times.
    """
    if concurrence_trajectory(spec, i, j, rate, 0.0) <= 0.0:
        return 0.0
    q = spec.omitted_product(i, j)
    if q >= 1.0:
        return math.inf
    return (math.log1p(q) - math.log1p(-q)) / rate


def discord_trajectory(spec: SuperpositionSpec, i: int, j: int, rate: float, time: float,
                       side: MeasurementSide = MeasurementSide.FIRST) -> CorrelationReport:
    """Closed-form discord and concurrence of the dephased pair at one instant.

    Only the planar K eigenvalues decay (by e^(-2 rate t)); the branch
    choice is re-evaluated at the scaled spectrum, so a pair can cross
    from the minus branch to the plus branch while it evolves.

    The concurrence is max{0, prefactor * [e^(-rate t)(1+q) - (1-q)]} / 2
    with the usual sqrt((1-p_i^2)(1-p_j^2))/(1+Pc) prefactor; both
    parities reduce to this same form because flipping the branch sign
    swaps the two spin-flip eigenvalue candidates.
    """
    DephasingParams(rate=rate, time=time)
    q, s_i, s_j = _pair_factors(spec, i, j)
    lam1, lam2, lam3 = _k_eigenvalues(spec, i, j, side, q, s_i, s_j)
    scale = math.exp(-2.0 * rate * time)
    lams = (lam1, lam2 * scale, lam3 * scale)
    branch, discord = branch_and_discord(*lams)
    denom = 1.0 + spec.branch_product * spec.parity.sign
    prefactor = 0.5 * s_i * s_j / denom
    decayed = math.exp(-rate * time) * (1.0 + q) - (1.0 - q)
    return CorrelationReport(
        discord=discord,
        branch=branch,
        k_eigenvalues=lams,
        concurrence=max(0.0, prefactor * decayed),
    )
