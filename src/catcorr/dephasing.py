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

from .correlations import CorrelationReport, branch_and_discord, pair_k_spectrum
from .errors import DomainError
from .states import BlochForm, PairInputs, _where, check_density


@dataclass(frozen=True)
class DephasingParams:
    """Rate and elapsed time of the phase damping channel.

    rate and time are floats or arrays that broadcast together, an (m,)
    array of times for one rate, say; gamma then is an array too.
    """

    rate: float | np.ndarray
    time: float | np.ndarray

    def __post_init__(self):
        if np.count_nonzero(np.logical_not((0.0 < self.rate) & (self.rate < math.inf))):
            raise DomainError("dephasing rate must be positive and finite")
        if not np.all(self.time >= 0.0):
            raise DomainError("evolution time must be nonnegative")

    @property
    def gamma(self) -> float | np.ndarray:
        """Damping probability 1 - exp(-rate * time)."""
        with np.errstate(over="ignore"):  # rate * time may overflow to inf
            return -np.expm1(-self.rate * np.asarray(self.time, dtype=float))


def _check_gamma(gamma) -> None:
    if not np.all((0.0 <= gamma) & (gamma <= 1.0)):
        raise DomainError("damping probability must lie in [0, 1]")


def kraus_ops(gamma) -> tuple:
    """Kraus pair of the single-qubit phase damping channel; an (S,) array
    of gammas gives (S, 2, 2) stacks."""
    _check_gamma(gamma)
    e0 = np.zeros(np.shape(gamma) + (2, 2), dtype=complex)
    e1 = np.zeros_like(e0)
    e0[..., 0, 0] = 1.0
    e0[..., 1, 1] = np.sqrt(1.0 - gamma)
    e1[..., 1, 1] = np.sqrt(gamma)
    return e0, e1


def apply_dephasing(rho, gamma) -> np.ndarray:
    """Apply the channel independently to both qubits of a pair state; an
    (S,) array of gammas dephases each member of an (S, 4, 4) stack by its own.

    The Kraus sum over K = left (x) right: each K is diagonal, so
    K rho K^dagger has entries d_i rho_ij conj(d_j), d the diagonal of K,
    the products K @ rho @ K^dagger forms; every other term it adds is an
    exact zero.
    """
    rho = check_density(rho)
    e0, e1 = kraus_ops(gamma)
    out = np.zeros_like(rho)
    for left in (e0, e1):
        for right in (e0, e1):
            d = (left.diagonal(0, -2, -1)[..., :, None] * right.diagonal(0, -2, -1)[..., None, :]
                 ).reshape(left.shape[:-2] + (4,))
            out = out + d[..., :, None] * rho * d.conj()[..., None, :]
    return out


def dephased_bloch(bloch: BlochForm, gamma) -> BlochForm:
    """Bloch data of the two-sided dephased state, by direct scaling; an (S,)
    array of gammas scales each table of an (S, 4, 4) stack by its own.

    Each local channel shrinks the transverse (x, y) rows and columns of
    the Pauli table by sqrt(1-gamma); identity and z ones are untouched.
    """
    _check_gamma(gamma)
    weight = np.ones(np.shape(gamma) + (4,))
    weight[..., 1:3] = np.sqrt(1.0 - np.asarray(gamma))[..., None]
    return BlochForm(bloch.t * (weight[..., :, None] * weight[..., None, :]))


def sudden_death_time(pair: PairInputs, rate: float) -> float:
    """Time at which the pair concurrence reaches zero, inf if never.

    Zero initial concurrence gives zero straight away; unit omitted
    product (nothing traced out, as for a pure split) keeps the decay
    strictly positive for all finite times. A finite time too large for
    a float raises DomainError, so inf always means never.
    """
    if discord_trajectory(pair, rate, 0.0).concurrence <= 0.0:
        return 0.0
    if pair.d_q <= 0.0:
        return math.inf
    t0 = (math.log1p(pair.q) - math.log(pair.d_q)) / rate
    if math.isinf(t0):
        raise DomainError(f"sudden-death time overflows a float at rate {rate!r}")
    return t0


def discord_trajectory(pair: PairInputs, rate: float | np.ndarray,
                       time: float | np.ndarray) -> CorrelationReport:
    """Closed-form discord (group a measured) and concurrence of the dephased pair.

    time is one instant (a float) or an (m,) array of them, and rate one
    value or an (m,) array too, as are a stacked pair's fields; an array
    gives a report of (m,) arrays, each member bit-equal to the float
    call at that point: one numpy ufunc forms each exponential of a float
    and of a fresh product array alike.

    Only the planar K eigenvalues decay (by e^(-2 rate t)); the branch
    choice is re-evaluated at the scaled spectrum, so a pair can cross
    from the minus branch to the plus branch while it evolves.

    The concurrence is max{0, prefactor * [e^(-rate t)(1+q) - (1-q)]} / 2
    with the usual s_a s_b / denominator prefactor; both parities reduce
    to this same form because flipping the branch sign swaps the two
    spin-flip eigenvalue candidates.

    The channel acts on the pair's two qubits. For a mode group that is
    the group's logical qubit, whose basis is the group's sum/difference
    pair (its total parity), not each member mode: dephasing every member
    mode in its own basis is a different model, which moves weight out of
    the group's qubit (9.5% of it for group {1, 2} of overlaps (0.5, 0.6,
    0.7, 0.8), even, with modes 1 to 3 dephased at rate 1 to t = 0.7 and
    mode 4 traced out). For single-mode pairs the two models agree.
    """
    DephasingParams(rate=rate, time=time)
    lam1, lam2, lam3 = pair_k_spectrum(pair)
    # rate * t first: -2.0 * rate can overflow to -inf, and -inf * 0 is NaN;
    # rate * t itself may overflow to inf, which a float does without a warning.
    # Times are read as float64, so a float32 array rounds as the float call does
    with np.errstate(over="ignore"):
        rate_time = rate * np.asarray(time, dtype=float)
        scale, decay = np.exp(-2.0 * rate_time), np.exp(-rate_time)
    lams = (lam1, lam2 * scale, lam3 * scale)
    branch, discord = branch_and_discord(*lams)
    prefactor = 0.5 * pair.s_a * pair.s_b / pair.denominator
    concurrence = prefactor * (decay * (1.0 + pair.q) - pair.d_q)
    return CorrelationReport(
        discord=discord,
        branch=branch,
        k_eigenvalues=lams,
        # max(0.0, x) at each time: np.maximum(0.0, -0.0) would give -0.0
        concurrence=_where(concurrence > 0.0, concurrence, 0.0),
    )
