"""State construction for balanced superpositions of product coherent states.

An n-mode state here is N(|w_1 ... w_n> + e^{i m pi} |w'_1 ... w'_n>)
where each mode contributes only its real overlap p_i = <w_i|w'_i> and
the phase enters through the parity of m. Two bipartite views are
built: the pure k|(n-k) split mapped onto two logical qubits, and the
reduced density of an arbitrary mode pair (an X-shaped 4x4 matrix).
All functions are pure; nothing here keeps state.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DivergentNormalizationError, DomainError, InvalidDensityError

SIGMA0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA0, SIGMA_X, SIGMA_Y, SIGMA_Z)
# PAULI_PRODUCTS[a, b] = sigma_a (x) sigma_b, shape (4, 4, 4, 4)
PAULI_PRODUCTS = np.einsum("aij,bkl->abikjl", PAULIS, PAULIS).reshape(4, 4, 4, 4)

# threshold on 2 * denominator below which the superposition counts as null
_NULL_STATE_TOL = 1e-14
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10


# Elementwise helpers for a float or an array: math keeps single states free
# of numpy call overhead, and each pair rounds the same way.
def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _square(x):
    # a float's x ** 2 is C pow, which np.square does not always match
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def _where(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _each(fn, x):
    # fn of a float, at each member of an array: a math-module expression
    # keeps its own rounding and overflows without numpy's warnings
    return np.array([fn(v) for v in x.tolist()]) if isinstance(x, np.ndarray) else fn(x)


def _outside_unit(p):
    """The first value of p outside [0, 1] (NaN included), or None."""
    if isinstance(p, np.ndarray):
        outside = p[~((0.0 <= p) & (p <= 1.0))]
        return float(outside[0]) if outside.size else None
    return None if 0.0 <= p <= 1.0 else p


class Parity(str, Enum):
    EVEN = "even"
    ODD = "odd"

    @property
    def sign(self) -> int:
        """Value of cos(m pi) for the stored parity."""
        return 1 if self is Parity.EVEN else -1


@dataclass(frozen=True)
class SuperpositionSpec:
    """Balanced two-branch superposition of n product coherent states.

    overlaps[i] is the single-mode overlap of mode i+1 (modes are
    1-based everywhere in the public API); parity fixes the relative
    phase between the branches. Odd parity with unit overlap product
    is rejected because that state is null.

    Overlaps given as numpy arrays of one length m make a grid of m
    states, point k with overlaps p[k]; the closed forms and pair
    densities then return (m,) arrays and (m, 4, 4) stacks in one pass.
    The null-state error names the first null point as `point`.
    """

    overlaps: tuple
    parity: Parity = Parity.EVEN

    def __post_init__(self):
        ps = tuple(p if isinstance(p, np.ndarray) else float(p) for p in self.overlaps)
        object.__setattr__(self, "overlaps", ps)
        object.__setattr__(self, "parity", Parity(self.parity))
        if len(ps) < 2:
            raise DomainError("a superposition spec needs at least two modes")
        for p in ps:
            outside = _outside_unit(p)
            if outside is not None:
                raise DomainError(f"overlaps must lie in [0, 1], got {outside}")
        null = np.flatnonzero(2.0 * self.denominator <= _NULL_STATE_TOL)
        if null.size:
            error = DivergentNormalizationError(
                "odd parity with unit overlap product gives a null state")
            error.point = int(null[0])
            raise error

    @property
    def n(self) -> int:
        return len(self.overlaps)

    @property
    def branch_product(self) -> float:
        """Product of all single-mode overlaps, the <branch|branch'> value."""
        return math.prod(self.overlaps)

    @property
    def denominator(self) -> float:
        """Branch denominator 1 + cos(m pi) prod p_i, the one place it is formed."""
        return 1.0 + self.branch_product * self.parity.sign

    def omitted_product(self, i: int, j: int) -> float:
        """Overlap product of the traced-out modes when (i, j) is kept."""
        _check_pair(self.n, i, j)
        return math.prod((p for idx, p in enumerate(self.overlaps, start=1) if idx not in (i, j)),
                         start=1.0)


def _check_pair(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"mode indices must lie in 1..{n}, got ({i}, {j})")
    if i == j:
        raise DomainError("pair indices must differ")


def normalization(spec: SuperpositionSpec) -> float:
    """Normalization prefactor N = (2 + 2 cos(m pi) prod p_i)^(-1/2) of a non-null spec."""
    return 1.0 / _sqrt(2.0 * spec.denominator)


def qubit_map_coeffs(p: float) -> tuple:
    """Components (a, b) of one branch state in its mapped qubit basis.

    The two nonorthogonal branch states of a mode map to a |0> +- b |1>
    with a = sqrt((1+p)/2), b = sqrt((1-p)/2).
    """
    if _outside_unit(p) is not None:
        raise DomainError("overlap must lie in [0, 1]")
    return _sqrt((1.0 + p) / 2.0), _sqrt((1.0 - p) / 2.0)


@dataclass(frozen=True)
class PureSplit:
    """Two-qubit amplitudes and Schmidt data of a pure k|(n-k) cut (arrays on a grid)."""

    k: int
    c00: float
    c01: float
    c10: float
    c11: float
    schmidt_plus: float
    schmidt_minus: float

    @property
    def amplitudes(self) -> np.ndarray:
        return np.stack([self.c00, self.c01, self.c10, self.c11], axis=-1)

    def projector(self) -> np.ndarray:
        """Density matrix of the split state in the mapped basis."""
        v = self.amplitudes.astype(complex)
        return v[..., :, None] * v.conj()[..., None, :]


def pure_split(spec: SuperpositionSpec, k: int) -> PureSplit:
    """Map the cut modes 1..k | k+1..n onto a pure two-qubit state.

    Even parity populates the 00/11 amplitudes, odd parity the 01/10
    ones; either way the four amplitudes are normalized and real.
    """
    if not 1 <= k <= spec.n - 1:
        raise DomainError(f"split size k must lie in 1..{spec.n - 1}")
    norm = normalization(spec)
    a_left, b_left = qubit_map_coeffs(math.prod(spec.overlaps[:k]))
    a_right, b_right = qubit_map_coeffs(math.prod(spec.overlaps[k:]))
    if spec.parity is Parity.EVEN:
        c00, c01 = 2.0 * norm * a_left * a_right, 0.0
        c10, c11 = 0.0, 2.0 * norm * b_left * b_right
    else:
        c00, c01 = 0.0, 2.0 * norm * a_left * b_right
        c10, c11 = 2.0 * norm * a_right * b_left, 0.0
    # The amplitude ratios are well conditioned but the shared scale
    # inherits the cancellation error of `norm` close to unit overlaps,
    # so rescale to an exactly unit vector before deriving anything.
    scale = _sqrt(c00 * c00 + c01 * c01 + c10 * c10 + c11 * c11)
    c00, c01, c10, c11 = c00 / scale, c01 / scale, c10 / scale, c11 / scale
    concurrence = 2.0 * abs(c00 * c11 - c01 * c10)
    gap_sq = 1.0 - concurrence * concurrence
    gap = _sqrt(_where(gap_sq > 0.0, gap_sq, 0.0))
    return PureSplit(k, c00, c01, c10, c11, 0.5 * (1.0 + gap), 0.5 * (1.0 - gap))


def reduced_pair_density(spec: SuperpositionSpec, i: int, j: int) -> np.ndarray:
    """Closed-form reduced density of modes (i, j) in the mapped basis.

    X-shaped: the 00/11 sector carries the factor (1 + q cos m pi) and
    the 01/10 sector (1 - q cos m pi), with q the overlap product of
    the traced-out modes. The trace is validated rather than trusted;
    the routes that read the result as a density check it themselves,
    as they do a pure split's projector. A grid spec gives an (m, 4, 4)
    stack.
    """
    q = spec.omitted_product(i, j)
    sign = spec.parity.sign
    nsq = _square(normalization(spec))
    a_i, b_i = qubit_map_coeffs(spec.overlaps[i - 1])
    a_j, b_j = qubit_map_coeffs(spec.overlaps[j - 1])
    outer = 2.0 * nsq * (1.0 + q * sign)
    inner = 2.0 * nsq * (1.0 - q * sign)
    cross = a_i * a_j * b_i * b_j
    rho = np.zeros(np.shape(outer) + (4, 4), dtype=complex)
    rho[..., 0, 0] = outer * a_i * a_i * a_j * a_j
    rho[..., 3, 3] = outer * b_i * b_i * b_j * b_j
    rho[..., 0, 3] = rho[..., 3, 0] = outer * cross
    rho[..., 1, 1] = inner * a_i * a_i * b_j * b_j
    rho[..., 2, 2] = inner * a_j * a_j * b_i * b_i
    rho[..., 1, 2] = rho[..., 2, 1] = inner * cross
    # The shared factor nsq loses digits to cancellation when the
    # branch product approaches 1; sector ratios stay well conditioned,
    # so rescale by the computed trace. The loose guard still catches
    # structural mistakes (wrong prefactors) rather than rounding.
    trace = rho.trace(0, -2, -1).real
    off = abs(trace - 1.0) > 1e-9
    if off.any():
        first = float(np.ravel(trace)[np.argmax(off)])
        raise InvalidDensityError(f"pair density trace {first} is structurally off unit")
    return rho / trace[..., None, None]


def check_density(rho) -> np.ndarray:
    """Validate a 4x4 density matrix, or each member of a (..., 4, 4)
    stack, and return it as a complex array. A stack raises the message
    of its first bad member, in the order the checks run on one matrix.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise InvalidDensityError(f"expected a 4x4 matrix, got shape {m.shape}")
    stack = m.reshape(-1, 4, 4)
    adjoint = stack.conj().transpose(0, 2, 1)
    skew = np.abs(stack - adjoint).reshape(-1, 16).max(axis=1) > _HERM_TOL
    trace = stack.diagonal(0, 1, 2).sum(axis=-1)
    bad = skew | (abs(trace.real - 1.0) > _TRACE_TOL) | (abs(trace.imag) > _TRACE_TOL)
    stop = bad.argmax() if bad.any() else len(stack)
    lowest = np.linalg.eigvalsh(0.5 * (stack[:stop] + adjoint[:stop]))[:, 0]
    negative = lowest < -_PSD_TOL
    if negative.any():
        raise InvalidDensityError(
            f"density has eigenvalue {float(lowest[negative.argmax()])} below -{_PSD_TOL}")
    if stop < len(stack):
        raise InvalidDensityError("density is not Hermitian within tolerance" if skew[stop]
                                  else f"density trace is {complex(trace[stop])}, expected 1")
    return m


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Pauli table t[a, b] = Tr[rho sigma_a (x) sigma_b], t[0, 0] = 1, of a
    two-qubit state, or (..., 4, 4) tables of a stack; local Bloch vectors
    x, y and correlations r are views."""

    t: np.ndarray
    x = property(lambda self: self.t[..., 1:, 0])
    y = property(lambda self: self.t[..., 0, 1:])
    r = property(lambda self: self.t[..., 1:, 1:])


def _bloch(rho: np.ndarray) -> BlochForm:
    """Pauli table of a density, or (..., 4, 4) stack, that check_density has passed."""
    # diagonal of rho @ (sigma_a (x) sigma_b) summed in row order, rounding as np.trace does
    t = np.einsum("...ij,abji->...abi", rho, PAULI_PRODUCTS).sum(axis=-1).real
    t[..., 0, 0] = 1.0
    return BlochForm(t)


def bloch_decompose(rho) -> BlochForm:
    """Pauli expectation values x_a, y_b, R_ab of a two-qubit density."""
    return _bloch(check_density(rho))


def bloch_compose(bloch: BlochForm) -> np.ndarray:
    """Rebuild the density, or (..., 4, 4) stack, from its Pauli table, term
    by term in a fixed rounding order."""
    rho = PAULI_PRODUCTS[0, 0]
    for a in range(1, 4):
        for ab in ((a, 0), (0, a), (a, 1), (a, 2), (a, 3)):
            rho = rho + bloch.t[(..., *ab)][..., None, None] * PAULI_PRODUCTS[ab]
    return rho / 4.0


def partial_trace(rho, keep: int) -> np.ndarray:
    """Single-qubit marginal of a two-qubit density (keep = 1 or 2)."""
    t = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("ajbj->ab", t)
    if keep == 2:
        return np.einsum("iaib->ab", t)
    raise DomainError("keep must be 1 or 2")
