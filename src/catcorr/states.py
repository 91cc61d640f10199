"""State construction for balanced superpositions of product coherent states.

An n-mode state here is N(|w_1 ... w_n> + e^{i m pi} |w'_1 ... w'_n>)
where each mode contributes only its real overlap p_i = <w_i|w'_i> and
the phase enters through the parity of m. A group of modes A maps onto
one logical qubit as a single mode does, with overlap P_A = prod p_l, so
any two disjoint groups, the rest traced out, give one X-shaped 4x4 pair
density; the pure k|(n-k) split is the pair with nothing traced out.
SuperpositionSpec.pair forms the few numbers every closed pair route
reads. All functions are pure; nothing here keeps state.
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


# Branching helpers for a float or an array; arithmetic on either is numpy's
# ufuncs, and these keep a float's result a plain value (a Branch, say)
def _where(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


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
        if np.count_nonzero(2.0 * (1.0 + math.prod(ps) * self.parity.sign) <= _NULL_STATE_TOL):
            raise DivergentNormalizationError(
                "odd parity with unit overlap product gives a null state")

    @property
    def n(self) -> int:
        return len(self.overlaps)

    def pair(self, a, b) -> "PairInputs":
        """The closed-route inputs of mode groups a and b, the rest traced out.

        A group is a 1-based mode index or a tuple of them. Each complement
        1 - P comes from _complement, which does not cancel near unit
        overlap. The denominator 1 + cos(m pi) P is 1 + P for even parity
        and d_b + p_b (d_a + p_a d_q), a sum of nonnegative terms, for odd.
        """
        ps_a, ps_b, rest = self._members(a, b)
        p_a, p_b, q = math.prod(ps_a), math.prod(ps_b), math.prod(rest, start=1.0)
        d_a, d_b, d_q = _complement(ps_a), _complement(ps_b), _complement(rest)
        denominator = (1.0 + math.prod(self.overlaps) if self.parity is Parity.EVEN
                       else d_b + p_b * (d_a + p_a * d_q))
        return PairInputs(p_a, p_b, q, d_a, d_b, d_q, np.sqrt(d_a * (1.0 + p_a)),
                          np.sqrt(d_b * (1.0 + p_b)), denominator, self.parity.sign, bool(rest))

    def _members(self, a, b) -> tuple:
        """Overlaps of group a, of group b and of the traced-out modes."""
        group_a, group_b = (tuple(g) if isinstance(g, (tuple, list)) else (g,) for g in (a, b))
        kept = group_a + group_b
        if not (group_a and group_b):
            raise DomainError("a mode group needs at least one mode")
        if not all(1 <= m <= self.n for m in kept):
            raise DomainError(f"mode indices must lie in 1..{self.n}, got ({a}, {b})")
        if len(set(kept)) < len(kept):
            raise DomainError("pair indices must differ")
        return ([self.overlaps[m - 1] for m in group_a], [self.overlaps[m - 1] for m in group_b],
                [p for idx, p in enumerate(self.overlaps, start=1) if idx not in kept])


def _complement(ps: list):
    """1 - p_1 p_2 ... p_k without cancellation near unit overlaps, as the sum
    of nonnegative terms d_1 + p_1 (d_2 + p_2 (... + p_(k-1) d_k)), d = 1 - p
    (Higham, Accuracy and Stability of Numerical Algorithms, 1.14); 0 of no
    overlaps. Only + and * enter, so a grid rounds at each point as a float does."""
    total = 0.0
    for p in reversed(ps):
        total = (1.0 - p) + p * total
    return total


@dataclass(frozen=True, eq=False)
class PairInputs:
    """What every closed pair route reads of two disjoint mode groups A, B.

    p_a, p_b are the groups' overlaps and q the product of the traced-out
    ones (1.0 when nothing is traced out); d_a, d_b, d_q are their
    complements 1 - p, s_a, s_b = sqrt(d (1 + p)), and denominator is the
    branch denominator 1 + cos(m pi) p_a p_b q. traced says whether any mode
    is traced out. On a grid spec the numbers are (m,) arrays.
    """

    p_a: float
    p_b: float
    q: float
    d_a: float
    d_b: float
    d_q: float
    s_a: float
    s_b: float
    denominator: float
    sign: int
    traced: bool


def reduced_pair_density(pair: PairInputs) -> np.ndarray:
    """Closed-form reduced density of a selection's two groups in the mapped basis.

    X-shaped: the 00/11 sector carries the factor 1 + q cos(m pi) and the
    01/10 sector 1 - q cos(m pi), read as 1 + q and d_q in the order the
    parity puts them; a group of overlap p maps its branch states onto
    a |0> +- b |1> with a = sqrt((1 + p)/2), b = sqrt(d/2). Nothing is
    rescaled or validated here: the routes that read the result as a
    density check it, trace included. A grid spec gives an (m, 4, 4) stack.
    """
    scale = 1.0 / pair.denominator  # 2 N^2
    outer, inner = (1.0 + pair.q, pair.d_q) if pair.sign > 0 else (pair.d_q, 1.0 + pair.q)
    outer, inner = scale * outer, scale * inner
    a_i, b_i = np.sqrt((1.0 + pair.p_a) / 2.0), np.sqrt(pair.d_a / 2.0)
    a_j, b_j = np.sqrt((1.0 + pair.p_b) / 2.0), np.sqrt(pair.d_b / 2.0)
    cross = a_i * a_j * b_i * b_j
    rho = np.zeros(np.shape(outer) + (4, 4), dtype=complex)
    rho[..., 0, 0] = outer * a_i * a_i * a_j * a_j
    rho[..., 3, 3] = outer * b_i * b_i * b_j * b_j
    rho[..., 0, 3] = rho[..., 3, 0] = outer * cross
    rho[..., 1, 1] = inner * a_i * a_i * b_j * b_j
    rho[..., 2, 2] = inner * a_j * a_j * b_i * b_i
    rho[..., 1, 2] = rho[..., 2, 1] = inner * cross
    return rho


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
    # a non-finite entry makes its member's skew NaN or inf, which is not within tolerance
    with np.errstate(invalid="ignore"):
        skew = ~(np.abs(stack - adjoint).reshape(-1, 16).max(axis=1) <= _HERM_TOL)
        trace = stack.diagonal(0, 1, 2).sum(axis=-1)
        bad = skew | (abs(trace.real - 1.0) > _TRACE_TOL) | (abs(trace.imag) > _TRACE_TOL)
    stop = bad.argmax() if bad.any() else len(stack)
    lowest = np.linalg.eigvalsh(0.5 * (stack[:stop] + adjoint[:stop]))[:, 0]
    negative = lowest < -_PSD_TOL
    if negative.any():
        raise InvalidDensityError(
            f"density has eigenvalue {float(lowest[negative.argmax()])} below -{_PSD_TOL}")
    if stop < len(stack):
        raise InvalidDensityError(
            "density has a non-finite entry" if not np.isfinite(stack[stop]).all()
            else "density is not Hermitian within tolerance" if skew[stop]
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

