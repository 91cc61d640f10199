"""Numerical oracles that rebuild everything from first principles.

Nothing in this module reuses the closed-form expressions elsewhere in
the package. The pair density is reconstructed from the Gram matrix of
the two branch vectors, and discord is recovered by minimizing the
Hilbert-Schmidt distance to the post-measurement state over projective
measurement axes. On a unit axis e that distance is
(Tr rho^2 - e^T g e)/2, g_ab = Re Tr[rho O_a rho O_b] formed from rho's own
entries, so the best axis is the top eigenvector of g's symmetric part,
and the literal distance is read there. Agreement between these routes
and the analytic ones is the package's correctness argument, so this file
imports nothing from correlations or dephasing, and the search reads
neither K nor the Bloch decomposition. The measurement acts on the first
qubit of a density, as in every route.
"""

import numpy as np

from .errors import DomainError
from .states import PAULI_PRODUCTS, SuperpositionSpec, check_density

# densities searched at a time: a block's tables and products set the search's
# peak memory, which then does not grow with the number of densities
_SEARCH_BLOCK = 64


def _sandwich_table() -> tuple:
    """Where _sandwiches reads each float of T_ab, and its sign: (9, 32) each.

    (O_a rho O_b)_ij = O_a[i, r] rho_rc O_b[c, j] at the one (r, c) where
    both are nonzero, a phase of +-1 or +-i times rho_rc, so T_ab's real and
    imaginary parts there are each a signed real or imaginary part of rho_rc.
    """
    ops = PAULI_PRODUCTS[1:, 0]
    terms = np.einsum("air,bcj->abijrc", ops, ops).reshape(9, 16, 16)
    source = abs(terms).argmax(axis=-1)
    phase = np.take_along_axis(terms, source[..., None], -1)[..., 0]
    # the real part is +-Re rho_rc for a real phase and -+Im rho_rc for an
    # imaginary one, the imaginary part +-Im rho_rc or +-Re rho_rc
    reads_imaginary = np.stack([phase.real == 0, phase.real != 0], axis=-1)
    signs = np.stack([phase.real - phase.imag, phase.real + phase.imag], axis=-1)
    return (2 * source[..., None] + reads_imaginary).reshape(9, 32), signs.reshape(9, 32)


_SANDWICH_GATHER, _SANDWICH_SIGNS = _sandwich_table()


def _halves(overlaps, even=1.0, odd=0.0) -> tuple:
    """(1 + P)/2 and (1 - P)/2, P = prod p: the weights of the even- and the
    odd-weight entries of the product of the kets (c, s), c^2 = (1 + p)/2,
    s^2 = (1 - p)/2. Only sums of nonnegative terms enter, so neither cancels.
    Given the halves of earlier overlaps, even and odd, the fold continues
    from them: the halves of those overlaps followed by these."""
    for p in overlaps:
        plus, minus = (1.0 + p) / 2.0, (1.0 - p) / 2.0
        even, odd = even * plus + odd * minus, odd * plus + even * minus
    return even, odd


def pair_density_from_overlaps(spec: SuperpositionSpec, i, j) -> np.ndarray:
    """Reduced pair density rebuilt from branch Gram data alone.

    A mode's branch kets w = (1, 0) and w' = (p, sqrt(1 - p^2)) have
    |w +- w'|^2 = 2 (1 +- p), so in its normalized sum/difference basis, the
    mapped-qubit convention used everywhere else, they read (c, s) and
    (c, -s), c = sqrt((1 + p)/2), s = sqrt((1 - p)/2). The pair's product
    kets u, v then have u + v = 2 e, e = (c_i c_j, 0, 0, s_i s_j), and
    u - v = 2 o, o = (0, c_i s_j, s_i c_j, 0), so with the rest traced out
    (cross weight q) the two-branch mixture
    N^2 (u u^T + v v^T + sign q (u v^T + v u^T)), sign = cos(m pi), is
    [(1 + sign q) e e^T + (1 - sign q) o o^T] / (1 + sign P). A grid spec
    gives an (m, 4, 4) stack, each member bitwise the one-state call at its
    overlaps; i and j may then be (m,) integer arrays, a pair of modes per
    point. Nothing is validated here: the routes that read the result as a
    density check it.
    """
    if np.any(np.floor(i) != i) or np.any(np.floor(j) != j):
        raise DomainError(f"mode indices must be integers, got ({i}, {j})")
    if not np.all((1 <= i) & (i <= spec.n) & (1 <= j) & (j <= spec.n)):
        raise DomainError(f"mode indices must lie in 1..{spec.n}, got ({i}, {j})")
    if np.any(i == j):
        raise DomainError("pair indices must differ")
    # the rest reads i and j as unit overlaps, which leave each _halves step exact
    p_i = p_j = 1.0
    rest = []
    for m, p in enumerate(spec.overlaps, start=1):
        at_i, at_j = m == i, m == j
        p_i, p_j = np.where(at_i, p, p_i), np.where(at_j, p, p_j)
        rest.append(np.where(at_i | at_j, 1.0, p))
    traced = _halves(rest)
    total = _halves([p_i, p_j], *traced)
    # odd parity swaps the halves: (1 - q)/2 weighs e, (1 + q)/2 weighs o, over (1 - P)/2
    (weight_e, weight_o), norm = traced[::spec.parity.sign], total[spec.parity.sign < 0]
    c_i, s_i = np.sqrt((1.0 + p_i) / 2.0), np.sqrt((1.0 - p_i) / 2.0)
    c_j, s_j = np.sqrt((1.0 + p_j) / 2.0), np.sqrt((1.0 - p_j) / 2.0)
    e, o = np.zeros((2,) + np.shape(c_i) + (4,))
    e[..., 0], e[..., 3] = c_i * c_j, s_i * s_j
    o[..., 1], o[..., 2] = c_i * s_j, s_i * c_j
    weight_e, weight_o, norm = (np.asarray(v)[..., None, None] for v in (weight_e, weight_o, norm))
    # divided as reals, then cast: numpy's complex division multiplies by a reciprocal
    return ((weight_e * (e[..., :, None] * e[..., None, :])
             + weight_o * (o[..., :, None] * o[..., None, :])) / norm).astype(complex)


def _sandwiches(rho: np.ndarray) -> np.ndarray:
    """T_ab = O_a rho O_b for a, b = x, y, z, O_a = sigma_a (x) 1, of an (m, 4, 4)
    stack, as (m, 9, 32) C-contiguous real tables.

    Each O_a has one entry of 1, -1, i or -i per row, so every T_ab is
    rho's entries moved and sign-flipped, exactly: a gather of rho's
    interleaved floats. Row 3a + b holds T_ab's 16 entries, real and
    imaginary parts interleaved. 0.0 is added, where the matrix products'
    sums start, so a -0 reads +0 as in theirs. The tables must be contiguous:
    a strided one would make tables @ x round differently.
    """
    entries = rho.reshape(len(rho), 16).view(np.float64)
    return np.take(entries, _SANDWICH_GATHER, axis=1) * _SANDWICH_SIGNS + 0.0


def _distances(rho: np.ndarray, tables: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Tr[(rho - chi)^2] of each density of an (m, 4, 4) stack at each unit
    axis, for (n, 3) axes shared by all densities or (m, n, 3) axes of
    their own: an (m, n) array.

    With S = e.sigma on the first qubit, the projectors are (1 +- S)/2,
    so the post-measurement state sum_+- P rho P is chi = (rho + S rho S)/2,
    and S rho S = sum_ab e_a e_b T_ab: one real product with the tables
    gives every entry of every axis's chi. Each density is its own matrix
    product, and every other step is elementwise or a sum over one axis's
    entries, so a density's values do not depend on the stack it sits in.
    """
    coefficients = (axes[..., :, None] * axes[..., None, :]).reshape(axes.shape[:-1] + (9,))
    # S rho S, then chi = (rho + S rho S)/2 and rho - chi in its place
    work = coefficients @ tables
    entries = rho.reshape(len(rho), 1, 16).view(np.float64)
    work += entries
    work *= 0.5
    delta = np.subtract(entries, work, out=work).reshape(work.shape[:2] + (4, 4, 2))
    re, im = delta[..., 0], delta[..., 1]
    # the real part of delta_ab delta_ba, summed over the 16 entries
    products = re * re.swapaxes(-1, -2)
    products -= im * im.swapaxes(-1, -2)
    return products.reshape(work.shape[:2] + (16,)).sum(axis=-1)


def discord_by_measurement_search(rho):
    """Geometric discord by direct minimization over measurement axes, for a
    density or each member of a (..., 4, 4) stack.

    For a unit axis e, S = e.sigma on the first qubit has S^2 = 1, so the
    objective is Tr[(rho - chi)^2] = (Tr rho^2 - Tr[rho S rho S])/2
    = (Tr rho^2 - e^T g e)/2 with g_ab = Re Tr[rho O_a rho O_b], read off the
    sandwich tables. It is lowest at the top eigenvector of g + g^T (numpy's
    eigh, one LAPACK factorization per density), where the literal objective
    is read (_distances), so an error in the axis reads high, never low. On
    a degenerate top eigenvalue (I/4, a Werner state) the objective is the
    same on the whole eigenspace, and it is even in e, so neither the choice
    within a tie nor an eigenvector's sign moves it. Against the K-spectrum
    route it reads within 5e-16 on random densities of rank 1 to 4, and
    within 1e-16 at axes 0.01 to 1 degree off a pole and on flat valleys,
    where K's top two eigenvalues nearly tie, down to
    (l1 - l2)/(l1 - l3) = 1e-8.

    A stack is searched _SEARCH_BLOCK densities at a time, so its working
    memory does not grow with the stack. Each density's g, eigenvectors and
    objective are its own products, so each member is bitwise the
    one-density call.
    """
    rho = check_density(rho)
    # contiguous, so every member is laid out, and its products computed, as one density's
    stack = np.ascontiguousarray(rho).reshape(-1, 4, 4)
    best = np.empty(len(stack))
    for first in range(0, len(stack), _SEARCH_BLOCK):
        block = stack[first:first + _SEARCH_BLOCK]
        tables = _sandwiches(block)
        # Re Tr[A B] is the dot product of A's interleaved entries with those of B^T's conjugate
        adjoint = np.ascontiguousarray(block.conj().swapaxes(-1, -2)).reshape(-1, 16).view(np.float64)
        g = (tables @ adjoint[:, :, None]).reshape(-1, 3, 3)
        axes = np.linalg.eigh(g + g.swapaxes(1, 2))[1][:, :, -1]
        best[first:first + _SEARCH_BLOCK] = _distances(block, tables, axes[:, None, :])[:, 0]
    return float(best[0]) if rho.ndim == 2 else best.reshape(rho.shape[:-2])
