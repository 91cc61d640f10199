"""Numerical oracles that rebuild everything from first principles.

Nothing in this module reuses the closed-form expressions elsewhere in
the package. The pair density is reconstructed from the Gram matrix of
the two branch vectors, and discord is recovered by brute-force
minimization of the Hilbert-Schmidt distance to the post-measurement
state over projective measurement axes: a screened scan of a Fibonacci
grid, whose screen provably keeps the grid's exact argmin, seeds a
compass search. Agreement between these routes and the analytic ones is
the package's correctness argument, so this file imports nothing from
correlations or dephasing. The measurement acts on the first qubit of a
density, as in every route.
"""

import math

import numpy as np

from .errors import DomainError
from .states import PAULI_PRODUCTS, SuperpositionSpec, check_density

_COARSE_STEPS = 512
_REFINEMENT_TOL = 1e-8
_COMPASS_MOVES = 64
# densities searched in lockstep: the tables, scan and compass state of a
# block set the search's peak memory, which then does not grow with the
# number of densities
_SEARCH_BLOCK = 64
# How far above its minimum the coarse screen keeps an axis. A density that
# has passed check_density has entries of at most about 1, and a Fibonacci
# axis has |e|^2 = 1 within a few ulp, so the screen and _distances are each
# within about 1e-15 of the objective: 1e-12 keeps the exact argmin with a
# margin of about 1000x.
_SCREEN_TOL = 1e-12


def fibonacci_sphere(count: int) -> np.ndarray:
    """count near-uniform unit vectors, golden-angle spiral layout."""
    if count < 1:
        raise DomainError("need at least one sphere point")
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])


_COARSE_AXES = fibonacci_sphere(_COARSE_STEPS)
# e_a e_b of each coarse axis, at 3a + b
_COARSE_COEFFICIENTS = (_COARSE_AXES[:, :, None] * _COARSE_AXES[:, None, :]).reshape(-1, 9)


def _halves(overlaps) -> tuple:
    """(1 + P)/2 and (1 - P)/2, P = prod p: the weights of the even- and the
    odd-weight entries of the product of the kets (c, s), c^2 = (1 + p)/2,
    s^2 = (1 - p)/2. Only sums of nonnegative terms enter, so neither cancels."""
    even, odd = 1.0, 0.0
    for p in overlaps:
        plus, minus = (1.0 + p) / 2.0, (1.0 - p) / 2.0
        even, odd = even * plus + odd * minus, odd * plus + even * minus
    return even, odd


def pair_density_from_overlaps(spec: SuperpositionSpec, i: int, j: int) -> np.ndarray:
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
    overlaps. Nothing is validated here: the routes that read the result as
    a density check it.
    """
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise DomainError(f"mode indices must lie in 1..{spec.n}, got ({i}, {j})")
    if i == j:
        raise DomainError("pair indices must differ")
    p_i, p_j = spec.overlaps[i - 1], spec.overlaps[j - 1]
    rest = [p for m, p in enumerate(spec.overlaps, start=1) if m not in (i, j)]
    traced, total = _halves(rest), _halves(rest + [p_i, p_j])
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


def _stack(rho: np.ndarray) -> np.ndarray:
    """A checked density or (..., 4, 4) stack as a contiguous (m, 4, 4) stack,
    so every member is laid out, and its products computed, as one density's."""
    return np.ascontiguousarray(rho).reshape(-1, 4, 4)


def _sandwiches(rho: np.ndarray) -> np.ndarray:
    """T_ab = O_a rho O_b for a, b = x, y, z, O_a = sigma_a (x) 1, as (m, 9, 32)
    real tables.

    Each O_a has one entry of 1, -1, i or -i per row, so every T_ab is
    rho's entries moved and sign-flipped, exactly. Row 3a + b holds T_ab's
    16 entries, real and imaginary parts interleaved.
    """
    ops = PAULI_PRODUCTS[1:, 0]
    products = ops[:, None] @ rho[:, None, None] @ ops
    return products.reshape(len(rho), 9, 16).view(np.float64)


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


def _spherical(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit vectors at polar angles theta and azimuths phi, (..., 3), from
    math's sin and cos at each angle."""
    thetas, phis = theta.ravel().tolist(), phi.ravel().tolist()
    count = len(thetas)
    sin_theta = np.fromiter(map(math.sin, thetas), float, count)
    axes = np.empty(theta.shape + (3,))
    flat = axes.reshape(-1, 3)
    flat[:, 0] = np.fromiter(map(math.cos, phis), float, count) * sin_theta
    flat[:, 1] = np.fromiter(map(math.sin, phis), float, count) * sin_theta
    flat[:, 2] = np.fromiter(map(math.cos, thetas), float, count)
    return axes


def discord_by_measurement_search(rho):
    """Geometric discord by direct minimization over measurement axes, for a
    density or each member of a (..., 4, 4) stack.

    A Fibonacci-sphere scan seeds a compass search in spherical
    coordinates: step to the best of four neighbors, halve the step
    on failure, stop once the step or the per-level gain is below the
    refinement tolerance. The objective is smooth (a quadratic form in
    the axis), so the local refinement converges to the global
    minimum from a fine enough seed grid.

    A stack is searched in lockstep, _SEARCH_BLOCK densities at a time:
    every density still searching takes its next compass move in the same
    pass, and follows the path it follows alone, so each member is bitwise
    the one-density call.
    """
    rho = check_density(rho)
    stack = _stack(rho)
    best = np.empty(len(stack))
    for first in range(0, len(stack), _SEARCH_BLOCK):
        block = slice(first, first + _SEARCH_BLOCK)
        best[block] = _lockstep_search(stack[block])
    return float(best[0]) if rho.ndim == 2 else best.reshape(rho.shape[:-2])


def _coarse_seeds(stack: np.ndarray, tables: np.ndarray) -> tuple:
    """The argmin and min of each density's objective over the coarse axes,
    ties to the lowest axis, as the full scan gives them: (m,) seeds and values.

    For a unit axis S^2 = 1, so Tr[(rho - chi)^2] = (Tr rho^2 - Tr[rho S rho S])/2
    = (Tr rho^2 - sum_ab e_a e_b g_ab)/2, g_ab = Re Tr[rho T_ab]: one (512, 9)
    product per density screens the grid. _distances then runs only at the
    axes within _SCREEN_TOL of the screen's minimum, in axis order, padded
    to at least two with further axes, which cannot win: one row would go
    through BLAS gemv, which rounds differently from the rows of a gemm, so
    each kept axis's value is bitwise the full scan's. A typical density
    keeps one or two axes; one that keeps more, such as an isotropic one
    (I/4, a Werner state) that keeps them all, is evaluated alone, so the
    rest of its block still evaluates two axes each.
    """
    count = len(stack)
    # Re Tr[A B] is the dot product of A's interleaved entries with those of B^T's conjugate
    entries = stack.reshape(count, 16).view(np.float64)
    adjoint = np.ascontiguousarray(stack.conj().swapaxes(-1, -2)).reshape(count, 16).view(np.float64)
    purity = (entries * adjoint).sum(axis=1)
    g = (tables @ adjoint[:, :, None])[..., 0]
    screen = 0.5 * (purity[:, None] - g @ _COARSE_COEFFICIENTS.T)
    keep = screen <= screen.min(axis=1, keepdims=True) + _SCREEN_TOL
    kept = np.count_nonzero(keep, axis=1)
    # the kept axes, then the others, each in axis order
    ranked = np.argsort(~keep, axis=1, kind="stable")
    seeds, best = np.empty(count, dtype=np.intp), np.empty(count)
    # the densities that keep one or two axes in one pass, any other one alone
    groups = [(np.flatnonzero(kept <= 2), 2)] + [([k], kept[k]) for k in np.flatnonzero(kept > 2)]
    for members, width in groups:
        picked = np.sort(ranked[members, :width], axis=1)
        values = _distances(stack[members], tables[members], _COARSE_AXES[picked])
        rows, column = np.arange(len(members)), values.argmin(axis=1)
        seeds[members], best[members] = picked[rows, column], values[rows, column]
    return seeds, best


def _lockstep_search(stack: np.ndarray) -> np.ndarray:
    """discord_by_measurement_search of each density of an (m, 4, 4) stack.

    A density that stops searching leaves the lockstep arrays, so each pass
    forms and evaluates the compass neighbors of the searching ones only.
    """
    tables = _sandwiches(stack)
    count = len(stack)
    seed, best = _coarse_seeds(stack, tables)
    x, y, z = _COARSE_AXES[seed].T.tolist()
    theta = np.array([math.acos(max(-1.0, min(1.0, v))) for v in z])
    phi = np.array([math.atan2(b, a) for a, b in zip(x, y)])
    step = np.full(count, 2.0 * math.sqrt(math.pi / _COARSE_STEPS))
    level_start = best.copy()
    moves = np.zeros(count, dtype=np.intp)
    found = np.empty(count)
    live = np.arange(count)  # the stack row of each density still searching
    while live.size:
        thetas = np.array([theta + step, theta - step, theta, theta]).T
        phis = np.array([phi, phi, phi + step, phi - step]).T
        values = _distances(stack, tables, _spherical(thetas, phis))
        rows = np.arange(live.size)
        pick = values.argmin(axis=1)
        low = values[rows, pick]
        # a neighbor no better than the best ends the level (a NaN one does not)
        moved = ~(low >= best)
        best = np.where(moved, low, best)
        theta = np.where(moved, thetas[rows, pick], theta)
        phi = np.where(moved, phis[rows, pick], phi)
        moves += moved
        ended = ~moved | (moves == _COMPASS_MOVES)
        converged = (step < 1e-4) & (level_start - best < _REFINEMENT_TOL)
        step = np.where(ended, 0.5 * step, step)
        moves[ended] = 0
        level_start = np.where(ended, best, level_start)
        done = ended & (converged | (step < 1e-8))
        if done.any():
            found[live[done]] = best[done]
            kept = ~done
            live, stack, tables, theta, phi, step, best, level_start, moves = (
                a[kept] for a in (live, stack, tables, theta, phi, step, best, level_start, moves))
    return found
