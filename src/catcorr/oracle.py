"""Numerical oracles that rebuild everything from first principles.

Nothing in this module reuses the closed-form expressions elsewhere in
the package. The pair density is reconstructed from the Gram matrix of
the two branch vectors, and discord is recovered by brute-force
minimization of the Hilbert-Schmidt distance to the post-measurement
state over projective measurement axes: the axis of a Fibonacci grid at
which the objective's quadratic-form screen is lowest seeds a grid search
in the plane tangent to it. Agreement between these routes and the
analytic ones is the package's correctness argument, so this file imports
nothing from correlations or dephasing. The measurement acts on the first
qubit of a density, as in every route.
"""

import math

import numpy as np

from .errors import DomainError
from .states import PAULI_PRODUCTS, SuperpositionSpec, check_density

_COARSE_STEPS = 512
# densities searched in lockstep: a block's tables, screen and grid state set
# the search's peak memory, which then does not grow with the number of densities
_SEARCH_BLOCK = 64
# The tangent-plane grid: (2 _GRID_REACH + 1)^2 points a pass, first spaced
# _GRID_START apart, so the first grid reaches 0.18 from the seed, past the
# farthest any point of the sphere lies from its nearest coarse axis (about
# 0.104 rad). A shrink divides the spacing by _GRID_SHRINK = _GRID_REACH, so
# the finer grid spans the coarser one's cells around its best point. The
# search stops once the spacing is below _GRID_STOP, where an axis error
# moves the objective by at most about 1e-14, or after _GRID_PASSES passes, a
# bound that only guarantees an end: a typical density takes 13 and the
# flattest valleys measured (see discord_by_measurement_search) 90 at most.
_GRID_REACH = 3
_GRID_START = 0.06
_GRID_SHRINK = 3.0
_GRID_STOP = 1e-7
_GRID_PASSES = 400
# A grid point beats the best point so far when its quotient is higher by
# more than this; the quotient is at most 1 and rounds within a few 1e-16,
# so a smaller gain is noise, which would walk a flat objective at random.
_GRID_GAIN = 1e-15


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
# the grid's offsets (a, b) in units of its spacing, row-major, and which lie on its edge
_GRID_A, _GRID_B = (ab.ravel() for ab in np.meshgrid(
    *[np.arange(-_GRID_REACH, _GRID_REACH + 1.0)] * 2, indexing="ij"))
_GRID_EDGE = np.maximum(np.abs(_GRID_A), np.abs(_GRID_B)) == _GRID_REACH


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


def _halves(overlaps) -> tuple:
    """(1 + P)/2 and (1 - P)/2, P = prod p: the weights of the even- and the
    odd-weight entries of the product of the kets (c, s), c^2 = (1 + p)/2,
    s^2 = (1 - p)/2. Only sums of nonnegative terms enter, so neither cancels."""
    even, odd = 1.0, 0.0
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

    The objective is (Tr rho^2 - e^T g e)/2 for a symmetric g: the Fibonacci
    axis of highest e^T g e (_coarse_seeds) seeds a grid search in the plane
    tangent to it (_lockstep_search), which climbs the same form until the
    spacing is below _GRID_STOP or _GRID_PASSES passes are made, then reads
    the literal objective at the axis it found. A quadratic form has no
    local maximum on the sphere but its global one, so the search cannot
    stall at a false optimum; it finds the K-spectrum minimum within 2.5e-15
    on X-shaped and general densities, at axes near a pole or not. Where
    the objective is nearly flat along a great circle, with K's
    (l1 - l2)/(l1 - l3) = r small, walks carry it along the valley: on 400
    densities at each r it came within 1e-14 of the minimum down to
    r = 1e-3, 8.3e-14 at 1e-4, 1.1e-12 at 1e-5 and 1.3e-11 at 1e-6, in at
    most 90 passes. Step gains below _GRID_GAIN bound what it resolves in
    the flattest valleys: 5e-10 above at r = 1e-8.

    A stack is searched in lockstep, _SEARCH_BLOCK densities at a time:
    each pass scores the grids of every density still searching, and each
    follows the path it follows alone, so each member is bitwise the
    one-density call.
    """
    rho = check_density(rho)
    # contiguous, so every member is laid out, and its products computed, as one density's
    stack = np.ascontiguousarray(rho).reshape(-1, 4, 4)
    best = np.empty(len(stack))
    for first in range(0, len(stack), _SEARCH_BLOCK):
        block = slice(first, first + _SEARCH_BLOCK)
        best[block] = _lockstep_search(stack[block])
    return float(best[0]) if rho.ndim == 2 else best.reshape(rho.shape[:-2])


def _coarse_seeds(stack: np.ndarray, tables: np.ndarray) -> tuple:
    """Each density's seed, the first coarse axis e of highest e^T g e, and
    g_ab = Re Tr[rho T_ab] at 3a + b: (m,) seeds and (m, 9) g.

    For a unit axis S^2 = 1, so Tr[(rho - chi)^2] = (Tr rho^2 - Tr[rho S rho S])/2
    = (Tr rho^2 - e^T g e)/2: the seed is this screen's argmin over the
    coarse axes, ties to the lowest axis. It reads e^T (g - g_xx 1) e, which is
    e^T g e less g_xx on unit axes and 0 at every axis for an isotropic g, so
    I/4's tie goes to axis 0, not to the rounding of |e|^2. Each density's g
    and screen are its own products: a product of the stack would go through
    BLAS gemv for one density and gemm for more, which round differently.
    """
    # Re Tr[A B] is the dot product of A's interleaved entries with those of B^T's conjugate
    adjoint = np.ascontiguousarray(stack.conj().swapaxes(-1, -2)).reshape(-1, 16).view(np.float64)
    g = (tables @ adjoint[:, :, None])[..., 0]
    level = g - g[:, :1] * np.eye(3).reshape(1, 9)
    return (level[:, None] @ _COARSE_COEFFICIENTS.T)[:, 0].argmax(axis=1), g


def _frames(axes: np.ndarray) -> np.ndarray:
    """(m, 3, 3) frames of rows s, u, v for (m, 3) unit axes s: u = s x c / |s x c|
    for the coordinate axis c least aligned with s, and v = s x u, so each
    frame is orthonormal to rounding and no axis is a pole of it."""
    u = _unit(np.cross(axes, np.eye(3)[np.abs(axes).argmin(axis=1)]))
    return np.stack([axes, u, np.cross(axes, u)], axis=1)


def _unit(w: np.ndarray) -> np.ndarray:
    """Each row of (m, 3) w over its length."""
    return w / np.sqrt(w[:, :1] * w[:, :1] + w[:, 1:2] * w[:, 1:2] + w[:, 2:] * w[:, 2:])


def _along(frames: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w = s + a u + b v of each frame (s, u, v): (m, 3)."""
    return frames[:, 0] + a[:, None] * frames[:, 1] + b[:, None] * frames[:, 2]


def _plane_terms(frames: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(6, m) coefficients of x^T P x, x = (1, a, b), for P = F g F^T
    symmetrized, F each frame's rows and g (m, 3, 3): in the order of
    p00 + a (2 p01 + a p11 + 2 b p12) + b (2 p02 + b p22)."""
    form = frames @ g @ frames.swapaxes(1, 2)
    form = 0.5 * (form + form.swapaxes(1, 2))
    return np.stack([form[:, 0, 0], 2.0 * form[:, 0, 1], 2.0 * form[:, 0, 2],
                     form[:, 1, 1], 2.0 * form[:, 1, 2], form[:, 2, 2]])


_COARSE_FRAMES = _frames(_COARSE_AXES)


def _lockstep_search(stack: np.ndarray) -> np.ndarray:
    """discord_by_measurement_search of each density of an (m, 4, 4) stack.

    Each density's search lies in a plane tangent to the sphere, first at
    its coarse seed s, in a frame (s, u, v) of _frames: the axis at (a, b)
    is the unit vector along w = s + a u + b v. The plane reaches every
    axis but those at 90 degrees from s, and no point of it is a pole. The
    objective (Tr rho^2 - w^T g w / w^T w)/2 is lowest where the quotient
    w^T g w / w^T w is highest, the form whose highest coarse axis is s.
    With x = (1, a, b) and the frame's rows F, orthonormal to rounding,
    that is x^T P x / x^T x for P = F g F^T symmetrized, so a pass scores
    a grid point in a dozen operations.

    A pass scores the grid around c + d, c the centre and d twice the last
    walk's displacement (0 at first). When its best point beats c, c moves
    there; the move is a walk, which keeps the spacing and sets d, when
    that point lies on the grid's edge or d was nonzero, and otherwise the
    spacing shrinks. A grid that does not beat c shrinks the spacing if d
    was 0, and otherwise clears d, so the next pass scores the grid around
    c. Along a flat valley, where the lattice of one grid meets the valley
    floor too rarely to progress, the walks double in length. A walk that
    ends more than 45 degrees from s turns the plane to touch the sphere
    there, with d cleared: an optimum up to 90 degrees from the seed can
    lie beyond the plane's horizon from a walk that overshot it. A
    density that stops leaves the lockstep arrays, and every step is
    elementwise or a product of each density's own matrices, so each
    density follows the path it follows alone. The result is _distances at
    each final axis.
    """
    tables = _sandwiches(stack)
    count = len(stack)
    seeds, g = _coarse_seeds(stack, tables)
    frames = _COARSE_FRAMES[seeds]
    g = g.reshape(count, 3, 3)
    terms = _plane_terms(frames, g)
    # the centre (a, b), the next grid's offset (da, db), the quotient at the centre
    a, b, da, db = np.zeros((4, count))
    level = terms[0].copy()
    step = np.full(count, _GRID_START)
    found = np.empty((count, 3))
    live = np.arange(count)  # the stack row of each density still searching
    passes = 0
    while live.size:
        grid_a = (a + da)[:, None] + step[:, None] * _GRID_A
        grid_b = (b + db)[:, None] + step[:, None] * _GRID_B
        p00, p01, p02, p11, p12, p22 = terms[:, :, None]
        values = (p01 + grid_a * p11 + grid_b * p12) * grid_a
        values += (p02 + grid_b * p22) * grid_b
        values += p00
        values /= 1.0 + grid_a * grid_a + grid_b * grid_b
        rows = np.arange(live.size)
        pick = values.argmax(axis=1)
        top, to_a, to_b = values[rows, pick], grid_a[rows, pick], grid_b[rows, pick]
        moved = top - level > _GRID_GAIN
        walking = (da != 0.0) | (db != 0.0)
        walked = moved & (_GRID_EDGE[pick] | walking)
        da, db = np.where(walked, 2.0 * (to_a - a), 0.0), np.where(walked, 2.0 * (to_b - b), 0.0)
        a, b, level = np.where(moved, to_a, a), np.where(moved, to_b, b), np.where(moved, top, level)
        step = np.where(walked | (walking & ~moved), step, step / _GRID_SHRINK)
        # a walk that ends more than 45 degrees from s turns the plane
        far = walked & (a * a + b * b > 1.0) if walked.any() else walked
        if far.any():
            frames[far] = _frames(_unit(_along(frames[far], a[far], b[far])))
            terms[:, far] = _plane_terms(frames[far], g[far])
            level[far] = terms[0, far]
            a[far] = b[far] = da[far] = db[far] = 0.0
        passes += 1
        done = (step < _GRID_STOP) | (passes == _GRID_PASSES)
        if done.any():
            found[live[done]] = _along(frames[done], a[done], b[done])
            kept = ~done
            live, a, b, da, db, level, step, frames, g = (
                x[kept] for x in (live, a, b, da, db, level, step, frames, g))
            terms = terms[:, kept]
    return _distances(stack, tables, _unit(found)[:, None, :])[:, 0]

