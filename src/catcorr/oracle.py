"""Numerical oracles that rebuild everything from first principles.

Nothing in this module reuses the closed-form expressions elsewhere in
the package. The pair density is reconstructed from the Gram matrix of
the two branch vectors, and discord is recovered by brute-force
minimization of the Hilbert-Schmidt distance to the post-measurement
state over projective measurement axes. Agreement between these
routes and the analytic ones is the package's correctness argument,
so keep this file free of imports from correlations except the
measurement-side enum, which is shared for type compatibility only.
"""

import math

import numpy as np

from .correlations import MeasurementSide
from .errors import DomainError
from .states import PAULIS, SIGMA0, SuperpositionSpec, check_density, normalization


def fibonacci_sphere(count: int) -> np.ndarray:
    """count near-uniform unit vectors, golden-angle spiral layout."""
    if count < 1:
        raise DomainError("need at least one sphere point")
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])


def pair_density_from_overlaps(spec: SuperpositionSpec, i: int, j: int) -> np.ndarray:
    """Reduced pair density rebuilt from branch Gram data alone.

    Each mode's two branch states are embedded in a plane as (1, 0)
    and (p, sqrt(1-p^2)); tracing the remaining modes leaves the
    two-branch mixture with cross weight q cos(m pi). The result is
    expressed in the orthonormalized sum/difference basis per mode,
    matching the mapped-qubit convention used everywhere else.
    """
    q = spec.omitted_product(i, j)
    sign = spec.parity.sign
    nsq = normalization(spec) ** 2

    def mode_basis(p: float) -> tuple:
        ket = np.array([1.0, 0.0])
        ketp = np.array([p, math.sqrt((1.0 - p) * (1.0 + p))])
        plus = ket + ketp
        plus = plus / np.linalg.norm(plus)
        diff = ket - ketp
        norm = np.linalg.norm(diff)
        if norm < 1e-8:
            minus = np.array([-plus[1], plus[0]])
        else:
            minus = diff / norm
        return ket, ketp, plus, minus

    k_i, kp_i, e0_i, e1_i = mode_basis(spec.overlaps[i - 1])
    k_j, kp_j, e0_j, e1_j = mode_basis(spec.overlaps[j - 1])
    u = np.kron(k_i, k_j)
    v = np.kron(kp_i, kp_j)
    raw = nsq * (np.outer(u, u) + np.outer(v, v)
                 + q * sign * (np.outer(v, u) + np.outer(u, v)))
    basis = np.array([np.kron(e0_i, e0_j), np.kron(e0_i, e1_j),
                      np.kron(e1_i, e0_j), np.kron(e1_i, e1_j)])
    rho = basis @ raw @ basis.T
    # Same trace rescaling as the closed route: nsq is a shared factor
    # with a cancellation-limited relative error near unit products.
    trace = rho.trace().real
    if abs(trace - 1.0) > 1e-9:
        raise DomainError(f"overlap-matrix density trace {trace} is structurally off unit")
    return check_density(rho / trace)


def measurement_distance(rho, axis, side: MeasurementSide = MeasurementSide.FIRST) -> float:
    """Squared distance from rho to its post-measurement state.

    The measurement is the projective pair along the given Bloch axis
    on one member of the pair; the objective being minimized over axes
    is Tr[(rho - chi)^2] with chi the dephased-in-basis state.
    """
    rho = check_density(rho)
    axis = np.array(axis, dtype=float)
    if axis.shape != (3,):
        raise DomainError("measurement axis needs three components")
    norm = math.sqrt(float(axis @ axis))
    if abs(norm - 1.0) > 1e-12:
        raise DomainError(f"measurement axis must be unit length, |e| = {norm}")
    return float(_batch_distance(rho, axis[None], side)[0])


def _batch_distance(rho: np.ndarray, axes: np.ndarray, side: MeasurementSide) -> np.ndarray:
    """measurement_distance over many unit axes at once, rho already checked."""
    sig = np.stack(PAULIS[1:])
    direction = np.einsum("nk,kab->nab", axes, sig)
    plus = 0.5 * (SIGMA0[None] + direction)
    minus = 0.5 * (SIGMA0[None] - direction)
    if side is MeasurementSide.FIRST:
        ops = [np.einsum("nab,cd->nacbd", p, SIGMA0).reshape(-1, 4, 4) for p in (plus, minus)]
    else:
        ops = [np.einsum("ab,ncd->nacbd", SIGMA0, p).reshape(-1, 4, 4) for p in (plus, minus)]
    chi = sum(np.einsum("nab,bc,ncd->nad", op, rho, op) for op in ops)
    delta = rho[None] - chi
    return np.einsum("nab,nba->n", delta, delta).real


def _spherical(theta: float, phi: float) -> tuple:
    st = math.sin(theta)
    return st * math.cos(phi), st * math.sin(phi), math.cos(theta)


def discord_by_measurement_search(rho, side: MeasurementSide = MeasurementSide.FIRST,
                                  coarse_steps: int = 512,
                                  refinement_tol: float = 1e-8) -> float:
    """Geometric discord by direct minimization over measurement axes.

    A Fibonacci-sphere scan seeds a compass search in spherical
    coordinates: step to the best of four neighbors, halve the step
    on failure, stop once the step or the per-level gain is below the
    refinement tolerance. The objective is smooth (a quadratic form in
    the axis), so the local refinement converges to the global
    minimum from a fine enough seed grid.
    """
    rho = check_density(rho)
    if coarse_steps < 16:
        raise DomainError("the coarse stage needs at least 16 sphere points")
    axes = fibonacci_sphere(coarse_steps)
    values = _batch_distance(rho, axes, side)
    best_idx = int(np.argmin(values))
    best_value = float(values[best_idx])
    x, y, z = axes[best_idx]
    theta = math.acos(max(-1.0, min(1.0, z)))
    phi = math.atan2(y, x)
    step = 2.0 * math.sqrt(math.pi / coarse_steps)
    moves = 0
    while step >= 1e-8:
        level_start = best_value
        while moves < 64:
            neighbors = [(theta + step, phi), (theta - step, phi),
                         (theta, phi + step), (theta, phi - step)]
            candidates = np.array([_spherical(t, p) for t, p in neighbors])
            vals = _batch_distance(rho, candidates, side)
            idx = int(np.argmin(vals))
            if vals[idx] >= best_value:
                break
            best_value = float(vals[idx])
            theta, phi = neighbors[idx]
            moves += 1
        level_gain = level_start - best_value
        if step < 1e-4 and level_gain < refinement_tol:
            break
        step *= 0.5
        moves = 0
    return best_value
