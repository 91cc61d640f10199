import math

import numpy as np
import pytest

from catcorr.correlations import MeasurementSide, geometric_discord_numeric
from catcorr.dephasing import apply_dephasing
from catcorr.errors import DomainError
from catcorr.oracle import (
    _batch_distance,
    discord_by_measurement_search,
    fibonacci_sphere,
    measurement_distance,
    pair_density_from_overlaps,
)
from catcorr.states import Parity, SuperpositionSpec, check_density, normalization, reduced_pair_density
from conftest import random_density, random_pair, random_spec

EYE = np.eye(2)
PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]]))


def _distance_by_projectors(rho, axis, side) -> float:
    """Tr[(rho - chi)^2] with chi = sum_+- (P+- (x) 1) rho (P+- (x) 1), literally."""
    direction = sum(c * s for c, s in zip(axis, PAULIS))
    chi = np.zeros((4, 4), dtype=complex)
    for proj in (0.5 * (EYE + direction), 0.5 * (EYE - direction)):
        op = np.kron(proj, EYE) if side is MeasurementSide.FIRST else np.kron(EYE, proj)
        chi = chi + op @ rho @ op
    return np.trace((rho - chi) @ (rho - chi)).real


def _gram_density_by_kron(spec, i, j) -> np.ndarray:
    """pair_density_from_overlaps written with np.kron, step for step."""
    q = spec.omitted_product(i, j)
    nsq = normalization(spec) ** 2

    def mode_basis(p):
        ket = np.array([1.0, 0.0])
        ketp = np.array([p, math.sqrt((1.0 - p) * (1.0 + p))])
        plus = (ket + ketp) / np.linalg.norm(ket + ketp)
        norm = np.linalg.norm(ket - ketp)
        minus = np.array([-plus[1], plus[0]]) if norm < 1e-8 else (ket - ketp) / norm
        return ket, ketp, plus, minus

    k_i, kp_i, e0_i, e1_i = mode_basis(spec.overlaps[i - 1])
    k_j, kp_j, e0_j, e1_j = mode_basis(spec.overlaps[j - 1])
    u, v = np.kron(k_i, k_j), np.kron(kp_i, kp_j)
    raw = nsq * (np.outer(u, u) + np.outer(v, v)
                 + q * spec.parity.sign * (np.outer(v, u) + np.outer(u, v)))
    basis = np.array([np.kron(e0_i, e0_j), np.kron(e0_i, e1_j),
                      np.kron(e1_i, e0_j), np.kron(e1_i, e1_j)])
    rho = basis @ raw @ basis.T
    return check_density(rho / rho.trace().real)


def test_fibonacci_sphere_layout():
    pts = fibonacci_sphere(128)
    assert pts.shape == (128, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    # z runs from near the north pole to near the south pole
    assert pts[0, 2] > 0.99
    assert pts[-1, 2] < -0.99
    assert np.all(np.diff(pts[:, 2]) < 0.0)
    with pytest.raises(DomainError):
        fibonacci_sphere(0)


def test_measurement_distance_axis_validation():
    # the single-axis objective agrees with the explicit projector sum
    rho = reduced_pair_density(SuperpositionSpec(overlaps=(0.5, 0.7, 0.3),
                                                 parity=Parity.ODD), 1, 3)
    for axis in fibonacci_sphere(8):
        for side in MeasurementSide:
            expected = _distance_by_projectors(rho, axis, side)
            assert abs(measurement_distance(rho, axis, side) - expected) < 1e-14
    tilted = (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
    assert measurement_distance(rho, tilted) >= 0.0
    with pytest.raises(DomainError):
        measurement_distance(rho, (1.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        measurement_distance(rho, (1.0, 0.0))


def test_objective_equals_projector_sum_on_random_states(rng):
    # (rho + S rho S)/2 is the projector sum; checked on generic complex states
    axes = fibonacci_sphere(512)
    for _ in range(4):
        rho = random_density(rng)
        for side in MeasurementSide:
            expected = np.array([_distance_by_projectors(rho, axis, side) for axis in axes])
            assert np.max(np.abs(_batch_distance(rho, axes, side) - expected)) < 1e-15
            for axis, value in zip(axes[::37], expected[::37]):
                assert abs(measurement_distance(rho, axis, side) - value) < 1e-15


def test_gram_density_is_bitwise_its_kron_construction(rng):
    for _ in range(100):
        spec = random_spec(rng)
        i, j = random_pair(rng, spec.n)
        assert np.array_equal(pair_density_from_overlaps(spec, i, j),
                              _gram_density_by_kron(spec, i, j))


def test_measurement_distance_zero_for_classical_state():
    # diagonal states are untouched by a z measurement on either side
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    for side in MeasurementSide:
        assert measurement_distance(rho, (0.0, 0.0, 1.0), side) < 1e-15
    # but an x measurement disturbs it
    assert measurement_distance(rho, (1.0, 0.0, 0.0), MeasurementSide.FIRST) > 1e-3


def test_measurement_distance_nonnegative_random_axes(rng):
    spec = SuperpositionSpec(overlaps=(0.5, 0.7, 0.3), parity=Parity.ODD)
    rho = reduced_pair_density(spec, 1, 3)
    for axis in fibonacci_sphere(32):
        for side in MeasurementSide:
            assert measurement_distance(rho, tuple(axis), side) >= 0.0


def test_gram_path_matches_closed_density(rng):
    for _ in range(200):
        spec = random_spec(rng)
        i, j = random_pair(rng, spec.n)
        gap = np.max(np.abs(pair_density_from_overlaps(spec, i, j)
                            - reduced_pair_density(spec, i, j)))
        assert gap < 1e-12


def test_gram_path_handles_degenerate_overlaps():
    # unit overlaps collapse the difference basis vector; the fallback
    # completion must keep the construction finite and correct
    spec = SuperpositionSpec(overlaps=(1.0, 0.5, 1.0), parity=Parity.EVEN)
    for pair in ((1, 2), (1, 3), (2, 3)):
        gap = np.max(np.abs(pair_density_from_overlaps(spec, *pair)
                            - reduced_pair_density(spec, *pair)))
        assert gap < 1e-13
    zeros = SuperpositionSpec(overlaps=(0.0, 0.0), parity=Parity.ODD)
    gap = np.max(np.abs(pair_density_from_overlaps(zeros, 1, 2)
                        - reduced_pair_density(zeros, 1, 2)))
    assert gap < 1e-13


def test_search_agrees_with_spectrum_route(rng):
    for _ in range(15):
        spec = random_spec(rng, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        rho = reduced_pair_density(spec, i, j)
        side = MeasurementSide.FIRST if rng.uniform() < 0.5 else MeasurementSide.SECOND
        found = discord_by_measurement_search(rho, side)
        expected = geometric_discord_numeric(rho, side).discord
        assert abs(found - expected) < 1e-6


def test_search_agrees_on_dephased_states(rng):
    for _ in range(8):
        spec = random_spec(rng, n_min=3, n_max=5, extremes=False)
        i, j = random_pair(rng, spec.n)
        rho = apply_dephasing(reduced_pair_density(spec, i, j),
                              float(rng.uniform(0.1, 0.9)))
        found = discord_by_measurement_search(rho)
        expected = geometric_discord_numeric(rho).discord
        assert abs(found - expected) < 1e-6


def test_search_is_deterministic():
    spec = SuperpositionSpec(overlaps=(0.6, 0.4, 0.8), parity=Parity.EVEN)
    rho = reduced_pair_density(spec, 1, 2)
    first = discord_by_measurement_search(rho)
    second = discord_by_measurement_search(rho)
    assert first == second


def test_search_zero_discord_state():
    # a classical-quantum state has a measurement that leaves it alone;
    # the refinement schedule bottoms out around its gain tolerance
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert discord_by_measurement_search(rho) < 1e-9


def test_search_respects_side_asymmetry():
    spec = SuperpositionSpec(overlaps=(0.8, 0.5, 0.4), parity=Parity.ODD)
    rho = reduced_pair_density(spec, 1, 2)
    first = discord_by_measurement_search(rho, MeasurementSide.FIRST)
    second = discord_by_measurement_search(rho, MeasurementSide.SECOND)
    assert abs(first - second) > 1e-2
    assert abs(first - geometric_discord_numeric(rho, MeasurementSide.FIRST).discord) < 1e-6
    assert abs(second - geometric_discord_numeric(rho, MeasurementSide.SECOND).discord) < 1e-6
