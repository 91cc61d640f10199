import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import catcorr.oracle
import catcorr.states
from catcorr.correlations import geometric_discord_numeric
from catcorr.dephasing import apply_dephasing
from catcorr.errors import DomainError, InvalidDensityError
from catcorr.oracle import (
    _distances,
    _sandwiches,
    discord_by_measurement_search,
    pair_density_from_overlaps,
)
from catcorr.states import Parity, SuperpositionSpec, check_density, reduced_pair_density
from conftest import normalization, random_density, random_pair, random_spec, swap_qubits
from reference import gram_density_reference

EYE = np.eye(2)
PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]]))


def _distance_by_projectors(rho, axis, first=True) -> float:
    """Tr[(rho - chi)^2] with chi = sum_+- (P+- (x) 1) rho (P+- (x) 1), literally
    (1 (x) P+- when not first)."""
    direction = sum(c * s for c, s in zip(axis, PAULIS))
    chi = np.zeros((4, 4), dtype=complex)
    for proj in (0.5 * (EYE + direction), 0.5 * (EYE - direction)):
        op = np.kron(proj, EYE) if first else np.kron(EYE, proj)
        chi = chi + op @ rho @ op
    return np.trace((rho - chi) @ (rho - chi)).real


def _gram_density_by_kron(spec, i, j) -> np.ndarray:
    """The Gram route as the textbook writes it: kets (1, 0) and (p, sqrt(1 - p^2))
    per mode, the np.kron product kets' two-branch mixture over N^2, turned into
    each mode's normalized sum/difference basis (completed by a rotation where
    the difference vanishes) and rescaled by its trace."""
    q = math.prod([p for m, p in enumerate(spec.overlaps, start=1) if m not in (i, j)], start=1.0)
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


def _fibonacci_sphere(count: int) -> np.ndarray:
    """count near-uniform unit vectors, golden-angle spiral layout: fixed axes
    that reach the poles and the equator, for checks of the objective."""
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])


def test_fibonacci_sphere_layout():
    pts = _fibonacci_sphere(128)
    assert pts.shape == (128, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    # z runs from near the north pole to near the south pole
    assert pts[0, 2] > 0.99
    assert pts[-1, 2] < -0.99
    assert np.all(np.diff(pts[:, 2]) < 0.0)


def _objective(rho, axes) -> np.ndarray:
    """The search objective of one density at each of (n, 3) axes."""
    stack = np.asarray(rho, dtype=complex)[None]
    return _distances(stack, _sandwiches(stack), np.asarray(axes, dtype=float))[0]


def test_objective_equals_projector_sum_at_fixed_axes():
    # the objective agrees with the explicit projector sum, on either qubit
    rho = reduced_pair_density(SuperpositionSpec(overlaps=(0.5, 0.7, 0.3),
                                                 parity=Parity.ODD).pair(1, 3))
    tilted = (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
    axes = np.vstack([_fibonacci_sphere(8), np.eye(3), [tilted]])
    # the swapped density's first qubit is the second qubit of rho
    for first, measured in ((True, rho), (False, swap_qubits(rho))):
        expected = [_distance_by_projectors(rho, axis, first) for axis in axes]
        assert np.max(np.abs(_objective(measured, axes) - expected)) < 1e-14


def test_objective_equals_projector_sum_on_random_states(rng):
    # (rho + S rho S)/2 is the projector sum; checked on generic complex states
    axes = _fibonacci_sphere(512)
    for _ in range(4):
        rho = random_density(rng)
        for first, measured in ((True, rho), (False, swap_qubits(rho))):
            expected = np.array([_distance_by_projectors(rho, axis, first) for axis in axes])
            values = _distances(measured[None], _sandwiches(measured[None]), axes)[0]
            assert np.max(np.abs(values - expected)) < 1e-15


def test_gram_density_matches_its_kron_construction(rng):
    for _ in range(100):
        spec = random_spec(rng)
        i, j = random_pair(rng, spec.n)
        gap = np.abs(pair_density_from_overlaps(spec, i, j) - _gram_density_by_kron(spec, i, j))
        assert np.max(gap) < 1e-14


def test_gram_route_checks_its_mode_indices():
    spec = SuperpositionSpec(overlaps=(0.3, 0.5, 0.7, 0.9))
    grid = SuperpositionSpec(overlaps=tuple(np.array([p, 0.4]) for p in spec.overlaps))
    # a fractional index matches no mode, which would read as a unit overlap
    fractional = "mode indices must be integers"
    for s, i, j, message in ((spec, 1, 1, "pair indices must differ"),
                             (spec, 0, 2, r"mode indices must lie in 1\.\.4, got \(0, 2\)"),
                             (spec, 1, 5, r"mode indices must lie in 1\.\.4, got \(1, 5\)"),
                             (spec, 1.5, 2, fractional), (spec, 2, 2.5, fractional),
                             (spec, np.array([1.5]), 2, fractional),
                             (spec, float("nan"), 2, fractional),
                             (grid, np.array([1, 2]), np.array([3, 3.5]), fractional)):
        with pytest.raises(DomainError, match=message):
            pair_density_from_overlaps(s, i, j)
    # a valid pair in either order is a density, an integer-valued float its mode
    for i, j in ((1, 4), (4, 1)):
        check_density(pair_density_from_overlaps(spec, i, j))
    assert np.array_equal(pair_density_from_overlaps(spec, 1.0, np.array([4.0])),
                          pair_density_from_overlaps(spec, 1, np.array([4])))


def test_objective_zero_for_classical_state():
    # diagonal states are untouched by a z measurement on either qubit
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    for measured in (rho, swap_qubits(rho)):
        assert _objective(measured, [(0.0, 0.0, 1.0)])[0] < 1e-15
    # but an x measurement disturbs it
    assert _objective(rho, [(1.0, 0.0, 0.0)])[0] > 1e-3


def test_objective_nonnegative_on_sphere_axes():
    spec = SuperpositionSpec(overlaps=(0.5, 0.7, 0.3), parity=Parity.ODD)
    rho = reduced_pair_density(spec.pair(1, 3))
    for measured in (rho, swap_qubits(rho)):
        assert np.all(_objective(measured, _fibonacci_sphere(32)) >= 0.0)


def test_gram_path_matches_closed_density(rng):
    for _ in range(200):
        spec = random_spec(rng)
        i, j = random_pair(rng, spec.n)
        gap = np.max(np.abs(pair_density_from_overlaps(spec, i, j)
                            - reduced_pair_density(spec.pair(i, j))))
        assert gap < 1e-12


def test_gram_path_matches_closed_density_near_unit_overlap():
    # 1 - P cancels here in the textbook N^2 = 1 / (2 (1 - P))
    spec = SuperpositionSpec((0.999999999,) * 3, "odd")
    gap = np.max(np.abs(pair_density_from_overlaps(spec, 1, 2)
                        - reduced_pair_density(spec.pair(1, 2))))
    assert gap < 1e-12


def test_gram_path_near_unit_overlap_matches_50_digit_reference():
    # overlaps 1 - 10^-U(3, 14), where 1 - q and 1 - P cancel in the textbook
    # form: every nonzero entry within 2e-15 relative, every other one exactly 0
    rng = np.random.default_rng(1210)
    for parity in (Parity.EVEN, Parity.ODD):
        for _ in range(60):
            n = int(rng.integers(3, 7))
            overlaps = tuple(1.0 - 10.0 ** -rng.uniform(3.0, 14.0, size=n))
            i, j = random_pair(rng, n)
            rho = pair_density_from_overlaps(SuperpositionSpec(overlaps, parity), i, j)
            reference = gram_density_reference(overlaps, parity.sign, i, j)
            for value, exact in zip(rho.ravel(), (x for row in reference for x in row)):
                assert value.imag == 0.0
                if abs(exact) < 1e-40:
                    assert value == 0.0
                else:
                    assert abs(value.real - exact) <= 2e-15 * abs(exact), (overlaps, i, j)


def test_gram_path_handles_degenerate_overlaps():
    # unit overlaps leave a mode's difference direction with zero weight,
    # and zero overlaps an even split; both stay finite and correct
    spec = SuperpositionSpec(overlaps=(1.0, 0.5, 1.0), parity=Parity.EVEN)
    for pair in ((1, 2), (1, 3), (2, 3)):
        gap = np.max(np.abs(pair_density_from_overlaps(spec, *pair)
                            - reduced_pair_density(spec.pair(*pair))))
        assert gap < 1e-13
    zeros = SuperpositionSpec(overlaps=(0.0, 0.0), parity=Parity.ODD)
    gap = np.max(np.abs(pair_density_from_overlaps(zeros, 1, 2)
                        - reduced_pair_density(zeros.pair(1, 2))))
    assert gap < 1e-13


def test_search_agrees_with_spectrum_route(rng):
    for _ in range(15):
        spec = random_spec(rng, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        rho = reduced_pair_density(spec.pair(i, j))
        if rng.uniform() >= 0.5:
            rho = swap_qubits(rho)
        found = discord_by_measurement_search(rho)
        expected = geometric_discord_numeric(rho).discord
        assert abs(found - expected) < 1e-6


def test_search_agrees_on_dephased_states(rng):
    for _ in range(8):
        spec = random_spec(rng, n_min=3, n_max=5, extremes=False)
        i, j = random_pair(rng, spec.n)
        rho = apply_dephasing(reduced_pair_density(spec.pair(i, j)),
                              float(rng.uniform(0.1, 0.9)))
        found = discord_by_measurement_search(rho)
        expected = geometric_discord_numeric(rho).discord
        assert abs(found - expected) < 1e-6


def test_search_is_deterministic():
    spec = SuperpositionSpec(overlaps=(0.6, 0.4, 0.8), parity=Parity.EVEN)
    rho = reduced_pair_density(spec.pair(1, 2))
    first = discord_by_measurement_search(rho)
    second = discord_by_measurement_search(rho)
    assert first == second


def test_search_zero_discord_state():
    # a classical-quantum state has a measurement that leaves it alone
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert discord_by_measurement_search(rho) < 1e-9


def test_search_respects_side_asymmetry():
    spec = SuperpositionSpec(overlaps=(0.8, 0.5, 0.4), parity=Parity.ODD)
    rho = reduced_pair_density(spec.pair(1, 2))
    first = discord_by_measurement_search(rho)
    second = discord_by_measurement_search(swap_qubits(rho))
    assert abs(first - second) > 1e-2
    assert abs(first - geometric_discord_numeric(rho).discord) < 1e-6
    assert abs(second - geometric_discord_numeric(swap_qubits(rho)).discord) < 1e-6


def _search_inputs(rng) -> list:
    """Pair densities, dephased ones and random full-rank ones, with the
    zero-discord diagonal state among them."""
    rhos = [np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)]
    while len(rhos) < 40:
        spec = random_spec(rng)
        rho = reduced_pair_density(spec.pair(*random_pair(rng, spec.n)))
        rhos.append(rho)
        rhos.append(apply_dephasing(rho, float(rng.uniform())))
        rhos.append(random_density(rng))
    return rhos


def test_search_on_a_stack_is_bitwise_each_single_search(rng):
    # the lockstep search follows each member's own search path, so a
    # stack gives exactly the one-density calls, on either qubit
    inputs = np.array(_search_inputs(rng))
    for stack in (inputs, swap_qubits(inputs)):
        rhos = list(stack)
        found = discord_by_measurement_search(stack)
        assert found.shape == (len(rhos),)
        singles = [discord_by_measurement_search(rho) for rho in rhos]
        assert found.tolist() == singles
        assert [discord_by_measurement_search(rho[None])[0] for rho in rhos] == singles
        assert found[0] < 1e-9
        # leading axes are kept, and a reversed stack gives the reversed values
        assert discord_by_measurement_search(stack[:36].reshape(6, 6, 4, 4)).tolist() == (
            found[:36].reshape(6, 6).tolist())
        assert discord_by_measurement_search(stack[::-1]).tolist() == singles[::-1]
        spectrum = geometric_discord_numeric(stack).discord
        assert np.max(np.abs(found - spectrum)) < 1e-6


def _near_pole(tilt, azimuth) -> np.ndarray:
    """(1 (x) 1 + 0.85 sigma_e (x) sigma_z + 0.1 sigma_x (x) sigma_x)/4, e at
    `tilt` degrees from z and `azimuth` degrees round it: the optimal axis
    lies close to the z pole."""
    t, a = math.radians(tilt), math.radians(azimuth)
    e = (math.sin(t) * math.cos(a), math.sin(t) * math.sin(a), math.cos(t))
    sigma_e = sum(c * s for c, s in zip(e, PAULIS))
    return (np.eye(4) + 0.85 * np.kron(sigma_e, PAULIS[2])
            + 0.1 * np.kron(PAULIS[0], PAULIS[0])) / 4.0


def _rotation(rng) -> np.ndarray:
    """A Haar-random rotation of R^3."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diagonal(r))
    return q if np.linalg.det(q) > 0 else -q


def _flat_valley(rng, ratio, count) -> np.ndarray:
    """(1 (x) 1 + sum T_ab sigma_a (x) sigma_b)/4 with T = R1 diag(t1, t2, t3) R2
    for Haar rotations R1, R2, t1 ~ U(0.3, 0.6), t3 ~ U(0.05, 0.3) and t2
    such that K = T T^T has (l1 - l2)/(l1 - l3) = ratio, so the objective is
    nearly flat along a great circle; PSD draws only."""
    rhos = []
    while len(rhos) < count:
        t1, t3 = rng.uniform(0.3, 0.6), rng.uniform(0.05, 0.3)
        t2 = math.sqrt(t1 * t1 - ratio * (t1 * t1 - t3 * t3))
        rho = _from_correlations(_rotation(rng) @ np.diag([t1, t2, t3]) @ _rotation(rng))
        if np.linalg.eigvalsh(rho).min() >= 0.0:
            rhos.append(rho)
    return np.array(rhos)


def _from_correlations(t) -> np.ndarray:
    """(1 (x) 1 + sum T_ab sigma_a (x) sigma_b)/4 for a 3 x 3 T."""
    return ((np.eye(4) + sum(t[a, b] * np.kron(PAULIS[a], PAULIS[b])
                             for a in range(3) for b in range(3))) / 4.0).astype(complex)


def _assert_near_spectrum(rhos, above, below=1e-14):
    """The search within `above` over the K route, and at most `below` under
    it: it minimizes over axes, so the route's minimum bounds it from below."""
    gap = discord_by_measurement_search(rhos) - geometric_discord_numeric(rhos).discord
    assert np.max(gap) <= above and np.min(gap) >= -below, (np.max(gap), np.min(gap))


def test_search_finds_an_optimum_near_the_pole():
    # the optimal axis lies 0.21 degrees off z
    rho = _near_pole(0.21, 240.0)
    assert geometric_discord_numeric(rho).discord == pytest.approx(0.002499991486, abs=1e-12)
    _assert_near_spectrum(rho[None], 1e-15, 1e-15)
    # 100 tilts from 0.01 to 1 degree at 12 azimuths
    _assert_near_spectrum(np.array([_near_pole(tilt, azimuth)
                                    for tilt in np.linspace(0.01, 1.0, 100)
                                    for azimuth in range(0, 360, 30)]), 1e-15, 1e-15)


@pytest.mark.parametrize("ratio", [0.1, 0.01, 0.003, 0.001, 1e-4, 1e-5, 1e-6, 1e-8])
def test_search_walks_flat_valleys(ratio):
    # g's top two eigenvalues nearly tie, so the top eigenvector is ill
    # conditioned, but the objective is as flat along the valley it turns in
    _assert_near_spectrum(_flat_valley(np.random.default_rng(11), ratio, 100), 1e-15, 1e-15)


def test_search_does_not_stop_on_the_saddle():
    # K = T T^T has eigenvalues 0.01, 0.09 - 8e-8 and 0.09, so the objective
    # at the middle eigenvector, a saddle, is (l1 - l2)/4 = 2e-8 above the
    # minimum, where a search that climbs in small steps can stall
    t = np.array([[-0.00447033872735016, -0.04393524476326833, -0.11123517665663608],
                  [0.17325186811406368, 0.20655673591115792, -0.1305001234841522],
                  [0.18567970001086376, -0.21202409248689297, -0.08082711078433243]])
    rho = _from_correlations(t)
    assert geometric_discord_numeric(rho).discord == pytest.approx(0.02499998, abs=1e-15)
    _assert_near_spectrum(rho[None], 1e-15, 1e-15)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.data())
def test_search_meets_the_spectrum_on_general_densities(rank, data):
    # B B^dagger / Tr for a 4 x rank complex B: pure, rank 2 and full rank
    parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=8 * rank, max_size=8 * rank))
    factor = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(4, rank)
    rho = factor @ factor.conj().T
    assume(np.trace(rho).real > 1e-3)
    rho /= np.trace(rho).real
    _assert_near_spectrum(0.5 * (rho + rho.conj().T)[None], 1e-14)


def _singlet() -> np.ndarray:
    """|singlet><singlet|, (|01> - |10>)/sqrt(2)."""
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    return singlet


def _isotropic() -> list:
    """I/4 and the Werner states w |singlet><singlet| + (1 - w) I/4, w = 0.1, 0.5,
    0.9: their objective is the same at every axis."""
    return [np.eye(4, dtype=complex) / 4.0] + [
        w * _singlet() + (1.0 - w) * np.eye(4) / 4.0 for w in (0.1, 0.5, 0.9)]


def _classical_quantum(axis, rng) -> np.ndarray:
    """sum_+- w_+- P_+- (x) sigma_+-, P_+- = (1 +- axis.sigma)/2: zero discord,
    reached at that axis."""
    direction = sum(c * s for c, s in zip(axis, PAULIS))
    halves = [0.5 * (EYE + direction), 0.5 * (EYE - direction)]
    states = [random_density(rng, dim=2) for _ in halves]
    return 0.6 * np.kron(halves[0], states[0]) + 0.4 * np.kron(halves[1], states[1])


def _planar(t) -> np.ndarray:
    """(1 (x) 1 + t (sigma_x (x) sigma_x + sigma_y (x) sigma_y))/4: g's top
    eigenvalue is twofold, every axis of the xy plane an optimum."""
    return _from_correlations(np.diag([t, t, 0.0]))


def test_search_is_bitwise_across_blocks_and_on_ties(monkeypatch, rng):
    # blocks of 5 cut a 13-density stack after its 5th and 10th members;
    # I/4, the singlet and the Werner states have a threefold top eigenvalue
    # of g, the planar state a twofold one, where eigh's pick within the tie
    # must not move the value
    monkeypatch.setattr(catcorr.oracle, "_SEARCH_BLOCK", 5)
    tied = np.array(_isotropic() + [_singlet(), _planar(0.4)])
    inputs = _search_inputs(rng)
    stack = np.concatenate([inputs[:3], tied, inputs[3:7]])
    assert len(stack) == 13
    for ordered in (stack, stack[::-1], swap_qubits(stack)):
        found = discord_by_measurement_search(ordered)
        assert found.tolist() == [discord_by_measurement_search(rho) for rho in ordered]
    _assert_near_spectrum(tied, 1e-15, 1e-15)
    assert discord_by_measurement_search(tied).tolist() == discord_by_measurement_search(tied).tolist()
    assert discord_by_measurement_search(tied[0]) == 0.0


def test_objective_is_half_the_purity_less_the_form_of_g(rng):
    # on a unit axis S^2 = 1, so Tr[(rho - chi)^2] = (Tr rho^2 - e^T g e)/2 with
    # g_ab = Re Tr[rho O_a rho O_b], the form whose top eigenvector the search
    # takes; no axis reads below the search's value
    axes = _fibonacci_sphere(512)
    stack = np.array([random_density(rng) for _ in range(8)] + _isotropic() + [_planar(0.4)])
    for measured in (stack, swap_qubits(stack)):
        products = _sandwiches_by_products(measured).view(complex).reshape(-1, 3, 3, 4, 4)
        g = np.einsum("mij,mabji->mab", measured, products).real
        purity = np.einsum("mij,mji->m", measured, measured).real
        form = np.einsum("na,mab,nb->mn", axes, g, axes)
        values = _distances(measured, _sandwiches(measured), axes)
        assert np.max(np.abs((purity[:, None] - form) / 2.0 - values)) < 1e-15
        found = discord_by_measurement_search(measured)
        assert np.all(found[:, None] <= values + 1e-15)


def test_search_is_zero_on_classical_quantum_states(rng):
    # a state classical on the measured qubit along any axis, near the poles
    # and the equator, has zero discord there
    axes = np.vstack([_fibonacci_sphere(64), np.eye(3)])
    rhos = np.array([_classical_quantum(axis, rng) for axis in axes])
    assert np.max(np.abs(discord_by_measurement_search(rhos))) < 1e-15


def test_gram_route_of_a_grid_spec_is_bitwise_each_point(rng):
    for parity in Parity:
        for n in range(2, 7):
            ps = rng.uniform(0.0, 1.0, size=(n, 9))
            ps[:, :3] = 1.0 - rng.choice([1e-12, 1e-9, 1e-6], size=(n, 3))
            grid = SuperpositionSpec(overlaps=tuple(ps), parity=parity)
            for i, j in ((1, n), (n, 1)):
                stack = pair_density_from_overlaps(grid, i, j)
                singles = [pair_density_from_overlaps(SuperpositionSpec(tuple(col), parity), i, j)
                           for col in ps.T.tolist()]
                assert stack.shape == (9, 4, 4)
                assert all(np.array_equal(a, b) for a, b in zip(stack, singles))


def test_index_array_pairs_are_bitwise_each_point(rng):
    # points of n = 2..width modes padded by unit overlaps to the grid's width,
    # overlaps down to 1 - 1e-12, either member measured: the pair inputs and
    # the Gram density at (m,) index arrays are each point's scalar calls
    for parity in Parity:
        for width in range(2, 7):
            sizes = rng.integers(2, width + 1, size=40)
            sizes[0] = width
            ps = rng.uniform(0.0, 1.0, size=(40, width))
            near = rng.uniform(size=ps.shape) < 0.3
            ps[near] = 1.0 - rng.choice([1e-12, 1e-9, 1e-6], size=near.sum())
            ps[np.arange(width) >= sizes[:, None]] = 1.0
            picks = [rng.choice(n, size=2, replace=False) + 1 for n in sizes]
            a, b = np.array(picks).T
            grid = SuperpositionSpec(tuple(ps.T), parity)
            pair, stack = grid.pair(a, b), pair_density_from_overlaps(grid, a, b)
            assert (pair.sign, pair.traced) == (parity.sign, width > 2)
            for k, (row, n) in enumerate(zip(ps, sizes)):
                spec = SuperpositionSpec(tuple(row[:n].tolist()), parity)
                i, j = int(a[k]), int(b[k])
                one = spec.pair(i, j)
                assert all(getattr(pair, name)[k] == x for name, x in vars(one).items()
                           if name not in ("sign", "traced")), (parity, width, k)
                assert np.array_equal(stack[k], pair_density_from_overlaps(spec, i, j))
            for bad, message in (((a, a), "must differ"), ((a, b + width), "must lie in")):
                with pytest.raises(DomainError, match=message):
                    grid.pair(*bad)
                with pytest.raises(DomainError, match=message):
                    pair_density_from_overlaps(grid, *bad)


def _sandwiches_by_products(rho):
    """The sandwich tables as matrix products, literally: O_a rho O_b for each
    density of an (m, 4, 4) stack, (m, 9, 32) real."""
    ops = catcorr.states.PAULI_PRODUCTS[1:, 0]
    products = ops[:, None] @ rho[:, None, None] @ ops
    return products.reshape(len(rho), 9, 16).view(np.float64)


def test_sandwich_gather_is_bitwise_the_matrix_products(rng):
    # every float moved and sign-flipped as the products move it, the sign of
    # each zero included, into C-contiguous tables, which the gemm of the
    # screen then rounds as it rounds the products' own tables
    stacks = [np.array(_search_inputs(rng)), np.array([random_density(rng) for _ in range(20)])]
    stacks.append(swap_qubits(stacks[0]).copy())
    for stack in stacks:
        stack = np.ascontiguousarray(stack)
        tables, expected = _sandwiches(stack), _sandwiches_by_products(stack)
        assert tables.flags.c_contiguous and tables.shape == expected.shape
        assert np.array_equal(tables.view(np.uint64), expected.view(np.uint64))


def test_search_stack_rejects_its_first_bad_member():
    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    negative = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    skew = good.copy()
    skew[0, 1] = 0.1
    for bad in (negative, skew):
        with pytest.raises(InvalidDensityError) as single:
            check_density(bad)
        with pytest.raises(InvalidDensityError) as stacked:
            discord_by_measurement_search(np.array([good, bad, good, negative]))
        assert str(stacked.value) == str(single.value)
