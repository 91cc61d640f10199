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
    _COARSE_AXES,
    _COARSE_COEFFICIENTS,
    _coarse_seeds,
    _distances,
    _sandwiches,
    discord_by_measurement_search,
    fibonacci_sphere,
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


def _objective(rho, axes) -> np.ndarray:
    """The search objective of one density at each of (n, 3) axes."""
    stack = np.asarray(rho, dtype=complex)[None]
    return _distances(stack, _sandwiches(stack), np.asarray(axes, dtype=float))[0]


def test_objective_equals_projector_sum_at_fixed_axes():
    # the objective agrees with the explicit projector sum, on either qubit
    rho = reduced_pair_density(SuperpositionSpec(overlaps=(0.5, 0.7, 0.3),
                                                 parity=Parity.ODD).pair(1, 3))
    tilted = (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
    axes = np.vstack([fibonacci_sphere(8), np.eye(3), [tilted]])
    # the swapped density's first qubit is the second qubit of rho
    for first, measured in ((True, rho), (False, swap_qubits(rho))):
        expected = [_distance_by_projectors(rho, axis, first) for axis in axes]
        assert np.max(np.abs(_objective(measured, axes) - expected)) < 1e-14


def test_objective_equals_projector_sum_on_random_states(rng):
    # (rho + S rho S)/2 is the projector sum; checked on generic complex states
    axes = fibonacci_sphere(512)
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
        assert np.all(_objective(measured, fibonacci_sphere(32)) >= 0.0)


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
        t = _rotation(rng) @ np.diag([t1, t2, t3]) @ _rotation(rng)
        rho = (np.eye(4) + sum(t[a, b] * np.kron(PAULIS[a], PAULIS[b])
                               for a in range(3) for b in range(3))) / 4.0
        if np.linalg.eigvalsh(rho).min() >= 0.0:
            rhos.append(rho.astype(complex))
    return np.array(rhos)


def _search_by_loop(rho, cap) -> float:
    """The tangent-plane grid search one density and one grid point at a
    time, in Python floats, on the same frames and quotient: the reference
    for the lockstep search's walk, shrink, turn and stop rules."""
    oracle = catcorr.oracle
    stack = rho[None]
    tables = _sandwiches(stack)
    seeds, g = _coarse_seeds(stack, tables)
    g = g.reshape(1, 3, 3)
    frame = oracle._COARSE_FRAMES[seeds]
    reach = oracle._GRID_REACH
    offsets = [(i, j) for i in range(-reach, reach + 1) for j in range(-reach, reach + 1)]
    a = b = da = db = 0.0
    p00, p01, p02, p11, p12, p22 = oracle._plane_terms(frame, g)[:, 0].tolist()
    level, step = p00, oracle._GRID_START
    for _ in range(cap):
        grid = [((a + da) + step * i, (b + db) + step * j) for i, j in offsets]
        values = [((p01 + x * p11 + y * p12) * x + (p02 + y * p22) * y + p00)
                  / (1.0 + x * x + y * y) for x, y in grid]
        pick = max(range(len(values)), key=values.__getitem__)  # the first maximum
        moved = values[pick] - level > oracle._GRID_GAIN
        walking = da != 0.0 or db != 0.0
        walked = moved and (max(map(abs, offsets[pick])) == reach or walking)
        da, db = (2.0 * (grid[pick][0] - a), 2.0 * (grid[pick][1] - b)) if walked else (0.0, 0.0)
        if moved:
            (a, b), level = grid[pick], values[pick]
        if not (walked or (walking and not moved)):
            step /= oracle._GRID_SHRINK
        if walked and a * a + b * b > 1.0:
            s, u, v = frame[0]
            w = s + a * u + b * v
            frame = oracle._frames(w[None] / math.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2]))
            p00, p01, p02, p11, p12, p22 = oracle._plane_terms(frame, g)[:, 0].tolist()
            level, a, b, da, db = p00, 0.0, 0.0, 0.0, 0.0
        if step < oracle._GRID_STOP:
            break
    s, u, v = frame[0]
    w = s + a * u + b * v
    axis = w / math.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    return float(_distances(stack, tables, axis[None, None])[0, 0])


@pytest.mark.parametrize("cap", [400, 20, 4])
def test_lockstep_search_follows_the_one_density_loop(monkeypatch, rng, cap):
    # same frames, grid, walk, shrink and turn rules and stop as the loop,
    # in blocks of any size; flat-valley densities walk, the flattest turn
    # their planes, and a lowered pass cap makes searches end on it, which
    # the default cap does not
    monkeypatch.setattr(catcorr.oracle, "_GRID_PASSES", cap)
    monkeypatch.setattr(catcorr.oracle, "_SEARCH_BLOCK", 5)
    frames, turned = catcorr.oracle._frames, []
    monkeypatch.setattr(catcorr.oracle, "_frames", lambda axes: turned.append(len(axes)) or frames(axes))
    rhos = np.array(_search_inputs(rng)[:9] + [_near_pole(0.21, 240.0)]
                    + list(_flat_valley(rng, 1e-3, 3))
                    + list(_flat_valley(np.random.default_rng(2), 1e-5, 4)) + _isotropic())
    turns = 0
    for stack in (rhos, swap_qubits(rhos)):
        expected = [_search_by_loop(rho, cap) for rho in stack]
        turned.clear()
        assert discord_by_measurement_search(stack).tolist() == expected
        turns += sum(turned)
    assert turns or cap < 400


def _assert_near_spectrum(rhos, above):
    """The search within `above` over the K route, and at most 1e-14 under it:
    it minimizes over axes, so the route's minimum bounds it from below."""
    gap = discord_by_measurement_search(rhos) - geometric_discord_numeric(rhos).discord
    assert np.max(gap) <= above and np.min(gap) >= -1e-14, (np.max(gap), np.min(gap))


def test_search_finds_an_optimum_near_the_pole():
    # the optimal axis lies 0.21 degrees off z, where a step in azimuth
    # turns an axis by step * sin(0.21 degrees) only
    rho = _near_pole(0.21, 240.0)
    assert geometric_discord_numeric(rho).discord == pytest.approx(0.002499991486, abs=1e-12)
    _assert_near_spectrum(rho[None], 1e-12)
    # 100 tilts from 0.01 to 1 degree at 12 azimuths
    _assert_near_spectrum(np.array([_near_pole(tilt, azimuth)
                                    for tilt in np.linspace(0.01, 1.0, 100)
                                    for azimuth in range(0, 360, 30)]), 1e-12)


@pytest.mark.parametrize("ratio", [0.1, 0.01, 0.003, 0.001, 1e-4, 1e-5])
def test_search_walks_flat_valleys(ratio):
    # the optimum can lie far along the valley from the seed, and each step
    # toward it gains little
    _assert_near_spectrum(_flat_valley(np.random.default_rng(11), ratio, 100), 1e-9)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.data())
def test_search_meets_the_spectrum_on_general_densities(rank, data):
    # B B^dagger / Tr for a 4 x rank complex B: pure, rank 2 and full rank
    parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=8 * rank, max_size=8 * rank))
    factor = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(4, rank)
    rho = factor @ factor.conj().T
    assume(np.trace(rho).real > 1e-3)
    rho /= np.trace(rho).real
    _assert_near_spectrum(0.5 * (rho + rho.conj().T)[None], 1e-9)


def _isotropic() -> list:
    """I/4 and the Werner states w |singlet><singlet| + (1 - w) I/4, w = 0.1, 0.5,
    0.9: their objective is the same at every axis."""
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    return [np.eye(4, dtype=complex) / 4.0] + [
        w * singlet + (1.0 - w) * np.eye(4) / 4.0 for w in (0.1, 0.5, 0.9)]


def _classical_quantum(axis, rng) -> np.ndarray:
    """sum_+- w_+- P_+- (x) sigma_+-, P_+- = (1 +- axis.sigma)/2: zero discord,
    reached at that axis."""
    direction = sum(c * s for c, s in zip(axis, PAULIS))
    halves = [0.5 * (EYE + direction), 0.5 * (EYE - direction)]
    states = [random_density(rng, dim=2) for _ in halves]
    return 0.6 * np.kron(halves[0], states[0]) + 0.4 * np.kron(halves[1], states[1])


def test_seed_is_the_screens_first_argmax(rng):
    # the seed is the first coarse axis of highest e^T (g - g_xx 1) e, g_ab =
    # Re Tr[rho T_ab], the same in stacks of one, two and more than a search
    # block, and lies within rounding of the full scan's minimum of the objective
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    ket /= np.linalg.norm(ket)
    zero_at = [_classical_quantum(_COARSE_AXES[k], rng) for k in (0, 37, 300, 511)]
    extra = np.array(_isotropic() + zero_at + [np.outer(ket, ket.conj())])
    inputs = np.concatenate([_search_inputs(rng), _search_inputs(rng), extra])
    assert len(inputs) > 65
    for stack in (inputs, swap_qubits(inputs)):
        seeds, g = _coarse_seeds(stack, _sandwiches(stack))
        literal = np.einsum("mij,mabji->mab", stack, _sandwiches_by_products(stack).view(complex)
                            .reshape(-1, 3, 3, 4, 4)).real.reshape(-1, 9)
        assert np.max(np.abs(g - literal)) < 1e-15
        level = g - g[:, :1] * np.eye(3).reshape(1, 9)
        screen = (level[:, None] @ _COARSE_COEFFICIENTS.T)[:, 0]
        top = screen == screen.max(axis=1, keepdims=True)
        assert seeds.tolist() == top.argmax(axis=1).tolist()
        for size in (1, 2, 65):
            for first in range(0, len(stack), size):
                part = stack[first:first + size]
                assert _coarse_seeds(part, _sandwiches(part))[0].tolist() == (
                    seeds[first:first + size].tolist())
        values = _distances(stack, _sandwiches(stack), _COARSE_AXES)
        at_seed = values[np.arange(len(stack)), seeds]
        assert np.max(at_seed - values.min(axis=1)) < 1e-15
    # every axis ties on I/4, where g = I/4, and a classical-quantum state is
    # zero at its axis
    seeds, g = _coarse_seeds(extra, _sandwiches(extra))
    assert g[0].tolist() == [0.25, 0, 0, 0, 0.25, 0, 0, 0, 0.25]
    assert seeds[0] == 0
    assert seeds[4:8].tolist() == [0, 37, 300, 511]
    assert np.all(np.abs(_distances(extra[4:8], _sandwiches(extra[4:8]),
                                    _COARSE_AXES[seeds[4:8], None])) < 1e-15)


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
