import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catcorr.correlations import (
    Branch,
    branch_and_discord,
    concurrence_mixed,
    geometric_discord_numeric,
    k_matrix,
    k_spectrum_discord,
    mixed_discord_closed,
    pair_k_spectrum,
    werner_limit_discord,
    werner_limit_k_eigenvalues,
)
from catcorr.dephasing import apply_dephasing, discord_trajectory
from catcorr.errors import DomainError, InvalidDensityError
from catcorr.oracle import discord_by_measurement_search
from catcorr.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Parity,
    SuperpositionSpec,
    bloch_decompose,
    check_density,
    reduced_pair_density,
)
from conftest import haar_qubit, pure_cut, random_density, random_pair, random_spec, swap_qubits

overlap_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# --- pure splits -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(overlap_floats, min_size=2, max_size=8),
       st.sampled_from([Parity.EVEN, Parity.ODD]),
       st.integers(min_value=1, max_value=7),
       )
def test_pure_discord_is_half_squared_concurrence(ps, parity, k_raw):
    if parity is Parity.ODD and math.prod(ps) > 1.0 - 1e-12:
        ps = [min(p, 0.999) for p in ps]
    spec = SuperpositionSpec(overlaps=tuple(ps), parity=parity)
    k = 1 + k_raw % (spec.n - 1)
    report = mixed_discord_closed(pure_cut(spec, k))
    assert abs(report.discord - 0.5 * report.concurrence ** 2) < 1e-14
    assert report.branch is Branch.PURE


def test_pure_frozen_values_two_modes():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.EVEN)
    report = mixed_discord_closed(pure_cut(spec, 1))
    assert abs(report.concurrence - 0.6) < 1e-15
    assert abs(report.discord - 0.18) < 1e-15
    # maximal entanglement at orthogonal branches
    zero = SuperpositionSpec(overlaps=(0.0, 0.0), parity=Parity.EVEN)
    top = mixed_discord_closed(pure_cut(zero, 1))
    assert top.discord == 0.5
    assert abs(top.concurrence - 1.0) < 1e-14


def test_pure_odd_two_modes_constant_half():
    for p in np.linspace(0.0, 1.0 - 1e-6, 41):
        spec = SuperpositionSpec(overlaps=(p, p), parity=Parity.ODD)
        report = mixed_discord_closed(pure_cut(spec, 1))
        assert abs(report.discord - 0.5) < 1e-9
        assert abs(report.concurrence - 1.0) < 1e-9


def test_pure_closed_matches_numeric_k_route(rng):
    for _ in range(50):
        spec = random_spec(rng, n_max=7)
        k = int(rng.integers(1, spec.n))
        closed = mixed_discord_closed(pure_cut(spec, k))
        numeric = geometric_discord_numeric(reduced_pair_density(pure_cut(spec, k)))
        assert abs(closed.discord - numeric.discord) < 1e-12
        assert abs(closed.concurrence - numeric.concurrence) < 1e-12


def test_pure_k_spectrum_is_that_of_the_numeric_route():
    # K = x x^T + R R^T of a pure split has z eigenvalue 2 - C^2 and planar
    # pair C^2, C^2; the numeric route's descending spectrum reads the same
    printed = {Parity.EVEN: "1.43654337", Parity.ODD: "1.08729339"}
    for parity in Parity:
        spec = SuperpositionSpec(overlaps=(0.5, 0.4, 0.6), parity=parity)
        closed = mixed_discord_closed(pure_cut(spec, 1))
        numeric = geometric_discord_numeric(reduced_pair_density(pure_cut(spec, 1)))
        assert f"{closed.k_eigenvalues[0]:.9g}" == printed[parity]
        assert np.max(np.abs(np.array(closed.k_eigenvalues) - numeric.k_eigenvalues)) < 1e-12
        p = np.linspace(0.0, 0.99, 41)
        grid = SuperpositionSpec(overlaps=(p, p[::-1], np.full(p.size, 0.6), p), parity=parity)
        for k in (1, 2, 3):
            closed = mixed_discord_closed(pure_cut(grid, k))
            numeric = geometric_discord_numeric(reduced_pair_density(pure_cut(grid, k)))
            lams = np.column_stack(np.broadcast_arrays(*closed.k_eigenvalues))
            assert np.max(np.abs(lams - numeric.k_eigenvalues)) < 1e-12


def test_concurrence_pure_equals_mixed_route_on_projector():
    spec = SuperpositionSpec(overlaps=(0.3, 0.8, 0.6), parity=Parity.ODD)
    c_pure = mixed_discord_closed(pure_cut(spec, 2)).concurrence
    c_mixed = concurrence_mixed(reduced_pair_density(pure_cut(spec, 2)))
    assert abs(c_pure - c_mixed) < 1e-12


# --- mixed pairs -----------------------------------------------------------

def test_mixed_frozen_even_three_modes():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.EVEN)
    lam1, lam2, lam3 = pair_k_spectrum(spec.pair(1, 2))
    assert abs(lam1 - 8.0 / 9.0) < 1e-15
    assert abs(lam2 - 4.0 / 9.0) < 1e-15
    assert abs(lam3 - 1.0 / 9.0) < 1e-15
    report = mixed_discord_closed(spec.pair(1, 2))
    assert report.branch is Branch.MIXED_PLUS
    assert abs(report.discord - 5.0 / 36.0) < 1e-15
    assert abs(report.concurrence - 1.0 / 3.0) < 1e-15


def test_mixed_frozen_odd_three_modes():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.ODD)
    lam1, lam2, lam3 = pair_k_spectrum(spec.pair(1, 2))
    assert abs(lam1 - 0.16326530612244897) < 1e-15
    assert abs(lam2 - 0.7346938775510204) < 1e-15
    assert abs(lam3 - 0.18367346938775511) < 1e-15
    report = mixed_discord_closed(spec.pair(1, 2))
    assert report.branch is Branch.MIXED_MINUS
    assert abs(report.discord - 0.08673469387755102) < 1e-15


def test_branch_rule_tie_goes_to_plus():
    branch, discord = branch_and_discord(0.5, 0.5, 0.2)
    assert branch is Branch.MIXED_PLUS
    assert discord == 0.25 * 0.7
    branch, _ = branch_and_discord(0.4, 0.5, 0.2)
    assert branch is Branch.MIXED_MINUS
    # arrays take the same rule point by point, branches as their values
    branch, discord = branch_and_discord(np.array([0.5, 0.4]), np.array([0.5, 0.5]), 0.2)
    assert branch.tolist() == ["mixed_plus", "mixed_minus"]
    assert discord.tolist() == [0.25 * 0.7, 0.25 * (0.4 + 0.2)]


def test_grid_routes_equal_single_state_routes():
    # closed reports and the K-spectrum discord over a grid spec and a density
    # stack are those of each point, bit for bit; only arrays are new. The
    # grid is dense because float and array arithmetic part in rare last bits.
    p = np.linspace(0.0, 0.999, 1500)
    for parity in Parity:
        grid = SuperpositionSpec(overlaps=(p, p[::-1], np.full(p.size, 0.6), p), parity=parity)
        pure = mixed_discord_closed(pure_cut(grid, 1))
        for groups in ((2, 4), (4, 2)):
            closed = mixed_discord_closed(grid.pair(*groups))
            numeric = k_spectrum_discord(reduced_pair_density(grid.pair(*groups)))
            for k in range(p.size):
                spec = SuperpositionSpec(overlaps=tuple(float(o[k]) for o in grid.overlaps),
                                         parity=parity)
                one = mixed_discord_closed(spec.pair(*groups))
                assert (closed.discord[k], closed.concurrence[k], closed.branch[k]) == (
                    one.discord, one.concurrence, one.branch.value)
                assert tuple(lam[k] for lam in closed.k_eigenvalues) == one.k_eigenvalues
                split = mixed_discord_closed(pure_cut(spec, 1))
                assert (pure.discord[k], pure.concurrence[k]) == (split.discord, split.concurrence)
                if k % 50 == 0:
                    assert numeric[k] == geometric_discord_numeric(
                        reduced_pair_density(spec.pair(*groups))).discord


def test_mixed_closed_matches_numeric_both_sides(rng):
    for _ in range(60):
        spec = random_spec(rng, n_min=2, n_max=7)
        i, j = random_pair(rng, spec.n)
        rho = reduced_pair_density(spec.pair(i, j))
        # measuring mode j: the pair (j, i), the second qubit of rho
        for pair, measured in ((spec.pair(i, j), rho), (spec.pair(j, i), swap_qubits(rho))):
            closed = mixed_discord_closed(pair)
            numeric = geometric_discord_numeric(measured)
            assert abs(closed.discord - numeric.discord) < 1e-12
            # the numeric report carries K's spectrum in descending order
            lams = numeric.k_eigenvalues
            assert lams[0] >= lams[1] >= lams[2]
            expected = np.linalg.eigvalsh(k_matrix(bloch_decompose(measured)))[::-1]
            assert np.max(np.abs(lams - expected)) < 1e-12
            assert abs(closed.concurrence - numeric.concurrence) < 1e-12


def test_measurement_side_matters_for_unequal_overlaps():
    # zz vanishes here (p1 p2 = q, odd), so lam1 is pure z_local^2 and
    # straddles lam2 depending on the side: plus branch measured on mode 1,
    # minus branch on mode 2, the first group of the pair (2, 1)
    spec = SuperpositionSpec(overlaps=(0.8, 0.5, 0.4), parity=Parity.ODD)
    first = mixed_discord_closed(spec.pair(1, 2))
    second = mixed_discord_closed(spec.pair(2, 1))
    assert first.branch is Branch.MIXED_PLUS
    assert second.branch is Branch.MIXED_MINUS
    assert abs(first.discord - second.discord) > 1e-2
    # the side only ever selects lam1; the planar pair is shared
    lam_f = pair_k_spectrum(spec.pair(1, 2))
    lam_s = pair_k_spectrum(spec.pair(2, 1))
    assert abs(lam_f[0] - lam_s[0]) > 1e-3
    assert lam_f[1] == lam_s[1] and lam_f[2] == lam_s[2]
    # equal overlaps make the two sides agree
    eq = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.ODD)
    assert abs(mixed_discord_closed(eq.pair(1, 2)).discord
               - mixed_discord_closed(eq.pair(2, 1)).discord) < 1e-15


def test_swapping_pair_indices_swaps_sides():
    # the density of the pair (2, 1) is that of (1, 2) with its qubits swapped
    spec = SuperpositionSpec(overlaps=(0.9, 0.2, 0.6), parity=Parity.EVEN)
    rho = reduced_pair_density(spec.pair(1, 2))
    assert np.max(np.abs(reduced_pair_density(spec.pair(2, 1)) - swap_qubits(rho))) < 1e-16
    a = mixed_discord_closed(spec.pair(1, 2))
    b = k_spectrum_discord(swap_qubits(reduced_pair_density(spec.pair(2, 1))))
    assert abs(a.discord - b) < 1e-15


def test_branch_switch_location_three_modes_even():
    # the z eigenvalue overtakes the planar one exactly at sqrt(2) - 1
    root = math.sqrt(2.0) - 1.0
    spec_lo = SuperpositionSpec(overlaps=(root - 1e-6,) * 3, parity=Parity.EVEN)
    spec_hi = SuperpositionSpec(overlaps=(root + 1e-6,) * 3, parity=Parity.EVEN)
    assert mixed_discord_closed(spec_lo.pair(1, 2)).branch is Branch.MIXED_MINUS
    assert mixed_discord_closed(spec_hi.pair(1, 2)).branch is Branch.MIXED_PLUS


def test_discord_bounded_by_half(rng):
    for _ in range(100):
        spec = random_spec(rng)
        i, j = random_pair(rng, spec.n)
        report = mixed_discord_closed(spec.pair(i, j))
        assert -1e-15 <= report.discord <= 0.5 + 1e-12


def test_werner_limit_values():
    assert werner_limit_discord(2) == 0.5
    assert abs(werner_limit_discord(5) - 0.08) < 1e-15
    with pytest.raises(Exception):
        werner_limit_discord(1)
    with pytest.raises(DomainError, match="the limit needs at least two modes"):
        werner_limit_k_eigenvalues(1)
    lam1, lam2, lam3 = werner_limit_k_eigenvalues(4)
    assert lam2 == lam3 == 0.25
    assert abs(lam1 - 0.25) < 1e-15


def test_mixed_discord_approaches_werner_limit():
    # closed-form discord at p -> 1 against the limiting spectrum;
    # n = 3 is the documented exception where the z eigenvalue dips
    # below the planar pair and the true limit is 1/6
    p = 1.0 - 1e-7
    for n in (2, 4, 5, 6, 7, 8, 9, 10):
        spec = SuperpositionSpec(overlaps=(p,) * n, parity=Parity.ODD)
        value = mixed_discord_closed(spec.pair(1, 2)).discord
        assert abs(value - werner_limit_discord(n)) < 1e-5, n
    spec3 = SuperpositionSpec(overlaps=(p,) * 3, parity=Parity.ODD)
    assert abs(mixed_discord_closed(spec3.pair(1, 2)).discord - 1.0 / 6.0) < 1e-5


def test_werner_limit_three_modes_is_exactly_one_sixth():
    # The paper's 2/n^2 limit fails at n = 3 (acceptance criterion 3
    # records that); pin the true value with exact rationals.
    sympy = pytest.importorskip("sympy")
    n = sympy.Integer(3)
    lam1 = (1 - sympy.Rational(4) / n) ** 2 + (1 - sympy.Rational(2) / n) ** 2
    lam2 = lam3 = sympy.Rational(4) / (n * n)
    floats = werner_limit_k_eigenvalues(3)
    for exact, value in zip((lam1, lam2, lam3), floats):
        assert abs(float(exact) - value) < 1e-15
    branch, _ = branch_and_discord(lam1, lam2, lam3)
    assert branch is Branch.MIXED_MINUS
    exact_discord = sympy.Rational(1, 4) * (lam1 + lam3)
    assert exact_discord == sympy.Rational(1, 6)
    assert branch_and_discord(*floats) == (Branch.MIXED_MINUS, pytest.approx(1.0 / 6.0, abs=1e-15))
    spec = SuperpositionSpec(overlaps=(1.0 - 1e-6,) * 3, parity=Parity.ODD)
    near = mixed_discord_closed(spec.pair(1, 2))
    assert near.branch is Branch.MIXED_MINUS
    assert abs(near.discord - float(exact_discord)) < 1e-4


def test_werner_limit_spectrum_matches_closed_form_near_one():
    p = 1.0 - 1e-8
    for n in (2, 3, 4, 6, 9):
        spec = SuperpositionSpec(overlaps=(p,) * n, parity=Parity.ODD)
        closed = pair_k_spectrum(spec.pair(1, 2))
        limit = werner_limit_k_eigenvalues(n)
        assert max(abs(a - b) for a, b in zip(closed, limit)) < 1e-6


# --- concurrence (spin flip) ----------------------------------------------

def test_concurrence_mixed_agrees_with_nonhermitian_route(rng):
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    for _ in range(50):
        rho = random_density(rng)
        tilde = flip @ rho.conj() @ flip
        lams = np.linalg.eigvals(rho @ tilde)
        c = np.sqrt(np.clip(np.sort(lams.real)[::-1], 0.0, None))
        expected = max(0.0, c[0] - c[1] - c[2] - c[3])
        assert abs(concurrence_mixed(rho) - expected) < 1e-9


def _psd_root(rho):
    values, vecs = np.linalg.eigh(rho)
    return (vecs * np.sqrt(np.clip(values, 0.0, None))) @ vecs.conj().T


def test_concurrence_mixed_agrees_with_singular_value_route(rng):
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    for _ in range(50):
        rho = random_density(rng)
        root = _psd_root(rho)
        svals = np.linalg.svd(root @ flip @ root.T, compute_uv=False)
        expected = max(0.0, svals[0] - svals[1] - svals[2] - svals[3])
        assert abs(concurrence_mixed(rho) - expected) < 1e-9


def test_concurrence_known_states():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[3, 3] = bell[0, 3] = bell[3, 0] = 0.5
    assert abs(concurrence_mixed(bell) - 1.0) < 1e-12
    assert concurrence_mixed(np.eye(4) / 4.0) == 0.0
    product = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert concurrence_mixed(product) == 0.0


def _singlet():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return np.outer(psi, psi).astype(complex)


def test_concurrence_mixed_werner_family():
    # F |psi-><psi-| + (1 - F)(I - |psi-><psi-|)/3 has C = max(0, 2F - 1);
    # F = 1 is rank 1, where the spin-flip spectrum is three zeros
    singlet = _singlet()
    for f in np.linspace(0.0, 1.0, 41).tolist():
        rho = f * singlet + (1.0 - f) * (np.eye(4) - singlet) / 3.0
        assert abs(concurrence_mixed(rho) - max(0.0, 2.0 * f - 1.0)) < 1e-12, f


def test_concurrence_mixed_matches_pure_state_shortcut(rng):
    for _ in range(200):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        expected = 2.0 * abs(c[0] * c[3] - c[1] * c[2])
        assert abs(concurrence_mixed(np.outer(c, c.conj())) - expected) < 1e-12


def test_concurrence_mixed_invariant_under_local_unitaries(rng):
    for _ in range(50):
        rho = 0.5 * random_density(rng) + 0.5 * _singlet()
        u = np.kron(haar_qubit(rng), haar_qubit(rng))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence_mixed(rotated) - concurrence_mixed(rho)) < 1e-12


def test_concurrence_mixed_tolerates_rounding_negative_eigenvalues():
    # a singlet whose empty block picked up a -1e-14 eigenvalue, inside the
    # density check's positivity tolerance, still gives C = 1, not NaN
    eps = 1e-14
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = rho[0, 3] = rho[3, 0] = 0.5
    rho += np.diag([0.0, -eps, eps, 0.0])
    c = concurrence_mixed(rho)
    assert math.isfinite(c) and abs(c - 1.0) < 1e-12


def test_concurrence_positive_exactly_when_partial_transpose_is_not(rng):
    # Peres-Horodecki: a two-qubit state is entangled iff its partial
    # transpose has a negative eigenvalue
    seen = set()
    for _ in range(200):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        w = rng.uniform()
        rho = w * np.outer(c, c.conj()) + (1.0 - w) * random_density(rng)
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        lowest = np.linalg.eigvalsh(pt)[0]
        conc = concurrence_mixed(rho)
        if abs(lowest) < 1e-9:
            continue
        assert (conc > 0.0) == (lowest < 0.0), (conc, lowest)
        seen.add(lowest < 0.0)
    assert seen == {True, False}


def test_numeric_routes_reject_invalid_densities():
    not_hermitian = np.eye(4, dtype=complex) / 4.0
    not_hermitian[0, 1] = 0.1j
    not_hermitian[1, 0] = 0.1j
    for bad in (not_hermitian, np.zeros((2, 3))):
        for route in (concurrence_mixed, geometric_discord_numeric, k_spectrum_discord):
            with pytest.raises(InvalidDensityError):
                route(bad)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("at", [(0, 0), (3, 3), (0, 1), (1, 2)])
def test_every_route_refuses_a_non_finite_entry(entry, at):
    # on or off the diagonal, alone or as member 3 of a stack whose member 4
    # fails later checks: InvalidDensityError, and no numpy warning or LinAlgError
    good = reduced_pair_density(SuperpositionSpec(overlaps=(0.5, 0.6, 0.7)).pair(1, 2))
    alone = good.copy()
    alone[at] = entry
    stack = np.array([good, good, good, alone, np.diag([0.6, 0.5, -0.05, -0.05])])
    routes = (check_density, geometric_discord_numeric, concurrence_mixed,
              discord_by_measurement_search, lambda rho: apply_dephasing(rho, 0.3))
    for rho in (alone, stack):
        for route in routes:
            with pytest.raises(InvalidDensityError, match="^density has a non-finite entry$"):
                route(rho)


def test_mixed_concurrence_closed_matches_wootters(rng):
    for _ in range(40):
        spec = random_spec(rng, n_min=3, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        closed = mixed_discord_closed(spec.pair(i, j)).concurrence
        direct = concurrence_mixed(reduced_pair_density(spec.pair(i, j)))
        assert abs(closed - direct) < 1e-12


def test_concurrence_mixed_matches_high_precision_closed_form():
    # interior of the n = 3 even (1, 2) sweep: the rank-2 pair densities give
    # the spin-flip spectrum two zero eigenvalues, whose rounding noise cost
    # a square-root route ~1e-8; the factorized route stays at rounding
    mpmath = pytest.importorskip("mpmath")
    p = np.linspace(0.0, 1.0, 2001)[1:-1]
    rhos = reduced_pair_density(SuperpositionSpec(overlaps=(p, p, p), parity=Parity.EVEN).pair(1, 2))
    worst = 0.0
    with mpmath.workdps(50):
        for p_k, rho in zip(p.tolist(), rhos):
            # q = p_3, s_1 = s_2 = sqrt(1 - p^2), P = p^3
            x = mpmath.mpf(p_k)
            exact = x * (1 - x * x) / (1 + x ** 3)
            worst = max(worst, abs(float(concurrence_mixed(rho) - exact)))
    assert worst < 1e-14


def test_closed_discord_of_all_zero_and_all_one_specs_is_exactly_zero():
    for p in (0.0, 1.0):
        spec = SuperpositionSpec(overlaps=(p, p, p), parity=Parity.EVEN)
        assert mixed_discord_closed(spec.pair(1, 2)).discord == 0.0


def test_geometric_discord_numeric_checks_density_once(monkeypatch):
    calls = []

    def counting(rho):
        calls.append(1)
        return check_density(rho)

    for module in ("catcorr.states", "catcorr.correlations"):
        monkeypatch.setattr(f"{module}.check_density", counting)
    rho = reduced_pair_density(SuperpositionSpec(overlaps=(0.5, 0.5, 0.5)).pair(1, 2))
    calls.clear()
    report = geometric_discord_numeric(rho)
    assert len(calls) == 1
    assert abs(report.discord - 5.0 / 36.0) < 1e-12


def test_closed_reports_carry_the_labeled_k_spectrum(rng):
    # labeled (lam1, lam2, lam3), z eigenvalue first, as pair_k_spectrum
    # gives it, also where the minus branch puts lam1 below lam2
    specs = [SuperpositionSpec(overlaps=(0.3, 0.3, 0.3))]
    specs += [random_spec(rng, n_min=3) for _ in range(30)]
    assert pair_k_spectrum(specs[0].pair(1, 2))[0] < pair_k_spectrum(specs[0].pair(1, 2))[1]
    for spec in specs:
        i, j = random_pair(rng, spec.n)
        for pair in (spec.pair(i, j), spec.pair(j, i)):
            expected = pair_k_spectrum(pair)
            assert mixed_discord_closed(pair).k_eigenvalues == expected
            assert discord_trajectory(pair, 0.7, 0.0).k_eigenvalues == expected


def test_k_matrix_side_selection():
    # K of the swapped density measures the second qubit: y y^T + R^T R of rho
    spec = SuperpositionSpec(overlaps=(0.9, 0.2, 0.6), parity=Parity.EVEN)
    rho = reduced_pair_density(spec.pair(1, 2))
    bloch = bloch_decompose(rho)
    k_first = k_matrix(bloch)
    k_second = k_matrix(bloch_decompose(swap_qubits(rho)))
    y, r = bloch.y, bloch.r
    assert np.max(np.abs(k_second - (np.outer(y, y) + r.T @ r))) < 1e-15
    assert np.max(np.abs(k_first - k_first.T)) < 1e-14
    assert np.max(np.abs(k_first - k_second)) > 1e-3
    lam1, lam2, lam3 = pair_k_spectrum(spec.pair(2, 1))
    numeric = np.sort(np.linalg.eigvalsh(k_second))[::-1]
    closed = np.sort(np.array([lam1, lam2, lam3]))[::-1]
    assert np.max(np.abs(numeric - closed)) < 1e-14


# --- numeric K spectrum ----------------------------------------------------

def test_numeric_k_spectrum_matches_eigvalsh_on_random_densities(rng):
    for _ in range(200):
        rho = random_density(rng)
        for measured in (rho, swap_qubits(rho)):
            report = geometric_discord_numeric(measured)
            lams = report.k_eigenvalues
            expected = np.linalg.eigvalsh(k_matrix(bloch_decompose(measured)))[::-1]
            assert lams[0] >= lams[1] >= lams[2]
            assert np.max(np.abs(lams - expected)) < 1e-12
            assert report.discord == 0.25 * (lams[1] + lams[2])


def test_numeric_k_spectrum_of_a_stack_is_each_density_alone(rng):
    stack = np.array([[random_density(rng) for _ in range(2)] for _ in range(5)])
    for measured in (stack, swap_qubits(stack)):
        discord = k_spectrum_discord(measured)
        assert discord.shape == (5, 2)
        for idx in np.ndindex(5, 2):
            assert discord[idx] == geometric_discord_numeric(measured[idx]).discord


def test_numeric_route_on_a_stack_is_bitwise_single_calls(rng):
    rhos = [random_density(rng) for _ in range(30)]
    for _ in range(30):
        spec = random_spec(rng)
        i, j = random_pair(rng, spec.n)
        rhos.append(reduced_pair_density(spec.pair(i, j)))
        rhos.append(reduced_pair_density(pure_cut(spec, 1)))
    stack = np.array(rhos)
    assert concurrence_mixed(stack).tolist() == [concurrence_mixed(rho) for rho in rhos]
    for measured in (stack, swap_qubits(stack)):
        report = geometric_discord_numeric(measured)
        discord = k_spectrum_discord(measured)
        assert report.discord.shape == report.concurrence.shape == (len(rhos),)
        assert report.k_eigenvalues.shape == (len(rhos), 3)
        for k, rho in enumerate(measured):
            one = geometric_discord_numeric(rho)
            assert (report.discord[k], report.concurrence[k]) == (one.discord, one.concurrence)
            assert report.k_eigenvalues[k].tolist() == one.k_eigenvalues.tolist()
            assert discord[k] == k_spectrum_discord(rho) == one.discord


def test_numeric_route_on_a_stack_rejects_its_first_bad_member():
    good = np.eye(4, dtype=complex) / 4.0
    for bad in (np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex), 2.0 * good):
        with pytest.raises(InvalidDensityError) as single:
            check_density(bad)
        with pytest.raises(InvalidDensityError) as stacked:
            geometric_discord_numeric(np.array([good, bad, good]))
        assert str(stacked.value) == str(single.value)


def test_numeric_k_spectrum_descending_and_exact_on_diagonal():
    # x = (0, 0, 1/2) and R = diag(3/8, 1/4, 1/8) make K diagonal with dyadic
    # entries, so its numeric spectrum is exact and comes largest first
    rho = (np.eye(4) + 0.5 * np.kron(SIGMA_Z, np.eye(2)) + 0.375 * np.kron(SIGMA_X, SIGMA_X)
           + 0.25 * np.kron(SIGMA_Y, SIGMA_Y) + 0.125 * np.kron(SIGMA_Z, SIGMA_Z)) / 4.0
    for measured, expected in ((rho, [0.265625, 0.140625, 0.0625]),
                               (swap_qubits(rho), [0.140625, 0.0625, 0.015625])):
        assert geometric_discord_numeric(measured).k_eigenvalues.tolist() == expected


def test_numeric_k_spectrum_handles_degenerate_spectrum():
    # Werner states (I - c sum_a sigma_a x sigma_a) / 4 have K = c^2 I
    singlet_corr = sum(np.kron(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    for c in (0.0, 0.25, 0.5, 1.0 / 3.0):
        rho = (np.eye(4) - c * singlet_corr) / 4.0
        for measured in (rho, swap_qubits(rho)):
            report = geometric_discord_numeric(measured)
            assert np.max(np.abs(report.k_eigenvalues - c * c)) < 1e-15
            assert abs(report.discord - 0.5 * c * c) < 1e-15


# --- mode groups -----------------------------------------------------------

def _kron_all(vectors):
    out = np.ones(1)
    for v in vectors:
        out = np.kron(out, v)
    return out


def _brute_pair_density(overlaps, sign, group_a, group_b):
    """The groups' pair density from the n-mode state vector alone: each mode
    in its own two-dimensional branch span, the other modes traced out, and
    each group mapped onto the plane of its two branch states."""
    n = len(overlaps)
    kets = [np.array([1.0, 0.0]) for _ in overlaps]
    primed = [np.array([p, math.sqrt(1.0 - p * p)]) for p in overlaps]
    psi = _kron_all(kets) + sign * _kron_all(primed)
    psi /= np.linalg.norm(psi)
    kept = [m - 1 for m in group_a + group_b]
    rest = [m for m in range(n) if m not in kept]
    amplitudes = psi.reshape((2,) * n).transpose(kept + rest).reshape(2 ** len(kept), -1)
    rho = amplitudes @ amplitudes.T

    def plane(group):
        # orthonormal sum and difference of the group's two branch states
        w, w_p = _kron_all([kets[m - 1] for m in group]), _kron_all([primed[m - 1] for m in group])
        return np.column_stack([(w + w_p) / np.linalg.norm(w + w_p),
                                (w - w_p) / np.linalg.norm(w - w_p)])

    basis = np.kron(plane(group_a), plane(group_b))
    return basis.T @ rho @ basis


def test_groups_match_the_brute_force_state_vector(rng):
    seen = set()
    for _ in range(120):
        n = int(rng.integers(2, 7))
        overlaps = tuple(rng.uniform(0.05, 0.95, size=n).tolist())
        order = [int(m) + 1 for m in rng.permutation(n)]
        size_a = int(rng.integers(1, n))
        size_b = int(rng.integers(1, n - size_a + 1))
        group_a, group_b = tuple(order[:size_a]), tuple(order[size_a:size_a + size_b])
        for parity in Parity:
            brute = _brute_pair_density(overlaps, parity.sign, group_a, group_b)
            spec = SuperpositionSpec(overlaps=overlaps, parity=parity)
            pair = spec.pair(group_a, group_b)
            assert np.max(np.abs(reduced_pair_density(pair) - brute)) < 1e-14
            # measuring group b: the pair (b, a), the brute density's qubits swapped
            for pair, brute in ((pair, brute), (spec.pair(group_b, group_a), swap_qubits(brute))):
                closed = mixed_discord_closed(pair)
                k = k_matrix(bloch_decompose(brute))
                lam1, lam2, lam3 = closed.k_eigenvalues
                assert np.max(np.abs(k - np.diag(np.diagonal(k)))) < 1e-14
                assert abs(lam1 - k[2, 2]) < 1e-13
                assert max(abs(lam2 - max(k[0, 0], k[1, 1])), abs(lam3 - min(k[0, 0], k[1, 1]))) < 1e-13
                numeric = geometric_discord_numeric(brute)
                assert abs(closed.discord - numeric.discord) < 1e-13
                assert abs(closed.concurrence - numeric.concurrence) < 1e-12
                traced = size_a + size_b < n
                assert (closed.branch is Branch.PURE) == (not traced)
                seen.add((traced, size_a > 1 or size_b > 1))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_group_order_is_the_measured_side(rng):
    # measuring group b of the pair (a, b) is measuring the first group of
    # spec.pair(b, a): its closed spectrum, discord and branch are those every
    # numeric route finds on the qubit-swapped density of (a, b)
    reports, swapped, seen = [], [], set()
    for _ in range(40):
        spec = random_spec(rng, n_max=6, extremes=False)
        order = [int(m) + 1 for m in rng.permutation(spec.n)]
        size_a = int(rng.integers(1, spec.n))
        size_b = int(rng.integers(1, spec.n - size_a + 1))
        a, b = tuple(order[:size_a]), tuple(order[size_a:size_a + size_b])
        reports.append((mixed_discord_closed(spec.pair(b, a)), size_a + size_b < spec.n))
        swapped.append(swap_qubits(reduced_pair_density(spec.pair(a, b))))
        seen.add((spec.parity, size_a + size_b > 2))
    assert len(seen) == 4  # both parities, single modes and groups
    stack = np.array(swapped)
    numeric = geometric_discord_numeric(stack)
    spectrum = k_spectrum_discord(stack)
    search = discord_by_measurement_search(stack)
    k = k_matrix(bloch_decompose(stack))
    for m, (closed, traced) in enumerate(reports):
        lams = np.array(closed.k_eigenvalues)
        assert np.max(np.abs(np.sort(lams)[::-1] - numeric.k_eigenvalues[m])) < 1e-12
        assert abs(lams[0] - k[m, 2, 2]) < 1e-12  # lam1 is the z eigenvalue
        assert abs(closed.discord - numeric.discord[m]) < 1e-12
        assert abs(closed.discord - spectrum[m]) < 1e-12
        assert abs(closed.discord - search[m]) < 1e-6
        assert abs(closed.concurrence - numeric.concurrence[m]) < 1e-12
        planar = max(k[m, 0, 0], k[m, 1, 1])
        if not traced:
            assert closed.branch is Branch.PURE
        elif abs(k[m, 2, 2] - planar) > 1e-9:
            plus = k[m, 2, 2] > planar
            assert closed.branch is (Branch.MIXED_PLUS if plus else Branch.MIXED_MINUS)


# overlaps 1 - 10^-U(3, 14), drawn from a small pool so that modes often share one
_near_unit = st.lists(st.floats(min_value=3.0, max_value=14.0).map(lambda u: 1.0 - 10.0 ** -u),
                      min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=6))


def _assert_near_reference(ps, groups, first, parity=Parity.ODD):
    # each closed value lies within a few ulps times its condition number of a
    # 50-digit evaluation at the same double overlaps (8 ulps of 1 at most
    # over 5,500 random draws); 1 - P by cancellation once cost up to 1e-8
    # relative here, in either parity
    reference = pytest.importorskip("reference")
    # the reference measures the second group itself; the package reverses the pair
    measured = groups if first else groups[::-1]
    closed = mixed_discord_closed(SuperpositionSpec(tuple(ps), parity).pair(*measured))
    exact = reference.closed_reference(ps, parity.sign, *groups, first=first)
    values = dict(zip(("lam1", "lam2", "lam3"), closed.k_eigenvalues),
                  discord=closed.discord, concurrence=closed.concurrence)
    for name, value in values.items():
        kappa = reference.condition(name, ps, parity.sign, *groups, first=first)
        bound = 16.0 * 2.0 ** -53 * (kappa + 1.0) * abs(float(exact[name]))
        assert abs(value - float(exact[name])) <= bound, (name, value, float(exact[name]), kappa)


@settings(max_examples=200, deadline=None)
@given(_near_unit, st.booleans(), st.booleans(), st.sampled_from(Parity), st.data())
def test_closed_forms_near_unit_overlap_match_high_precision(ps, single, first, parity, data):
    n = len(ps)
    order = data.draw(st.permutations(range(1, n + 1)))
    size_a = 1 if single else data.draw(st.integers(1, n - 1))
    size_b = 1 if single else data.draw(st.integers(1, n - size_a))
    groups = (tuple(order[:size_a]), tuple(order[size_a:size_a + size_b]))
    _assert_near_reference(ps, groups, first, parity)


def test_odd_z_eigenvalue_keeps_its_digits_where_its_terms_cancel():
    # p_a = q: z and zz each cancel to ~1e-6 of their terms, while their sum
    # of squares has condition number 4; adding the squares of z and zz formed
    # from complements lost 1e-13 relative here
    _assert_near_reference([0.999999, 0.999, 0.999], ((2,), (1,)), True)
    _assert_near_reference([0.999, 0.99999, 0.999, 0.9999], ((1, 4), (2,)), False)


def test_unit_and_zero_overlaps_in_groups_give_clean_values():
    # p = 1 and p = 0 members give +0.0, never -0.0, and no numpy warning
    # (which pytest raises), in both parities and on grids too
    grid = np.array([0.0, 0.5, 1.0])
    for overlaps, parity in itertools.product(
            ((1.0, 1.0, 0.5, 0.3), (0.0, 0.0, 0.5, 0.3), (1.0, 0.0, 1.0, 0.3),
             (grid, grid, np.full(3, 0.5), np.full(3, 0.3))), Parity):
        for groups in (((1, 2), (3,)), ((1, 2), (3, 4)), ((3,), (1, 2, 4)), ((1, 3), (2, 4))):
            pair = SuperpositionSpec(overlaps, parity).pair(*groups)
            report = mixed_discord_closed(pair)
            rho = reduced_pair_density(pair)
            fields = [pair.d_a, pair.d_b, pair.d_q, report.discord, report.concurrence,
                      *report.k_eigenvalues, rho.real]
            for field in fields:
                negative_zero = np.signbit(field) & (np.asarray(field) == 0.0)
                assert not np.any(negative_zero), (overlaps, parity, groups)
            check_density(rho)
