import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catcorr.correlations import (
    Branch,
    DiscordWitness,
    MeasurementSide,
    branch_and_discord,
    concurrence_mixed,
    concurrence_pure,
    geometric_discord_numeric,
    geometric_discord_pure_closed,
    k_matrix,
    mixed_discord_closed,
    mixed_k_eigenvalues,
    werner_limit_discord,
    werner_limit_k_eigenvalues,
    zero_discord_witness,
)
from catcorr.dephasing import discord_trajectory
from catcorr.linalg import sqrtm_psd
from catcorr.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Parity,
    SuperpositionSpec,
    bloch_decompose,
    check_density,
    pure_split,
    reduced_pair_density,
)
from conftest import random_density, random_pair, random_spec

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
    report = geometric_discord_pure_closed(spec, k)
    assert abs(report.discord - 0.5 * report.concurrence ** 2) < 1e-14
    assert report.branch is Branch.PURE


def test_pure_frozen_values_two_modes():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.EVEN)
    report = geometric_discord_pure_closed(spec, 1)
    assert abs(report.concurrence - 0.6) < 1e-15
    assert abs(report.discord - 0.18) < 1e-15
    # maximal entanglement at orthogonal branches
    zero = SuperpositionSpec(overlaps=(0.0, 0.0), parity=Parity.EVEN)
    top = geometric_discord_pure_closed(zero, 1)
    assert top.discord == 0.5
    assert abs(top.concurrence - 1.0) < 1e-14


def test_pure_odd_two_modes_constant_half():
    for p in np.linspace(0.0, 1.0 - 1e-6, 41):
        spec = SuperpositionSpec(overlaps=(p, p), parity=Parity.ODD)
        report = geometric_discord_pure_closed(spec, 1)
        assert abs(report.discord - 0.5) < 1e-9
        assert abs(report.concurrence - 1.0) < 1e-9


def test_pure_closed_matches_numeric_k_route(rng):
    for _ in range(50):
        spec = random_spec(rng, n_max=7)
        k = int(rng.integers(1, spec.n))
        closed = geometric_discord_pure_closed(spec, k)
        numeric = geometric_discord_numeric(pure_split(spec, k).projector())
        assert abs(closed.discord - numeric.discord) < 1e-12
        # Wootters route takes square roots of near-zero eigenvalues,
        # so its noise floor sits around 1e-8
        assert abs(closed.concurrence - numeric.concurrence) < 1e-7


def test_concurrence_pure_equals_mixed_route_on_projector():
    spec = SuperpositionSpec(overlaps=(0.3, 0.8, 0.6), parity=Parity.ODD)
    c_pure = concurrence_pure(spec, 2)
    c_mixed = concurrence_mixed(pure_split(spec, 2).projector())
    assert abs(c_pure - c_mixed) < 1e-7


# --- mixed pairs -----------------------------------------------------------

def test_mixed_frozen_even_three_modes():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.EVEN)
    lam1, lam2, lam3 = mixed_k_eigenvalues(spec, 1, 2)
    assert abs(lam1 - 8.0 / 9.0) < 1e-15
    assert abs(lam2 - 4.0 / 9.0) < 1e-15
    assert abs(lam3 - 1.0 / 9.0) < 1e-15
    report = mixed_discord_closed(spec, 1, 2)
    assert report.branch is Branch.MIXED_PLUS
    assert abs(report.discord - 5.0 / 36.0) < 1e-15
    assert abs(report.concurrence - 1.0 / 3.0) < 1e-15


def test_mixed_frozen_odd_three_modes():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.ODD)
    lam1, lam2, lam3 = mixed_k_eigenvalues(spec, 1, 2)
    assert abs(lam1 - 0.16326530612244897) < 1e-15
    assert abs(lam2 - 0.7346938775510204) < 1e-15
    assert abs(lam3 - 0.18367346938775511) < 1e-15
    report = mixed_discord_closed(spec, 1, 2)
    assert report.branch is Branch.MIXED_MINUS
    assert abs(report.discord - 0.08673469387755102) < 1e-15


def test_branch_rule_tie_goes_to_plus():
    branch, discord = branch_and_discord(0.5, 0.5, 0.2)
    assert branch is Branch.MIXED_PLUS
    assert discord == 0.25 * 0.7
    branch, _ = branch_and_discord(0.4, 0.5, 0.2)
    assert branch is Branch.MIXED_MINUS


def test_mixed_closed_matches_numeric_both_sides(rng):
    for _ in range(60):
        spec = random_spec(rng, n_min=2, n_max=7)
        i, j = random_pair(rng, spec.n)
        rho = reduced_pair_density(spec, i, j)
        for side in MeasurementSide:
            closed = mixed_discord_closed(spec, i, j, side)
            numeric = geometric_discord_numeric(rho, side)
            assert abs(closed.discord - numeric.discord) < 1e-12
            assert abs(closed.concurrence - numeric.concurrence) < 1e-7


def test_measurement_side_matters_for_unequal_overlaps():
    # zz vanishes here (p1 p2 = q, odd), so lam1 is pure z_local^2 and
    # straddles lam2 depending on the side: plus branch measured on the
    # first member, minus branch on the second
    spec = SuperpositionSpec(overlaps=(0.8, 0.5, 0.4), parity=Parity.ODD)
    first = mixed_discord_closed(spec, 1, 2, MeasurementSide.FIRST)
    second = mixed_discord_closed(spec, 1, 2, MeasurementSide.SECOND)
    assert first.branch is Branch.MIXED_PLUS
    assert second.branch is Branch.MIXED_MINUS
    assert abs(first.discord - second.discord) > 1e-2
    # the side only ever selects lam1; the planar pair is shared
    lam_f = mixed_k_eigenvalues(spec, 1, 2, MeasurementSide.FIRST)
    lam_s = mixed_k_eigenvalues(spec, 1, 2, MeasurementSide.SECOND)
    assert abs(lam_f[0] - lam_s[0]) > 1e-3
    assert lam_f[1] == lam_s[1] and lam_f[2] == lam_s[2]
    # equal overlaps make the two sides agree
    eq = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.ODD)
    assert abs(mixed_discord_closed(eq, 1, 2, MeasurementSide.FIRST).discord
               - mixed_discord_closed(eq, 1, 2, MeasurementSide.SECOND).discord) < 1e-15


def test_swapping_pair_indices_swaps_sides():
    spec = SuperpositionSpec(overlaps=(0.9, 0.2, 0.6), parity=Parity.EVEN)
    a = mixed_discord_closed(spec, 1, 2, MeasurementSide.FIRST)
    b = mixed_discord_closed(spec, 2, 1, MeasurementSide.SECOND)
    assert abs(a.discord - b.discord) < 1e-15


def test_branch_switch_location_three_modes_even():
    # the z eigenvalue overtakes the planar one exactly at sqrt(2) - 1
    root = math.sqrt(2.0) - 1.0
    spec_lo = SuperpositionSpec(overlaps=(root - 1e-6,) * 3, parity=Parity.EVEN)
    spec_hi = SuperpositionSpec(overlaps=(root + 1e-6,) * 3, parity=Parity.EVEN)
    assert mixed_discord_closed(spec_lo, 1, 2).branch is Branch.MIXED_MINUS
    assert mixed_discord_closed(spec_hi, 1, 2).branch is Branch.MIXED_PLUS


def test_discord_bounded_by_half(rng):
    for _ in range(100):
        spec = random_spec(rng)
        i, j = random_pair(rng, spec.n)
        report = mixed_discord_closed(spec, i, j)
        assert -1e-15 <= report.discord <= 0.5 + 1e-12


def test_werner_limit_values():
    assert werner_limit_discord(2) == 0.5
    assert abs(werner_limit_discord(5) - 0.08) < 1e-15
    with pytest.raises(Exception):
        werner_limit_discord(1)
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
        value = mixed_discord_closed(spec, 1, 2).discord
        assert abs(value - werner_limit_discord(n)) < 1e-5, n
    spec3 = SuperpositionSpec(overlaps=(p,) * 3, parity=Parity.ODD)
    assert abs(mixed_discord_closed(spec3, 1, 2).discord - 1.0 / 6.0) < 1e-5


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
    near = mixed_discord_closed(spec, 1, 2)
    assert near.branch is Branch.MIXED_MINUS
    assert abs(near.discord - float(exact_discord)) < 1e-4


def test_werner_limit_spectrum_matches_closed_form_near_one():
    p = 1.0 - 1e-8
    for n in (2, 3, 4, 6, 9):
        spec = SuperpositionSpec(overlaps=(p,) * n, parity=Parity.ODD)
        closed = mixed_k_eigenvalues(spec, 1, 2)
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


def test_concurrence_mixed_agrees_with_singular_value_route(rng):
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    for _ in range(50):
        rho = random_density(rng)
        root = sqrtm_psd(rho)
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


def test_mixed_concurrence_closed_matches_wootters(rng):
    for _ in range(40):
        spec = random_spec(rng, n_min=3, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        closed = mixed_discord_closed(spec, i, j).concurrence
        direct = concurrence_mixed(reduced_pair_density(spec, i, j))
        assert abs(closed - direct) < 1e-7


# --- witness ---------------------------------------------------------------

def test_zero_discord_witness_flags_correlated_state():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.EVEN)
    bloch = bloch_decompose(reduced_pair_density(spec, 1, 2))
    assert zero_discord_witness(bloch) is DiscordWitness.NON_ZERO_DISCORD
    # R = diag(0.3, 0.3, 0) has rank 2; the local x = (0, 0, 0.2) lifts the
    # full table (1, y^T; x, R) to rank 3
    rho = (np.eye(4) + 0.2 * np.kron(SIGMA_Z, np.eye(2))
           + 0.3 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))) / 4.0
    assert zero_discord_witness(bloch_decompose(rho)) is DiscordWitness.NON_ZERO_DISCORD
    assert geometric_discord_numeric(rho).discord > 0.0


def test_zero_discord_witness_passes_product_and_classical_states():
    ones = SuperpositionSpec(overlaps=(1.0, 1.0, 1.0), parity=Parity.EVEN)
    bloch = bloch_decompose(reduced_pair_density(ones, 1, 2))
    assert zero_discord_witness(bloch) is DiscordWitness.ZERO_DISCORD_POSSIBLE
    zeros = SuperpositionSpec(overlaps=(0.0, 0.0, 0.0), parity=Parity.EVEN)
    bloch0 = bloch_decompose(reduced_pair_density(zeros, 1, 2))
    assert zero_discord_witness(bloch0) is DiscordWitness.ZERO_DISCORD_POSSIBLE
    # and the discord of both is exactly zero
    assert mixed_discord_closed(zeros, 1, 2).discord == 0.0
    assert mixed_discord_closed(ones, 1, 2).discord == 0.0


def test_witness_consistent_with_discord_on_random_specs(rng):
    for _ in range(40):
        spec = random_spec(rng, extremes=False)
        i, j = random_pair(rng, spec.n)
        report = mixed_discord_closed(spec, i, j)
        bloch = bloch_decompose(reduced_pair_density(spec, i, j))
        witness = zero_discord_witness(bloch)
        if witness is DiscordWitness.NON_ZERO_DISCORD:
            assert report.discord > 0.0


def test_geometric_discord_numeric_checks_density_once(monkeypatch):
    calls = []

    def counting(rho):
        calls.append(1)
        return check_density(rho)

    for module in ("catcorr.states", "catcorr.correlations"):
        monkeypatch.setattr(f"{module}.check_density", counting)
    rho = reduced_pair_density(SuperpositionSpec(overlaps=(0.5, 0.5, 0.5)), 1, 2)
    calls.clear()
    report = geometric_discord_numeric(rho, MeasurementSide.SECOND)
    assert len(calls) == 1
    assert abs(report.discord - 5.0 / 36.0) < 1e-12


def test_closed_reports_carry_the_labeled_k_spectrum(rng):
    # labeled (lam1, lam2, lam3), z eigenvalue first, as mixed_k_eigenvalues
    # gives it, also where the minus branch puts lam1 below lam2
    specs = [SuperpositionSpec(overlaps=(0.3, 0.3, 0.3))]
    specs += [random_spec(rng, n_min=3) for _ in range(30)]
    assert mixed_k_eigenvalues(specs[0], 1, 2)[0] < mixed_k_eigenvalues(specs[0], 1, 2)[1]
    for spec in specs:
        i, j = random_pair(rng, spec.n)
        for side in MeasurementSide:
            expected = mixed_k_eigenvalues(spec, i, j, side)
            assert mixed_discord_closed(spec, i, j, side).k_eigenvalues == expected
            assert discord_trajectory(spec, i, j, 0.7, 0.0, side).k_eigenvalues == expected


def test_k_matrix_side_selection():
    spec = SuperpositionSpec(overlaps=(0.9, 0.2, 0.6), parity=Parity.EVEN)
    bloch = bloch_decompose(reduced_pair_density(spec, 1, 2))
    k_first = k_matrix(bloch, MeasurementSide.FIRST)
    k_second = k_matrix(bloch, MeasurementSide.SECOND)
    assert np.max(np.abs(k_first - k_first.T)) < 1e-14
    assert np.max(np.abs(k_first - k_second)) > 1e-3
    lam1, lam2, lam3 = mixed_k_eigenvalues(spec, 1, 2, MeasurementSide.SECOND)
    numeric = np.sort(np.linalg.eigvalsh(k_second))[::-1]
    closed = np.sort(np.array([lam1, lam2, lam3]))[::-1]
    assert np.max(np.abs(numeric - closed)) < 1e-14
