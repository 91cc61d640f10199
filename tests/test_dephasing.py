import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catcorr.correlations import (
    Branch,
    concurrence_mixed,
    geometric_discord_numeric,
    mixed_discord_closed,
)
from catcorr.dephasing import (
    DephasingParams,
    apply_dephasing,
    dephased_bloch,
    discord_trajectory,
    kraus_ops,
    sudden_death_time,
)
from catcorr.errors import DomainError
from catcorr.states import (
    Parity,
    SuperpositionSpec,
    bloch_compose,
    bloch_decompose,
    reduced_pair_density,
)
from conftest import pure_cut, random_density, random_pair, random_spec, swap_qubits


def test_params_validation_and_gamma():
    params = DephasingParams(rate=2.0, time=0.5)
    assert abs(params.gamma - (1.0 - math.exp(-1.0))) < 1e-16
    assert DephasingParams(rate=1.0, time=0.0).gamma == 0.0
    with pytest.raises(DomainError):
        DephasingParams(rate=0.0, time=1.0)
    with pytest.raises(DomainError):
        DephasingParams(rate=-1.0, time=1.0)
    with pytest.raises(DomainError):
        DephasingParams(rate=1.0, time=-0.1)
    for rate in (math.inf, math.nan):
        with pytest.raises(DomainError):
            DephasingParams(rate=rate, time=1.0)
    with pytest.raises(DomainError):
        DephasingParams(rate=1.0, time=math.nan)
    # an infinite time is the fully dephased limit
    assert DephasingParams(rate=1.0, time=math.inf).gamma == 1.0


def test_kraus_completeness_and_frozen_value():
    for gamma in (0.0, 0.3, 0.75, 1.0):
        e0, e1 = kraus_ops(gamma)
        total = e0.conj().T @ e0 + e1.conj().T @ e1
        assert np.max(np.abs(total - np.eye(2))) < 1e-15
    e0, _ = kraus_ops(0.75)
    assert np.max(np.abs(e0 - np.diag([1.0, 0.5]))) < 1e-15
    with pytest.raises(DomainError):
        kraus_ops(1.5)
    with pytest.raises(DomainError):
        kraus_ops(-0.1)


def test_dephased_bloch_matches_kraus_and_checks_gamma(rng):
    for _ in range(20):
        rho = random_density(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        rebuilt = bloch_compose(dephased_bloch(bloch_decompose(rho), gamma))
        assert np.max(np.abs(rebuilt - apply_dephasing(rho, gamma))) < 1e-13
    bloch = bloch_decompose(np.eye(4, dtype=complex) / 4.0)
    for gamma in (1.5, -0.1, math.nan):
        with pytest.raises(DomainError):
            dephased_bloch(bloch, gamma)


def test_kraus_routes_on_stacks_are_bitwise_single_calls(rng):
    # an (S,) array of gammas dephases each member of an (S, 4, 4) stack by
    # its own gamma, exactly as one call per member does
    gammas = np.concatenate([[0.0, 1.0, 0.75], rng.uniform(0.0, 1.0, size=37)])
    rhos = [random_density(rng) for _ in range(20)]
    while len(rhos) < gammas.size:
        spec = random_spec(rng)
        rhos.append(reduced_pair_density(spec.pair(*random_pair(rng, spec.n))))
    stack = np.array(rhos)
    e0, e1 = kraus_ops(gammas)
    assert e0.shape == e1.shape == (gammas.size, 2, 2)
    evolved = apply_dephasing(stack, gammas)
    rebuilt = bloch_compose(dephased_bloch(bloch_decompose(stack), gammas))
    for k, (rho, gamma) in enumerate(zip(rhos, gammas.tolist())):
        one0, one1 = kraus_ops(gamma)
        assert np.array_equal(e0[k], one0) and np.array_equal(e1[k], one1)
        assert np.array_equal(evolved[k], apply_dephasing(rho, gamma))
        assert np.array_equal(rebuilt[k],
                              bloch_compose(dephased_bloch(bloch_decompose(rho), gamma)))


def test_gamma_arrays_are_refused_as_a_gamma_is():
    stack = np.array([np.eye(4, dtype=complex) / 4.0] * 3)
    bloch = bloch_decompose(stack)
    with pytest.raises(DomainError) as single:
        kraus_ops(1.5)
    for bad in (1.5, -0.1, math.nan):
        gammas = np.array([0.2, bad, 0.4])
        for call in (lambda: kraus_ops(gammas), lambda: apply_dephasing(stack, gammas),
                     lambda: dephased_bloch(bloch, gammas)):
            with pytest.raises(DomainError) as stacked:
                call()
            assert str(stacked.value) == str(single.value)


def test_apply_dephasing_preserves_density_structure(rng):
    for _ in range(50):
        rho = random_density(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        evolved = apply_dephasing(rho, gamma)
        assert abs(np.trace(evolved).real - 1.0) < 1e-13
        assert np.min(np.linalg.eigvalsh(evolved)) > -1e-12
        assert np.max(np.abs(evolved - evolved.conj().T)) < 1e-13


def test_apply_dephasing_is_bitwise_its_kron_construction(rng):
    for gamma in (0.0, 0.3, 0.77, 1.0):
        e0, e1 = kraus_ops(gamma)
        for _ in range(5):
            rho = random_density(rng)
            expected = np.zeros_like(rho)
            for left in (e0, e1):
                for right in (e0, e1):
                    op = np.kron(left, right)
                    expected = expected + op @ rho @ op.conj().T
            assert np.array_equal(apply_dephasing(rho, gamma), expected)


def _dephasing_by_products(rho, gamma):
    """The Kraus sum as matrix products, literally: each left (x) right formed
    as a broadcast outer product, then op @ rho @ op^dagger summed."""
    e0, e1 = kraus_ops(gamma)
    out = np.zeros_like(rho)
    for left in (e0, e1):
        for right in (e0, e1):
            op = (left[..., :, None, :, None] * right[..., None, :, None, :]).reshape(
                left.shape[:-2] + (4, 4))
            out = out + op @ rho @ op.conj().swapaxes(-1, -2)
    return out


def test_apply_dephasing_is_bitwise_the_matrix_products(rng):
    # the diagonal products are the matrix products' own, the sign of each
    # zero included, on one density and on stacks at one gamma or their own
    stack = np.array([random_density(rng) for _ in range(12)]
                     + [reduced_pair_density(spec.pair(1, spec.n))
                        for spec in (random_spec(rng) for _ in range(12))])
    gammas = rng.uniform(size=len(stack))
    gammas[:4] = (0.0, 1.0, 0.0, 1.0)
    cases = [(stack, gammas), (stack[:5], gammas[:5])]
    cases += [(stack, g) for g in (0.0, 1.0, float(gammas[7]))]
    cases += [(rho, g) for rho, g in zip(stack[::3], (0.0, 1.0, *gammas[2::3].tolist()))]
    for rho, gamma in cases:
        got, expected = apply_dephasing(rho, gamma), _dephasing_by_products(rho, gamma)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_apply_dephasing_entry_scaling(rng):
    # each index mismatch against the diagonal costs sqrt(1 - gamma)
    rho = random_density(rng)
    gamma = 0.4
    evolved = apply_dephasing(rho, gamma)
    shrink = math.sqrt(1.0 - gamma)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    row, col = 2 * a + b, 2 * c + d
                    factor = shrink ** ((a != c) + (b != d))
                    assert abs(evolved[row, col] - factor * rho[row, col]) < 1e-14


def test_apply_dephasing_semigroup(rng):
    for _ in range(25):
        rho = random_density(rng)
        g1, g2 = rng.uniform(0.0, 1.0, size=2)
        once = apply_dephasing(apply_dephasing(rho, g1), g2)
        merged = apply_dephasing(rho, 1.0 - (1.0 - g1) * (1.0 - g2))
        assert np.max(np.abs(once - merged)) < 1e-13


def test_identity_at_zero_and_full_dephasing_kills_coherence(rng):
    rho = random_density(rng)
    assert np.max(np.abs(apply_dephasing(rho, 0.0) - rho)) < 1e-15
    killed = apply_dephasing(rho, 1.0)
    off = killed - np.diag(np.diagonal(killed))
    assert np.max(np.abs(off)) < 1e-15
    assert np.max(np.abs(np.diagonal(killed) - np.diagonal(rho))) < 1e-15


def test_concurrence_trajectory_matches_static_at_zero(rng):
    for _ in range(25):
        spec = random_spec(rng, extremes=False)
        i, j = random_pair(rng, spec.n)
        static = mixed_discord_closed(spec.pair(i, j)).concurrence
        assert abs(discord_trajectory(spec.pair(i, j), 1.0, 0.0).concurrence - static) < 1e-14


def test_concurrence_trajectory_matches_kraus_route(rng):
    for _ in range(25):
        spec = random_spec(rng, n_min=3, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        rate = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0.0, 2.0))
        gamma = DephasingParams(rate=rate, time=t).gamma
        evolved = apply_dephasing(reduced_pair_density(spec.pair(i, j)), gamma)
        assert abs(discord_trajectory(spec.pair(i, j), rate, t).concurrence
                   - concurrence_mixed(evolved)) < 1e-12


def test_sudden_death_frozen_values():
    # omitted product 1/2 with unit rate: t0 = ln 3
    spec3 = SuperpositionSpec(overlaps=(0.5, 0.6, 0.7), parity=Parity.EVEN)
    assert abs(sudden_death_time(spec3.pair(2, 3), 1.0) - math.log(3.0)) < 1e-15
    assert abs(sudden_death_time(spec3.pair(2, 3), 1.0) - 1.0986122886681098) < 1e-15
    # four equal overlaps 0.5: q = 1/4, t0 = ln(5/3)
    spec4 = SuperpositionSpec(overlaps=(0.5,) * 4, parity=Parity.EVEN)
    assert abs(sudden_death_time(spec4.pair(1, 2), 1.0) - 0.5108256237659907) < 1e-15
    # doubling the rate halves the death time
    assert abs(sudden_death_time(spec4.pair(1, 2), 2.0)
               - 0.5 * sudden_death_time(spec4.pair(1, 2), 1.0)) < 1e-15


def test_sudden_death_edge_cases():
    # two modes: q = 1, entanglement only dies asymptotically
    two = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.EVEN)
    assert sudden_death_time(two.pair(1, 2), 1.0) == math.inf
    # a unit overlap inside the pair kills concurrence from the start
    dead = SuperpositionSpec(overlaps=(1.0, 0.5, 0.5), parity=Parity.EVEN)
    assert sudden_death_time(dead.pair(1, 2), 1.0) == 0.0
    # zero omitted product likewise
    zero_q = SuperpositionSpec(overlaps=(0.5, 0.5, 0.0), parity=Parity.EVEN)
    assert sudden_death_time(zero_q.pair(1, 2), 1.0) == 0.0
    with pytest.raises(DomainError):
        sudden_death_time(two.pair(1, 2), -1.0)


def test_concurrence_sign_straddles_death_time(rng):
    for _ in range(25):
        spec = random_spec(rng, n_min=3, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        t0 = sudden_death_time(spec.pair(i, j), 1.0)
        if t0 <= 0.0 or math.isinf(t0):
            continue
        assert discord_trajectory(spec.pair(i, j), 1.0, t0 * 0.99).concurrence > 0.0
        assert discord_trajectory(spec.pair(i, j), 1.0, t0 * 1.01).concurrence == 0.0
        assert abs(discord_trajectory(spec.pair(i, j), 1.0, t0).concurrence) < 1e-12


def test_discord_trajectory_matches_numeric_kraus_route(rng):
    for _ in range(25):
        spec = random_spec(rng, n_min=2, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        rate = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0.0, 2.5))
        first = rng.uniform() < 0.5
        gamma = DephasingParams(rate=rate, time=t).gamma
        evolved = apply_dephasing(reduced_pair_density(spec.pair(i, j)), gamma)
        # measuring mode j is measuring the first group of the pair (j, i)
        closed = discord_trajectory(spec.pair(*((i, j) if first else (j, i))), rate, t)
        numeric = geometric_discord_numeric(evolved if first else swap_qubits(evolved))
        assert abs(closed.discord - numeric.discord) < 1e-12


def test_discord_trajectory_at_zero_equals_static():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.EVEN)
    static = mixed_discord_closed(spec.pair(1, 2))
    traj = discord_trajectory(spec.pair(1, 2), 1.0, 0.0)
    assert traj.discord == static.discord
    assert traj.branch is static.branch


def test_discord_branch_can_flip_during_evolution():
    # plus branch at t = 0 (lam1 largest) stays plus; a minus-branch
    # state flips to plus once the planar eigenvalues decay below lam1
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.ODD)
    start = discord_trajectory(spec.pair(1, 2), 1.0, 0.0)
    late = discord_trajectory(spec.pair(1, 2), 1.0, 3.0)
    assert start.branch is Branch.MIXED_MINUS
    assert late.branch is Branch.MIXED_PLUS
    assert late.discord < start.discord


def test_discord_survives_where_concurrence_dies(rng):
    for _ in range(10):
        spec = random_spec(rng, n_min=3, n_max=5, extremes=False)
        i, j = random_pair(rng, spec.n)
        t0 = sudden_death_time(spec.pair(i, j), 1.0)
        if t0 <= 0.0 or math.isinf(t0):
            continue
        after = discord_trajectory(spec.pair(i, j), 1.0, 2.0 * t0)
        assert after.concurrence == 0.0
        assert after.discord > 0.0


def _assert_grid_is_pointwise(spec, i, j, rate, times):
    """discord_trajectory on an array of times equals the float call at each
    time bit for bit, the sign of a zero included."""
    grid = discord_trajectory(spec.pair(i, j), rate, times)
    lams = [np.broadcast_to(lam, times.shape) for lam in grid.k_eigenvalues]
    for k, t in enumerate(times.tolist()):
        point = discord_trajectory(spec.pair(i, j), rate, t)
        assert grid.branch[k] == point.branch
        pairs = [(grid.discord[k], point.discord), (grid.concurrence[k], point.concurrence)]
        pairs += [(lam[k], want) for lam, want in zip(lams, point.k_eigenvalues)]
        for got, want in pairs:
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (t, got, want)
    return grid


def test_array_time_trajectory_equals_scalar_calls(rng):
    for parity in Parity:
        for reverse in (False, True):
            for _ in range(8):
                spec = random_spec(rng, n_max=7, parity=parity)
                i, j = random_pair(rng, spec.n)[::-1 if reverse else 1]
                times = np.linspace(0.0, float(rng.uniform(0.5, 5.0)), 41)
                rate = float(rng.uniform(0.2, 2.0))
                # strided and reversed views too: each ufunc sees a fresh product
                for view in (times, times[::3], times[::-1], times.astype(np.float32)):
                    _assert_grid_is_pointwise(spec, i, j, rate, view)
    # t = 0 and times past the sudden death at ln 3
    spec = SuperpositionSpec(overlaps=(0.5, 0.6, 0.7), parity=Parity.EVEN)
    t0 = math.log(3.0)
    grid = _assert_grid_is_pointwise(spec, 2, 3, 1.0, np.array([0.0, 0.5 * t0, 1.5 * t0, 4.0]))
    assert grid.concurrence[1] > 0.0 and grid.concurrence[2] == grid.concurrence[3] == 0.0
    # minus-to-plus branch crossing at t_c = ln(lam2 / lam1) / 2 = 0.401
    odd = SuperpositionSpec(overlaps=(0.9,) * 3, parity=Parity.ODD)
    for i, j in ((1, 2), (2, 1)):
        grid = _assert_grid_is_pointwise(odd, i, j, 1.0, np.linspace(0.0, 3.0, 31))
        assert grid.branch[4] == Branch.MIXED_MINUS and grid.branch[5] == Branch.MIXED_PLUS
    # p_1 = 1 makes the prefactor 0, so the product is -0.0 after death; the
    # concurrence clamps it to +0.0 as the float call's max(0, .) does
    unit = SuperpositionSpec(overlaps=(1.0, 1.0, 0.3), parity=Parity.EVEN)
    assert math.copysign(1.0, 0.0 * (math.exp(-5.0) * 1.3 - 0.7)) == -1.0
    grid = _assert_grid_is_pointwise(unit, 1, 2, 1.0, np.linspace(0.0, 5.0, 41))
    assert all(math.copysign(1.0, c) == 1.0 for c in grid.concurrence.tolist())


def test_params_take_an_array_of_times():
    times = np.array([0.0, 0.25, 1.0, 7.5])
    grid = np.linspace(0.0, 7.5, 61)
    for view in (times, times[::3], times[::-1], grid, grid[::3], grid[::-1],
                 grid.astype(np.float32)):
        gamma = DephasingParams(rate=0.8, time=view).gamma
        assert gamma.tolist() == [DephasingParams(rate=0.8, time=t).gamma for t in view.tolist()]
    for bad in (-0.1, math.nan):
        with pytest.raises(DomainError, match="evolution time must be nonnegative"):
            DephasingParams(rate=1.0, time=np.array([0.0, bad, 1.0]))
    with pytest.raises(DomainError, match="dephasing rate"):
        discord_trajectory(SuperpositionSpec(overlaps=(0.5, 0.5)).pair(1, 2), -1.0, times)


def test_params_take_an_array_of_rates():
    # each member bitwise the float call, and a bad member refused as a bad float is
    rates, times = np.array([0.3, 1.0, 2.5]), np.array([0.0, 0.7, 4.0])
    gamma = DephasingParams(rate=rates, time=times).gamma
    assert gamma.tolist() == [DephasingParams(rate=r, time=t).gamma
                              for r, t in zip(rates.tolist(), times.tolist())]
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError) as alone:
            DephasingParams(rate=bad, time=1.0)
        with pytest.raises(DomainError) as stacked:
            DephasingParams(rate=np.array([1.0, bad, 2.0]), time=times)
        assert str(stacked.value) == str(alone.value) == "dephasing rate must be positive and finite"
        pairs = SuperpositionSpec(overlaps=(np.full(3, 0.5), np.full(3, 0.6))).pair(1, 2)
        with pytest.raises(DomainError, match="dephasing rate"):
            discord_trajectory(pairs, np.array([1.0, 2.0, bad]), times)


def test_pure_split_dephasing_closed_laws(rng):
    # concurrence of the dephased split decays as exp(-rate t) and the
    # numeric discord tracks half the squared decayed concurrence; the
    # closed trajectory of the split, which report's rate block prints, does too
    for _ in range(20):
        spec = random_spec(rng, n_min=2, n_max=6, extremes=False)
        k = int(rng.integers(1, spec.n))
        rate, t = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.0, 2.0))
        split = pure_cut(spec, k)
        c0 = mixed_discord_closed(split).concurrence
        gamma = DephasingParams(rate=rate, time=t).gamma
        evolved = apply_dephasing(reduced_pair_density(split), gamma)
        decayed = math.exp(-rate * t) * c0
        assert abs(concurrence_mixed(evolved) - decayed) < 1e-12
        numeric = geometric_discord_numeric(evolved)
        assert abs(numeric.discord - 0.5 * decayed ** 2) < 1e-12
        closed = discord_trajectory(split, rate, t)
        assert abs(closed.discord - numeric.discord) < 1e-12
        assert abs(closed.concurrence - decayed) < 1e-12
        assert sudden_death_time(split, rate) == math.inf


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_semigroup_in_gamma_parametrization(g1, g2):
    # the composition law in gamma mirrors additivity in time
    rho = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.1
    once = apply_dephasing(apply_dephasing(rho, g1), g2)
    merged = apply_dephasing(rho, 1.0 - (1.0 - g1) * (1.0 - g2))
    assert np.max(np.abs(once - merged)) < 1e-14
