import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catcorr.correlations import (
    Branch,
    MeasurementSide,
    concurrence_mixed,
    geometric_discord_numeric,
    mixed_discord_closed,
)
from catcorr.dephasing import (
    DephasingParams,
    apply_dephasing,
    concurrence_trajectory,
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
    pure_split,
    reduced_pair_density,
)
from conftest import random_density, random_pair, random_spec


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


def test_apply_dephasing_preserves_density_structure(rng):
    for _ in range(50):
        rho = random_density(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        evolved = apply_dephasing(rho, gamma)
        assert abs(np.trace(evolved).real - 1.0) < 1e-13
        assert np.min(np.linalg.eigvalsh(evolved)) > -1e-12
        assert np.max(np.abs(evolved - evolved.conj().T)) < 1e-13


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
        static = mixed_discord_closed(spec, i, j).concurrence
        assert abs(concurrence_trajectory(spec, i, j, 1.0, 0.0) - static) < 1e-14


def test_concurrence_trajectory_matches_kraus_route(rng):
    for _ in range(25):
        spec = random_spec(rng, n_min=3, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        rate = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0.0, 2.0))
        gamma = DephasingParams(rate=rate, time=t).gamma
        evolved = apply_dephasing(reduced_pair_density(spec, i, j), gamma)
        assert abs(concurrence_trajectory(spec, i, j, rate, t)
                   - concurrence_mixed(evolved)) < 1e-7


def test_sudden_death_frozen_values():
    # omitted product 1/2 with unit rate: t0 = ln 3
    spec3 = SuperpositionSpec(overlaps=(0.5, 0.6, 0.7), parity=Parity.EVEN)
    assert abs(sudden_death_time(spec3, 2, 3, 1.0) - math.log(3.0)) < 1e-15
    assert abs(sudden_death_time(spec3, 2, 3, 1.0) - 1.0986122886681098) < 1e-15
    # four equal overlaps 0.5: q = 1/4, t0 = ln(5/3)
    spec4 = SuperpositionSpec(overlaps=(0.5,) * 4, parity=Parity.EVEN)
    assert abs(sudden_death_time(spec4, 1, 2, 1.0) - 0.5108256237659907) < 1e-15
    # doubling the rate halves the death time
    assert abs(sudden_death_time(spec4, 1, 2, 2.0)
               - 0.5 * sudden_death_time(spec4, 1, 2, 1.0)) < 1e-15


def test_sudden_death_edge_cases():
    # two modes: q = 1, entanglement only dies asymptotically
    two = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.EVEN)
    assert sudden_death_time(two, 1, 2, 1.0) == math.inf
    # a unit overlap inside the pair kills concurrence from the start
    dead = SuperpositionSpec(overlaps=(1.0, 0.5, 0.5), parity=Parity.EVEN)
    assert sudden_death_time(dead, 1, 2, 1.0) == 0.0
    # zero omitted product likewise
    zero_q = SuperpositionSpec(overlaps=(0.5, 0.5, 0.0), parity=Parity.EVEN)
    assert sudden_death_time(zero_q, 1, 2, 1.0) == 0.0
    with pytest.raises(DomainError):
        sudden_death_time(two, 1, 2, -1.0)


def test_concurrence_sign_straddles_death_time(rng):
    for _ in range(25):
        spec = random_spec(rng, n_min=3, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        t0 = sudden_death_time(spec, i, j, 1.0)
        if t0 <= 0.0 or math.isinf(t0):
            continue
        assert concurrence_trajectory(spec, i, j, 1.0, t0 * 0.99) > 0.0
        assert concurrence_trajectory(spec, i, j, 1.0, t0 * 1.01) == 0.0
        assert abs(concurrence_trajectory(spec, i, j, 1.0, t0)) < 1e-12


def test_discord_trajectory_matches_numeric_kraus_route(rng):
    for _ in range(25):
        spec = random_spec(rng, n_min=2, n_max=6, extremes=False)
        i, j = random_pair(rng, spec.n)
        rate = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0.0, 2.5))
        side = MeasurementSide.FIRST if rng.uniform() < 0.5 else MeasurementSide.SECOND
        gamma = DephasingParams(rate=rate, time=t).gamma
        evolved = apply_dephasing(reduced_pair_density(spec, i, j), gamma)
        closed = discord_trajectory(spec, i, j, rate, t, side)
        numeric = geometric_discord_numeric(evolved, side)
        assert abs(closed.discord - numeric.discord) < 1e-12


def test_discord_trajectory_at_zero_equals_static():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.EVEN)
    static = mixed_discord_closed(spec, 1, 2)
    traj = discord_trajectory(spec, 1, 2, 1.0, 0.0)
    assert traj.discord == static.discord
    assert traj.branch is static.branch


def test_discord_branch_can_flip_during_evolution():
    # plus branch at t = 0 (lam1 largest) stays plus; a minus-branch
    # state flips to plus once the planar eigenvalues decay below lam1
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.ODD)
    start = discord_trajectory(spec, 1, 2, 1.0, 0.0)
    late = discord_trajectory(spec, 1, 2, 1.0, 3.0)
    assert start.branch is Branch.MIXED_MINUS
    assert late.branch is Branch.MIXED_PLUS
    assert late.discord < start.discord


def test_discord_survives_where_concurrence_dies(rng):
    for _ in range(10):
        spec = random_spec(rng, n_min=3, n_max=5, extremes=False)
        i, j = random_pair(rng, spec.n)
        t0 = sudden_death_time(spec, i, j, 1.0)
        if t0 <= 0.0 or math.isinf(t0):
            continue
        after = discord_trajectory(spec, i, j, 1.0, 2.0 * t0)
        assert after.concurrence == 0.0
        assert after.discord > 0.0


def test_pure_split_dephasing_closed_laws(rng):
    # concurrence of the dephased split decays as exp(-rate t) and the
    # numeric discord tracks half the squared decayed concurrence
    for _ in range(20):
        spec = random_spec(rng, n_min=2, n_max=6, extremes=False)
        k = int(rng.integers(1, spec.n))
        rate, t = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.0, 2.0))
        split = pure_split(spec, k)
        c0 = 2.0 * abs(split.c00 * split.c11 - split.c01 * split.c10)
        gamma = DephasingParams(rate=rate, time=t).gamma
        evolved = apply_dephasing(split.projector(), gamma)
        decayed = math.exp(-rate * t) * c0
        assert abs(concurrence_mixed(evolved) - decayed) < 1e-7
        numeric = geometric_discord_numeric(evolved)
        assert abs(numeric.discord - 0.5 * decayed ** 2) < 1e-12


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
