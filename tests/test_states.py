import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catcorr.correlations import geometric_discord_numeric
from catcorr.errors import (
    DivergentNormalizationError,
    DomainError,
    InvalidDensityError,
)
from catcorr.oracle import discord_by_measurement_search
from catcorr.states import (
    _HERM_TOL,
    _NULL_STATE_TOL,
    _PSD_TOL,
    _TRACE_TOL,
    PAULI_PRODUCTS,
    PAULIS,
    BlochForm,
    Parity,
    SuperpositionSpec,
    bloch_compose,
    bloch_decompose,
    check_density,
    reduced_pair_density,
)
from conftest import marginal, normalization, pure_cut, random_density, random_pair, random_spec

spec_strategy = st.builds(
    lambda ps, parity: (tuple(ps), parity),
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
             min_size=2, max_size=8),
    st.sampled_from([Parity.EVEN, Parity.ODD]),
)


def _build(ps, parity):
    if parity is Parity.ODD and math.prod(ps) > 1.0 - 1e-12:
        ps = tuple(min(p, 0.999) for p in ps)
    return SuperpositionSpec(overlaps=ps, parity=parity)


def test_spec_validation():
    with pytest.raises(DomainError):
        SuperpositionSpec(overlaps=(0.5,))
    with pytest.raises(DomainError):
        SuperpositionSpec(overlaps=(0.5, 1.2))
    with pytest.raises(DomainError):
        SuperpositionSpec(overlaps=(-0.1, 0.5))
    with pytest.raises(DomainError):
        SuperpositionSpec(overlaps=(float("nan"), 0.5))
    with pytest.raises(DivergentNormalizationError):
        SuperpositionSpec(overlaps=(1.0, 1.0, 1.0), parity=Parity.ODD)
    # parity accepts the plain string spelling
    spec = SuperpositionSpec(overlaps=(0.5, 0.5), parity="odd")
    assert spec.parity is Parity.ODD


def test_grid_spec_gives_each_point_its_own_state(rng):
    # array overlaps make one spec per grid point, bit for bit, in one pass
    grid = (np.linspace(0.0, 0.999, 40), rng.uniform(0.0, 1.0, 40), np.full(40, 0.7))
    for parity in Parity:
        spec = SuperpositionSpec(overlaps=grid, parity=parity)
        rho, split = reduced_pair_density(spec.pair(1, 3)), reduced_pair_density(pure_cut(spec, 2))
        assert rho.shape == (40, 4, 4) and split.shape == (40, 4, 4)
        for k in range(40):
            point = SuperpositionSpec(overlaps=tuple(float(p[k]) for p in grid), parity=parity)
            assert np.array_equal(rho[k], reduced_pair_density(point.pair(1, 3)))
            assert np.array_equal(split[k], reduced_pair_density(pure_cut(point, 2)))
            assert point.pair(1, 3).denominator == spec.pair(1, 3).denominator[k]


def test_grid_spec_refuses_points_as_a_spec_refuses_one():
    with pytest.raises(DomainError, match="got 1.5"):
        SuperpositionSpec(overlaps=(np.array([0.2, 1.5]), np.array([0.3, 0.3])))
    with pytest.raises(DomainError, match="got nan"):
        SuperpositionSpec(overlaps=(np.array([0.2, 0.4]), np.array([0.3, np.nan])))
    with pytest.raises(DivergentNormalizationError):
        SuperpositionSpec(overlaps=(np.linspace(0.0, 1.0, 5),) * 3, parity=Parity.ODD)


def test_pair_denominator_frozen_value(rng):
    # the denominator 1 + cos(m pi) P is 1 / (2 N^2)
    spec = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.EVEN)
    assert spec.pair(1, 2).denominator == 1.25
    odd = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.ODD)
    assert odd.pair(1, 2).denominator == 0.75
    # even parity keeps the bits of 1 + prod p, whatever the selection, on
    # single states and grids; odd parity's sum of nonnegative terms stays
    # within rounding of 1 - prod p
    for parity in Parity:
        for _ in range(50):
            spec = random_spec(rng, parity=parity)
            i, j = random_pair(rng, spec.n)
            denominator = spec.pair(i, j).denominator
            if parity is Parity.EVEN:
                assert denominator == 1.0 + math.prod(spec.overlaps)
            else:
                assert abs(denominator - (1.0 - math.prod(spec.overlaps))) < 1e-15
        grid = tuple(rng.uniform(0.0, 0.999, 64) for _ in range(3))
        spec = SuperpositionSpec(overlaps=grid, parity=parity)
        expanded = 1.0 + (grid[0] * grid[1] * grid[2]) * parity.sign
        denominator = spec.pair(1, 3).denominator
        if parity is Parity.EVEN:
            assert np.array_equal(denominator, expanded)
        else:
            assert np.max(np.abs(denominator - expanded)) < 1e-15


def test_near_null_superposition_rejected_at_construction():
    with pytest.raises(DivergentNormalizationError):
        SuperpositionSpec(overlaps=(1.0, 1.0 - 1e-16), parity=Parity.ODD)
    # the same product one ulp further from 1 is accepted
    spec = SuperpositionSpec(overlaps=(1.0, 1.0 - 1e-13), parity=Parity.ODD)
    assert normalization(spec) > 1e5
    # the error fires exactly where 2 + 2 P cos(m pi) reaches the tolerance
    overlaps = 1.0 - np.arange(100) * 2.0 ** -53
    expected = [2.0 + 2.0 * p * -1 <= _NULL_STATE_TOL for p in overlaps.tolist()]
    assert any(expected) and not all(expected)
    for p, null in zip(overlaps.tolist(), expected):
        if null:
            with pytest.raises(DivergentNormalizationError):
                SuperpositionSpec(overlaps=(1.0, p), parity=Parity.ODD)
        else:
            SuperpositionSpec(overlaps=(1.0, p), parity=Parity.ODD)
    with pytest.raises(DivergentNormalizationError):
        SuperpositionSpec(overlaps=(np.ones(100), overlaps[::-1].copy()), parity=Parity.ODD)


def test_traced_out_product_example_and_validation():
    spec = SuperpositionSpec(overlaps=(0.3, 0.5, 0.7, 0.9))
    assert abs(spec.pair(2, 3).q - 0.27) < 1e-15
    assert spec.pair(1, 2).q == 0.7 * 0.9
    two = SuperpositionSpec(overlaps=(0.4, 0.6))
    assert two.pair(1, 2).q == 1.0 and two.pair(1, 2).d_q == 0.0
    with pytest.raises(DomainError):
        spec.pair(1, 1)
    with pytest.raises(DomainError):
        spec.pair(0, 2)
    with pytest.raises(DomainError):
        spec.pair(1, 5)
    # a fractional index matches no mode, which would read as a unit overlap
    grid = SuperpositionSpec(overlaps=tuple(np.array([p, 0.4]) for p in spec.overlaps))
    for s, *bad in ((spec, 1.5, 2), (spec, 2, 2.5), (spec, np.array([1.5]), 2),
                    (spec, (1, 2.5), 3), (spec, float("nan"), 2),
                    (grid, np.array([1, 2]), np.array([3, 3.5]))):
        with pytest.raises(DomainError, match="mode indices must be integers"):
            s.pair(*bad)
    # an integer-valued float is its mode
    assert vars(spec.pair(1.0, 3.0)) == vars(spec.pair(1, 3))


def test_pure_split_even_sector_and_norm():
    # the split density is |c><c| with c = (c00, 0, 0, c11)
    spec = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.EVEN)
    rho = reduced_pair_density(pure_cut(spec, 1))
    assert np.max(np.abs(rho[1:3, :])) == 0.0 and np.max(np.abs(rho[:, 1:3])) == 0.0
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    # concurrence 2 |c00 c11| of this frozen case is 0.6
    assert abs(2.0 * abs(rho[0, 3]) - 0.6) < 1e-15
    schmidt = np.linalg.eigvalsh(marginal(rho, 1))
    assert abs(schmidt.sum() - 1.0) < 1e-15
    assert abs(schmidt[1] - 0.9) < 1e-15


def test_pure_split_odd_sector():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.ODD)
    rho = reduced_pair_density(pure_cut(spec, 1))
    assert rho[0, 0] == rho[3, 3] == rho[0, 3] == 0.0
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    # a cut needs a mode on each side
    for groups in (((1, 2, 3), ()), ((), (1, 2, 3))):
        with pytest.raises(DomainError, match="at least one mode"):
            spec.pair(*groups)


def test_pure_split_projector_is_valid_density():
    spec = SuperpositionSpec(overlaps=(0.3, 0.8, 0.6), parity=Parity.ODD)
    rho = reduced_pair_density(pure_cut(spec, 2))
    check_density(rho)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-13


def test_reduced_pair_density_frozen_x_structure():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.EVEN)
    rho = reduced_pair_density(spec.pair(1, 2))
    zero_mask = np.array([
        [False, True, True, False],
        [True, False, False, True],
        [True, False, False, True],
        [False, True, True, False],
    ])
    assert np.max(np.abs(rho[zero_mask])) == 0.0
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    # 00 sector weight: 2 N^2 (1 + q) a^4 with N^2 = 4/9, q = 1/2, a^2 = 3/4
    assert abs(rho[0, 0].real - (8.0 / 9.0) * 1.5 * 9.0 / 16.0) < 1e-15


def test_reduced_pair_density_all_zero_overlaps():
    spec = SuperpositionSpec(overlaps=(0.0, 0.0, 0.0), parity=Parity.EVEN)
    rho = reduced_pair_density(spec.pair(1, 2))
    expected = np.array([
        [0.25, 0.0, 0.0, 0.25],
        [0.0, 0.25, 0.25, 0.0],
        [0.0, 0.25, 0.25, 0.0],
        [0.25, 0.0, 0.0, 0.25],
    ])
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_reduced_pair_density_matches_partial_trace_of_split():
    # with two modes the pair density is the projector onto the split's
    # amplitudes: each branch maps to a|0> +- b|1>, so even parity fills
    # 00/11 (2N a a', 2N b b') and odd parity 01/10 (2N a b', 2N b a')
    for parity in (Parity.EVEN, Parity.ODD):
        spec = SuperpositionSpec(overlaps=(0.3, 0.7), parity=parity)
        rho = reduced_pair_density(spec.pair(1, 2))
        (a1, b1), (a2, b2) = ((math.sqrt((1.0 + p) / 2.0), math.sqrt((1.0 - p) / 2.0))
                              for p in (0.3, 0.7))
        two_n = 2.0 * normalization(spec)
        c = two_n * (np.array([a1 * a2, 0.0, 0.0, b1 * b2]) if parity is Parity.EVEN
                     else np.array([0.0, a1 * b2, b1 * a2, 0.0]))
        assert np.max(np.abs(rho - np.outer(c, c))) < 1e-14


@settings(max_examples=150, deadline=None)
@given(spec_strategy)
def test_reduced_pair_density_is_density(params):
    spec = _build(*params)
    rho = reduced_pair_density(spec.pair(1, spec.n))
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_check_density_rejects_bad_inputs():
    good = np.eye(4) / 4.0
    check_density(good)
    with pytest.raises(InvalidDensityError):
        check_density(np.eye(3) / 3.0)
    with pytest.raises(InvalidDensityError):
        check_density(np.eye(4))
    skew = np.eye(4) / 4.0
    skew[0, 1] = 0.2
    with pytest.raises(InvalidDensityError):
        check_density(skew)
    negative = np.diag([0.6, 0.5, -0.05, -0.05])
    with pytest.raises(InvalidDensityError):
        check_density(negative)


def test_check_density_of_a_stack_raises_for_its_first_bad_member(rng):
    good = [random_density(rng) for _ in range(6)]
    skew = np.eye(4) / 4.0
    skew[0, 1] = 0.2
    negative = np.diag([0.6, 0.5, -0.05, -0.05])
    off_trace = np.eye(4) / 2.0
    stack = np.array(good)
    assert np.array_equal(check_density(stack), stack.astype(complex))
    # each bad member raises what checking it alone raises, earliest member first,
    # also where a later member would fail a check that runs before its own
    for bad in ({2: negative, 4: skew}, {1: skew, 3: negative}, {3: off_trace, 5: skew},
                {0: negative}):
        members = stack.copy()
        for k, rho in bad.items():
            members[k] = rho
        with pytest.raises(InvalidDensityError) as alone:
            check_density(bad[min(bad)])
        with pytest.raises(InvalidDensityError) as stacked:
            check_density(members.reshape(2, 3, 4, 4))
        assert str(stacked.value) == str(alone.value), bad


def test_check_density_refuses_an_entry_near_the_float_limit():
    # a finite entry whose sum with its mirror would overflow: each route that
    # checks its density refuses it as not positive, without a numpy warning
    rho = reduced_pair_density(SuperpositionSpec((0.5, 0.6, 0.7)).pair(1, 2))
    rho[0, 1] = rho[1, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (check_density, geometric_discord_numeric, discord_by_measurement_search):
            with pytest.raises(InvalidDensityError, match="eigenvalue"):
                route(rho)


def _eigvalsh_only_check(rho):
    """check_density as it was before its Cholesky screen: eigvalsh alone
    decides the PSD test of every member before the first bad one."""
    m = np.asarray(rho, dtype=complex)
    stack = m.reshape(-1, 4, 4)
    adjoint = stack.conj().transpose(0, 2, 1)
    with np.errstate(invalid="ignore"):
        skew = ~(np.abs(stack - adjoint).reshape(-1, 16).max(axis=1) <= _HERM_TOL)
        trace = stack.diagonal(0, 1, 2).sum(axis=-1)
        bad = skew | (abs(trace.real - 1.0) > _TRACE_TOL) | (abs(trace.imag) > _TRACE_TOL)
    stop = bad.argmax() if bad.any() else len(stack)
    lowest = np.linalg.eigvalsh(0.5 * stack[:stop] + 0.5 * adjoint[:stop])[:, 0]
    negative = lowest < -_PSD_TOL
    if negative.any():
        raise InvalidDensityError(
            f"density has eigenvalue {float(lowest[negative.argmax()])} below -{_PSD_TOL}")
    if stop < len(stack):
        raise InvalidDensityError(
            "density has a non-finite entry" if not np.isfinite(stack[stop]).all()
            else "density is not Hermitian within tolerance" if skew[stop]
            else f"density trace is {complex(trace[stop])}, expected 1")
    return m


def test_check_density_reads_a_non_finite_entry_on_either_side_of_the_diagonal(rng):
    # the skew test reads the upper triangle: a NaN or inf below the diagonal
    # still makes its mirror's skew NaN or inf, refused as checking all 16 refuses it
    good = random_density(rng)
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        for i, j in ((3, 0), (2, 1), (0, 3), (1, 1)):
            rho = good.copy()
            rho[i, j] = bad
            assert _outcome(check_density, rho) == _outcome(_eigvalsh_only_check, rho)
            assert _outcome(check_density, rho) == "density has a non-finite entry"
            stack = np.array([good, good, rho, good, rho])
            assert _outcome(check_density, stack) == "density has a non-finite entry"
            assert _outcome(check_density, stack) == _outcome(_eigvalsh_only_check, stack)


def _outcome(check, rho):
    """None if check passes rho, else its InvalidDensityError's message."""
    try:
        check(rho)
    except InvalidDensityError as exc:
        return str(exc)
    return None


def _densities_near_the_psd_limit(rng, count):
    """U diag(lam) U^dagger, Haar U, with the least eigenvalue at -2e-10, -1e-10,
    -0.5e-10, 0 or -1e-16 times 1 +- 10^-U(1, 9), and one in three members of
    rank at most two: a second eigenvalue 0."""
    lowest = rng.choice([-2e-10, -1e-10, -0.5e-10, 0.0, -1e-16], size=count) * (
        1.0 + rng.choice([-1.0, 1.0], size=count) * 10.0 ** -rng.uniform(1, 9, size=count))
    rest = rng.dirichlet(np.ones(3), size=count)
    rest[::3, 0] = 0.0
    rest /= rest.sum(axis=1, keepdims=True)
    lam = np.column_stack([lowest, rest * (1.0 - lowest)[:, None]])
    g = rng.normal(size=(count, 4, 4)) + 1j * rng.normal(size=(count, 4, 4))
    q, r = np.linalg.qr(g)
    u = q * (np.diagonal(r, axis1=1, axis2=2) / abs(np.diagonal(r, axis1=1, axis2=2)))[:, None]
    return (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)


def test_psd_screen_decides_as_eigvalsh_alone():
    members = _densities_near_the_psd_limit(np.random.default_rng(20231019), 3000)
    outcomes = [_outcome(_eigvalsh_only_check, rho) for rho in members]
    assert [_outcome(check_density, rho) for rho in members] == outcomes
    rejected = [k for k, found in enumerate(outcomes) if found is not None]
    passed = [k for k, found in enumerate(outcomes) if found is None]
    assert len(rejected) > 300 and len(passed) > 300
    # consecutive members as (2, 3, 4, 4) stacks, and each rejected member first,
    # in the middle and last of five that pass
    for first in range(0, len(members), 6):
        stack = members[first:first + 6].reshape(2, 3, 4, 4)
        assert _outcome(check_density, stack) == _outcome(_eigvalsh_only_check, stack)
    good = members[passed[:5]]
    for k in rejected[:100]:
        for at in (0, 2, 5):
            stack = np.insert(good, at, members[k], axis=0)
            assert _outcome(check_density, stack) == outcomes[k]
            assert _outcome(check_density, stack.reshape(2, 3, 4, 4)) == outcomes[k]


def _einsum_table(rho):
    """The Pauli table as np.einsum once formed it: the diagonal of
    rho @ (sigma_a (x) sigma_b), summed over the length-4 axis."""
    t = np.einsum("...ij,abji->...abi", rho, PAULI_PRODUCTS).sum(axis=-1).real
    t[..., 0, 0] = 1.0
    return t


def _x_shaped_grid_densities():
    """Pair densities of grid specs, n = 2..6 and both parities, at overlaps
    from 0 up to 1 - 1e-12; their X shape gives exact zeros in the table."""
    grid = np.concatenate([np.linspace(0.0, 1.0, 101)[:-1], 1.0 - np.logspace(-1, -12, 45)])
    for n in range(2, 7):
        for parity in Parity:
            spec = SuperpositionSpec((grid,) * n, parity)
            yield reduced_pair_density(spec.pair(1, 2))
            if n > 2:
                yield reduced_pair_density(spec.pair((1, 3), 2))


def test_bloch_table_is_bitwise_the_einsum(rng):
    g = rng.normal(size=(5000, 4, 4)) + 1j * rng.normal(size=(5000, 4, 4))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    stacks = [rho, rho[:6].reshape(2, 3, 4, 4), *_x_shaped_grid_densities()]
    for stack in stacks:
        table, reference = bloch_decompose(stack).t, _einsum_table(stack)
        assert table.shape == stack.shape[:-2] + (4, 4)
        # a -0.0 prints as -0, so the sign of each zero must match too
        assert np.array_equal(table, reference)
        assert np.array_equal(np.signbit(table), np.signbit(reference))


def _compose_by_loop(bloch):
    """The density from its Pauli table as the 15-term loop summed it, literally."""
    rho = PAULI_PRODUCTS[0, 0]
    for a in range(1, 4):
        for ab in ((a, 0), (0, a), (a, 1), (a, 2), (a, 3)):
            rho = rho + bloch.t[(..., *ab)][..., None, None] * PAULI_PRODUCTS[ab]
    return rho / 4.0


def test_bloch_compose_is_bitwise_the_term_loop(rng):
    # only each entry's nonzero terms enter, in the loop's order; the sign of
    # each zero matches too, on tables with exact zeros and -0 entries
    rho = np.array([random_density(rng) for _ in range(20)])
    tables = [bloch_decompose(rho).t, *(bloch_decompose(x).t for x in _x_shaped_grid_densities())]
    signed = rng.normal(size=(50, 4, 4))
    signed[rng.uniform(size=signed.shape) < 0.4] = 0.0
    signed[rng.uniform(size=signed.shape) < 0.2] = -0.0
    tables += [signed, signed[3], bloch_decompose(rho[0]).t]
    for t in tables:
        got, expected = bloch_compose(BlochForm(t)), _compose_by_loop(BlochForm(t))
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(expected).view(np.uint64))


def test_bloch_roundtrip_on_random_densities(rng):
    for _ in range(100):
        rho = random_density(rng)
        rebuilt = bloch_compose(bloch_decompose(rho))
        assert np.max(np.abs(rebuilt - rho)) < 1e-13


def test_bloch_decompose_matches_explicit_pauli_traces(rng):
    # reference: Tr[rho sigma_a (x) sigma_b] with the Kronecker products built
    # here; x, y and r match it bit for bit, which keeps CLI output bytes stable
    for _ in range(50):
        rho = random_density(rng)
        table = np.array([[np.trace(rho @ np.kron(PAULIS[a], PAULIS[b])).real
                           for b in range(4)] for a in range(4)])
        bloch = bloch_decompose(rho)
        assert bloch.t.shape == (4, 4) and bloch.t[0, 0] == 1.0
        assert np.max(np.abs(bloch.t - table)) < 1e-15
        assert np.array_equal(bloch.x, table[1:, 0])
        assert np.array_equal(bloch.y, table[0, 1:])
        assert np.array_equal(bloch.r, table[1:, 1:])
        for view in (bloch.x, bloch.y, bloch.r):
            assert np.shares_memory(view, bloch.t)


def test_bloch_frozen_values_equal_overlaps():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.EVEN)
    bloch = bloch_decompose(reduced_pair_density(spec.pair(1, 2)))
    # R is diagonal with xx = 2/3, yy = -xx * q, zz = 2 N^2 (p^2 + q)
    assert abs(bloch.r[0, 0] - 2.0 / 3.0) < 1e-14
    assert abs(bloch.r[1, 1] + 1.0 / 3.0) < 1e-14
    assert abs(bloch.r[2, 2] - (8.0 / 9.0) * 0.75) < 1e-14
    off = bloch.r - np.diag(np.diagonal(bloch.r))
    assert np.max(np.abs(off)) < 1e-14
    assert np.max(np.abs(bloch.x[:2])) < 1e-14
    assert np.max(np.abs(bloch.y[:2])) < 1e-14
    assert abs(bloch.x[2] - (8.0 / 9.0) * 0.75) < 1e-14
    assert abs(bloch.x[2] - bloch.y[2]) < 1e-15


def test_bloch_local_vectors_match_marginals(rng):
    for _ in range(25):
        spec = random_spec(rng, n_max=6)
        i, j = 1, spec.n
        rho = reduced_pair_density(spec.pair(i, j))
        bloch = bloch_decompose(rho)
        left = marginal(rho, 1)
        right = marginal(rho, 2)
        assert abs(left[0, 0].real - 0.5 * (1.0 + bloch.x[2])) < 1e-13
        assert abs(right[0, 0].real - 0.5 * (1.0 + bloch.y[2])) < 1e-13
        assert abs(np.trace(left).real - 1.0) < 1e-13

