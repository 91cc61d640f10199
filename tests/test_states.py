import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catcorr.errors import (
    DivergentNormalizationError,
    DomainError,
    InvalidDensityError,
)
from catcorr.states import (
    PAULIS,
    Parity,
    SuperpositionSpec,
    bloch_compose,
    bloch_decompose,
    check_density,
    normalization,
    partial_trace,
    pure_split,
    qubit_map_coeffs,
    reduced_pair_density,
)
from conftest import random_density, random_spec

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


def test_normalization_frozen_value():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.EVEN)
    assert abs(normalization(spec) - 0.6324555320336759) < 1e-16
    odd = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.ODD)
    assert abs(normalization(odd) - 1.0 / math.sqrt(1.5)) < 1e-15


def test_near_null_superposition_rejected_at_construction():
    with pytest.raises(DivergentNormalizationError):
        SuperpositionSpec(overlaps=(1.0, 1.0 - 1e-16), parity=Parity.ODD)
    # the same product one ulp further from 1 is accepted
    spec = SuperpositionSpec(overlaps=(1.0, 1.0 - 1e-13), parity=Parity.ODD)
    assert normalization(spec) > 1e5


def test_qubit_map_frozen_values():
    a, b = qubit_map_coeffs(0.5)
    assert abs(a - 0.8660254037844386) < 1e-16
    assert abs(b - 0.5) < 1e-16
    assert qubit_map_coeffs(1.0) == (1.0, 0.0)
    a0, b0 = qubit_map_coeffs(0.0)
    assert abs(a0 - b0) < 1e-16
    with pytest.raises(DomainError):
        qubit_map_coeffs(1.5)


def test_omitted_product_example_and_validation():
    spec = SuperpositionSpec(overlaps=(0.3, 0.5, 0.7, 0.9))
    assert abs(spec.omitted_product(2, 3) - 0.27) < 1e-15
    assert spec.omitted_product(1, 2) == 0.7 * 0.9
    two = SuperpositionSpec(overlaps=(0.4, 0.6))
    assert two.omitted_product(1, 2) == 1.0
    with pytest.raises(DomainError):
        spec.omitted_product(1, 1)
    with pytest.raises(DomainError):
        spec.omitted_product(0, 2)
    with pytest.raises(DomainError):
        spec.omitted_product(1, 5)


def test_pure_split_even_sector_and_norm():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5), parity=Parity.EVEN)
    split = pure_split(spec, 1)
    assert split.c01 == 0.0 and split.c10 == 0.0
    assert abs(np.sum(split.amplitudes ** 2) - 1.0) < 1e-14
    # concurrence of this frozen case is 0.6
    assert abs(2.0 * split.c00 * split.c11 - 0.6) < 1e-15
    assert abs(split.schmidt_plus + split.schmidt_minus - 1.0) < 1e-15
    assert abs(split.schmidt_plus - 0.9) < 1e-15


def test_pure_split_odd_sector():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.ODD)
    split = pure_split(spec, 1)
    assert split.c00 == 0.0 and split.c11 == 0.0
    assert abs(np.sum(split.amplitudes ** 2) - 1.0) < 1e-14
    with pytest.raises(DomainError):
        pure_split(spec, 3)
    with pytest.raises(DomainError):
        pure_split(spec, 0)


def test_pure_split_projector_is_valid_density():
    spec = SuperpositionSpec(overlaps=(0.3, 0.8, 0.6), parity=Parity.ODD)
    rho = pure_split(spec, 2).projector()
    check_density(rho)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-13


def test_reduced_pair_density_frozen_x_structure():
    spec = SuperpositionSpec(overlaps=(0.5, 0.5, 0.5), parity=Parity.EVEN)
    rho = reduced_pair_density(spec, 1, 2)
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
    rho = reduced_pair_density(spec, 1, 2)
    expected = np.array([
        [0.25, 0.0, 0.0, 0.25],
        [0.0, 0.25, 0.25, 0.0],
        [0.0, 0.25, 0.25, 0.0],
        [0.25, 0.0, 0.0, 0.25],
    ])
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_reduced_pair_density_matches_partial_trace_of_split():
    # with two modes the pair density is the split projector itself
    for parity in (Parity.EVEN, Parity.ODD):
        spec = SuperpositionSpec(overlaps=(0.3, 0.7), parity=parity)
        rho = reduced_pair_density(spec, 1, 2)
        proj = pure_split(spec, 1).projector()
        assert np.max(np.abs(rho - proj)) < 1e-14


@settings(max_examples=150, deadline=None)
@given(spec_strategy)
def test_reduced_pair_density_is_density(params):
    spec = _build(*params)
    rho = reduced_pair_density(spec, 1, spec.n)
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
    bloch = bloch_decompose(reduced_pair_density(spec, 1, 2))
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
        rho = reduced_pair_density(spec, i, j)
        bloch = bloch_decompose(rho)
        left = partial_trace(rho, 1)
        right = partial_trace(rho, 2)
        assert abs(left[0, 0].real - 0.5 * (1.0 + bloch.x[2])) < 1e-13
        assert abs(right[0, 0].real - 0.5 * (1.0 + bloch.y[2])) < 1e-13
        assert abs(np.trace(left).real - 1.0) < 1e-13


def test_partial_trace_of_product():
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    rho = np.kron(a, b)
    assert np.max(np.abs(partial_trace(rho, 1) - a)) < 1e-15
    assert np.max(np.abs(partial_trace(rho, 2) - b)) < 1e-15
    with pytest.raises(DomainError):
        partial_trace(rho, 3)
