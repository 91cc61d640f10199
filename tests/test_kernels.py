import math

import pytest
from hypothesis import given, strategies as st

from catcorr.errors import DomainError, UnsupportedOverlapError
from catcorr.kernels import WEYL_HEISENBERG, Family, FamilyParams, overlap, su2, su11


def test_wh_overlap_is_gaussian_in_label():
    assert overlap(0.0, WEYL_HEISENBERG) == 1.0
    # |z|^2 = ln(2)/2 lands exactly on p = 1/2
    z = math.sqrt(math.log(2.0) / 2.0)
    assert abs(overlap(z, WEYL_HEISENBERG) - 0.5) < 1e-15
    assert abs(overlap(1.0, WEYL_HEISENBERG) - math.exp(-2.0)) < 1e-15


def test_wh_overlap_depends_only_on_modulus():
    assert overlap(0.3 + 0.4j, WEYL_HEISENBERG) == overlap(0.5, WEYL_HEISENBERG)


def test_su2_overlap_frozen_values():
    # j = 1/2, z = 1/sqrt(3): ratio = (2/3)/(4/3) = 1/2
    assert abs(overlap(1.0 / math.sqrt(3.0), su2(1)) - 0.5) < 1e-15
    assert abs(overlap(0.5, su2(2)) - 0.36) < 1e-15
    assert overlap(1.0, su2(3)) == 0.0


def test_su2_negative_overlap_rejected():
    with pytest.raises(UnsupportedOverlapError):
        overlap(2.0, su2(1))
    # even 2j squares the negative ratio away
    assert abs(overlap(2.0, su2(2)) - 0.36) < 1e-15


def test_su11_overlap_and_domain():
    assert abs(overlap(0.5, su11(0.5)) - 0.6) < 1e-15
    assert abs(overlap(0.5, su11(1.0)) - 0.36) < 1e-15
    with pytest.raises(DomainError):
        overlap(1.0, su11(1.0))
    with pytest.raises(DomainError):
        overlap(1.5, su11(0.25))


def test_overlap_rejects_non_finite_labels():
    # exp(-inf) would read as orthogonal branches and nan as an overlap
    for params in (WEYL_HEISENBERG, su2(2), su11(1.0)):
        for z in (math.inf, -math.inf, math.nan, complex(math.inf, 0.0)):
            with pytest.raises(DomainError, match="must be finite"):
                overlap(z, params)
        # finite labels whose |z| or |z|^2 leaves the float range
        for z in (1e200, -1e160, complex(1e200, 0.0), complex(1e308, 1e308)):
            with pytest.raises(DomainError, match="overflows"):
                overlap(z, params)


def test_family_label_validation():
    with pytest.raises(DomainError):
        su2(0)
    with pytest.raises(DomainError):
        su2(-2)
    with pytest.raises(DomainError):
        su11(0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            su11(bad)
        with pytest.raises(DomainError):
            su2(bad)
    with pytest.raises(DomainError):
        FamilyParams(Family.SU2, twice_j=2, bargmann_index=1.0)
    with pytest.raises(DomainError):
        FamilyParams(Family.WEYL_HEISENBERG, twice_j=2)
    with pytest.raises(DomainError):
        FamilyParams(Family.SU11)


@given(st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
def test_wh_overlap_in_unit_interval(radius):
    value = overlap(radius, WEYL_HEISENBERG)
    assert 0.0 <= value <= 1.0


@given(st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
       st.integers(min_value=1, max_value=9))
def test_su2_overlap_monotone_in_label_inside_disc(radius, twice_j):
    value = overlap(radius, su2(twice_j))
    assert 0.0 <= value <= 1.0
    # larger spin means a faster-decaying overlap
    assert overlap(radius, su2(twice_j + 1)) <= value + 1e-15


@given(st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
       st.floats(min_value=0.01, max_value=5.0, allow_nan=False))
def test_su11_overlap_in_unit_interval(radius, index):
    value = overlap(radius, su11(index))
    assert 0.0 <= value <= 1.0
