import numpy as np
import pytest

from catcorr.errors import DomainError
from catcorr.linalg import eig_herm, eig_sym, sqrtm_psd


def test_eig_sym_matches_lapack_on_random_matrices(rng):
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=(dim, dim))
        a = a + a.T
        ours = eig_sym(a)
        theirs = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(ours - theirs)) < 1e-12


def test_eig_sym_of_a_stack_is_each_matrix_alone(rng):
    a = rng.normal(size=(5, 2, 3, 3))
    a = a + np.swapaxes(a, -1, -2)
    values, vecs = eig_sym(a, vectors=True)
    for idx in np.ndindex(5, 2):
        alone, alone_vecs = eig_sym(a[idx], vectors=True)
        assert np.array_equal(values[idx], alone) and np.array_equal(vecs[idx], alone_vecs)


def test_eig_sym_vectors_reconstruct_matrix(rng):
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        a = a + a.T
        values, vecs = eig_sym(a, vectors=True)
        assert np.max(np.abs(vecs @ np.diag(values) @ vecs.T - a)) < 1e-12
        assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) < 1e-12


def test_eig_sym_descending_and_exact_on_diagonal():
    values = eig_sym(np.diag([0.25, 2.0, -1.0]))
    assert values.tolist() == [2.0, 0.25, -1.0]


def test_eig_sym_handles_degenerate_spectrum():
    values = eig_sym(np.eye(3) * 0.5)
    assert np.allclose(values, 0.5, atol=0)


def test_eig_sym_rejects_nonsymmetric():
    with pytest.raises(DomainError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        eig_sym(np.zeros((2, 3)))


def test_eig_herm_matches_eigvalsh(rng):
    for _ in range(100):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        assert np.max(np.abs(eig_herm(h) - np.linalg.eigvalsh(h)[::-1])) < 1e-12


def test_eig_herm_rejects_nonhermitian():
    with pytest.raises(DomainError):
        eig_herm(np.array([[0.0, 1.0j], [1.0j, 0.0]]))


def test_sqrtm_psd_squares_back(rng):
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psd = g @ g.conj().T
        root = sqrtm_psd(psd)
        assert np.max(np.abs(root @ root - psd)) < 1e-10
        assert np.max(np.abs(root - root.conj().T)) < 1e-12


def test_sqrtm_psd_clips_rounding_negatives():
    # projector with a -1e-14 eigenvalue perturbation must not yield NaN
    eps = 1e-14
    m = np.diag([1.0, -eps, 0.0, 0.5])
    root = sqrtm_psd(m)
    assert not np.any(np.isnan(root))
    assert np.max(np.abs(root @ root - np.diag([1.0, 0.0, 0.0, 0.5]))) < 1e-7
