"""Dense eigensolvers for the small matrices this package cares about.

Both the real symmetric 3x3 measurement matrices and the complex
Hermitian 4x4 problems (spin-flip spectra, matrix square roots) go
through LAPACK via numpy. Eigenvalues are always returned in
descending order. The discord routes stay independent through the
measurement search, which needs no eigensolver, not through a
separate implementation here.
"""

import numpy as np

from .errors import DomainError


def _descending(a: np.ndarray, vectors: bool, name: str, kind: str):
    """Symmetrized LAPACK eigensolve of a, or of each matrix of a (..., k, k)
    stack, largest eigenvalue first."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"{name} expects a square matrix")
    adjoint = a.conj().swapaxes(-1, -2)
    if np.max(np.abs(a - adjoint)) > 1e-10:
        raise DomainError(f"{name} expects a {kind} matrix (within 1e-10)")
    values, vecs = np.linalg.eigh(0.5 * (a + adjoint))
    if vectors:
        return values[..., ::-1].copy(), vecs[..., ::-1].copy()
    return values[..., ::-1].copy()


def eig_sym(matrix, vectors: bool = False):
    """Eigenvalues (descending) of a small real symmetric matrix, or of
    each matrix of a (..., k, k) stack.

    With vectors=True also returns the orthonormal eigenvectors as
    columns, matching the eigenvalue order.
    """
    return _descending(np.array(matrix, dtype=float), vectors, "eig_sym", "symmetric")


def eig_herm(matrix, vectors: bool = False):
    """Real eigenvalues (descending) of a complex Hermitian matrix."""
    return _descending(np.array(matrix, dtype=complex), vectors, "eig_herm", "Hermitian")


def sqrtm_psd(matrix) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues within rounding noise below zero are clipped to zero.
    """
    values, vecs = eig_herm(matrix, vectors=True)
    values = np.clip(values, 0.0, None)
    return (vecs * np.sqrt(values)) @ vecs.conj().T
