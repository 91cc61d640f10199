import math

import numpy as np
import pytest

from catcorr import Parity, SuperpositionSpec
from catcorr.errors import CatcorrError


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def random_spec(rng, n_min=2, n_max=8, parity=None, extremes=True):
    """Random superposition spec; occasionally pins overlaps to 0 or 1.

    Retries on the null odd state so callers never see it.
    """
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        ps = rng.uniform(0.0, 1.0, size=n)
        if extremes:
            pin = rng.uniform(size=n) < 0.1
            ps[pin] = np.round(rng.uniform(size=pin.sum()))
        chosen = parity if parity is not None else (
            Parity.EVEN if rng.uniform() < 0.5 else Parity.ODD)
        try:
            return SuperpositionSpec(overlaps=tuple(ps), parity=chosen)
        except CatcorrError:
            continue


def normalization(spec):
    """N = (2 + 2 cos(m pi) prod p)^(-1/2) of a spec, or of each point of a grid
    spec, expanded as the textbook writes it: the tests' own reference value."""
    return 1.0 / np.sqrt(2.0 + 2.0 * math.prod(spec.overlaps) * spec.parity.sign)


def pure_cut(spec, k):
    """The pair inputs of the pure split 1..k | k+1..n: nothing traced out."""
    return spec.pair(tuple(range(1, k + 1)), tuple(range(k + 1, spec.n + 1)))


def random_pair(rng, n):
    i, j = sorted(int(x) + 1 for x in rng.choice(n, size=2, replace=False))
    return i, j


def random_density(rng, dim=4):
    """Full-rank random density matrix, Ginibre construction."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_qubit(rng):
    """Haar-random single-qubit unitary via QR of a complex Gaussian."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def swap_qubits(rho):
    """rho, or each member of a (..., 4, 4) stack, with its two qubits
    exchanged: the library measures the first qubit, so this measures the
    second. For one density it is rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)."""
    rho = np.asarray(rho)
    lead = rho.shape[:-2]
    return rho.reshape(lead + (2, 2, 2, 2)).swapaxes(-4, -3).swapaxes(-2, -1).reshape(lead + (4, 4))


def marginal(rho, keep):
    """The single-qubit marginal of a two-qubit density, qubit keep = 1 or 2."""
    return np.einsum("ajbj->ab" if keep == 1 else "iaib->ab", np.reshape(rho, (2, 2, 2, 2)))
