"""Dense complex linear algebra: the numerical substrate for every other module.

States are 1-D complex128 ndarrays, operators 2-D.  Qudit registers use
little-endian digit order: qudit j carries the base-d digit of weight d^j of
the computational-basis index.  All functions are pure; nothing here mutates
its inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dagger",
    "hermitian_eig",
    "is_hermitian",
    "basis_state",
    "random_complex_matrix",
    "random_density",
    "random_kraus_channel_ops",
]

SUPERMATRIX_DIM_CAP = 4096
HERMITIAN_TOL = 1e-8  # largest max |a - a^dagger| of a matrix taken as Hermitian


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and np.abs(a - a.conj().T).max() <= HERMITIAN_TOL


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Returns (eigenvalues ascending, eigenvector columns).  Each eigenvector is
    oriented so that its first component of magnitude above 1e-8 is real and
    positive, which pins the result across runs; all columns are divided by
    their pivot phases at once.  A unit column of length n has an entry of at
    least 1/sqrt(n), which is above 1e-8 for any n below 10^16 (1/64 at the
    supermatrix cap of 4096), so every column has such a pivot.
    """
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    pivots = v[np.argmax(np.abs(v) > 1e-8, axis=0), np.arange(v.shape[1])]
    return w, v / (pivots / np.abs(pivots))


def basis_state(dim: int, index: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def random_complex_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = random_complex_matrix(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_kraus_channel_ops(rng: np.random.Generator, d: int, n_kraus: int) -> list[np.ndarray]:
    """Random trace-preserving Kraus set: Gaussian operators normalized by
    the inverse square root of sum A^dagger A."""
    raw = [random_complex_matrix(rng, d) for _ in range(n_kraus)]
    s = sum(a.conj().T @ a for a in raw)
    w, v = hermitian_eig(s)
    s_inv_sqrt = v @ np.diag(1 / np.sqrt(w)) @ v.conj().T
    return [a @ s_inv_sqrt for a in raw]
