"""Traces, the Hermitian eigensolver and the random draws."""

import numpy as np
import pytest

from qdesigns.linalg import (
    basis_state,
    dagger,
    hermitian_eig,
    random_complex_matrix,
    random_density,
    random_kraus_channel_ops,
)

from helpers import random_hermitian, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_orthogonality_qutrit():
    # tr((X^a Z^b)^dag X^a' Z^b') = d delta delta at d = 3
    d = 3
    om = np.exp(2j * np.pi / d)
    xd = np.zeros((d, d), dtype=complex)
    for j in range(d):
        xd[(j + 1) % d, j] = 1
    zd = np.diag([om**j for j in range(d)])
    paulis = {(a, b): np.linalg.matrix_power(xd, a) @ np.linalg.matrix_power(zd, b)
              for a in range(d) for b in range(d)}
    for (a, b), p in paulis.items():
        for (a2, b2), q in paulis.items():
            want = d if (a, b) == (a2, b2) else 0
            assert abs(np.vdot(p, q) - want) < 1e-9


def test_hermitian_eig_paulis():
    w, v = hermitian_eig(Z)
    assert np.allclose(w, [-1, 1])
    w, v = hermitian_eig(X)
    assert np.allclose(w, [-1, 1])
    minus = (basis_state(2, 0) - basis_state(2, 1)) / np.sqrt(2)
    plus = (basis_state(2, 0) + basis_state(2, 1)) / np.sqrt(2)
    assert np.abs(v[:, 0] - minus).max() < 1e-9  # oriented: first component positive
    assert np.abs(v[:, 1] - plus).max() < 1e-9


def test_hermitian_eig_reconstruction_and_orientation():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 8)
    w, v = hermitian_eig(a)
    assert np.abs(v @ np.diag(w) @ v.conj().T - a).max() < 1e-8 * max(1.0, np.abs(a).max())
    assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-10
    assert all(w[i] <= w[i + 1] + 1e-12 for i in range(7))
    with pytest.raises(ValueError):
        hermitian_eig(random_complex_matrix(rng, 4))


def test_trace_invariant_under_random_unitaries():
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = random_unitary(rng, 5)
        assert np.abs(u @ dagger(u) - np.eye(5)).max() < 1e-10
        a = random_complex_matrix(rng, 5)
        assert abs(np.trace(u @ a @ dagger(u)) - np.trace(a)) < 1e-10


def test_random_state_and_kraus_helpers():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 7)
    assert abs(np.trace(rho) - 1) < 1e-12 and np.linalg.eigvalsh(rho).min() > -1e-12
    ops = random_kraus_channel_ops(rng, 3, 4)
    total = sum(dagger(a) @ a for a in ops)
    assert np.abs(total - np.eye(3)).max() < 1e-10
