"""Quantum channels in Kraus, supermatrix, and Choi form, plus fidelity formulas.

Operator vectorization is column-stacking: vec(rho) = rho.flatten(order="F"),
the unique convention for which the supermatrix of a Kraus channel is
literally sum_k conj(A_k) (x) A_k.  A round-trip unit test pins this.

The depolarizing channel is parametrized as rho -> p rho + (1-p) I/d (p = 1 is
the identity); the single-qubit noise channels keep the e0 = sqrt(p) I
convention, i.e. they act as the identity with probability p.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import SUPERMATRIX_DIM_CAP, dagger, hermitian_eig, tensor

__all__ = [
    "KrausChannel",
    "Supermatrix",
    "ChoiMatrix",
    "vec",
    "unvec",
    "identity_channel",
    "unitary_channel",
    "depolarizing",
    "standard_noise",
    "generalized_paulis",
    "kraus_to_supermatrix",
    "supermatrix_to_choi",
    "choi_to_kraus",
    "avg_fidelity_exact",
    "entanglement_fidelity",
    "avg_from_entanglement",
    "invariant_decompose",
    "channel_to_json",
    "channel_from_json",
]

TP_TOL = 1e-8


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(math.sqrt(v.size)))
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map rho -> sum_k A_k rho A_k^dagger."""

    dim: int
    kraus: tuple[np.ndarray, ...]
    trace_preserving: bool = field(init=False)
    # max |sum_k A_k^dagger A_k - I|, the deviation from trace preservation
    _completeness_error: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("need at least one Kraus operator")
        for a in self.kraus:
            if a.shape != (self.dim, self.dim):
                raise ValueError(f"Kraus operator shape {a.shape} does not match dim {self.dim}")
        # a loop of d x d products: as fast as one product over the stacked
        # operators, which would first copy all K d^2 entries, twice
        total = sum(dagger(a) @ a for a in self.kraus)
        err = float(np.abs(total - np.eye(self.dim)).max())
        object.__setattr__(self, "_completeness_error", err)
        object.__setattr__(self, "trace_preserving", err <= TP_TOL)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"state shape {rho.shape} does not match channel dim {self.dim}")
        out = np.zeros_like(rho)
        for a in self.kraus:
            out += a @ rho @ dagger(a)
        return out

    def compose_unitary_inverse(self, u: np.ndarray) -> "KrausChannel":
        """The cumulative-noise channel with the target unitary factored out:
        Kraus operators A_k u^dagger."""
        return KrausChannel(self.dim, tuple(a @ dagger(u) for a in self.kraus))


@dataclass(frozen=True)
class Supermatrix:
    """d^2 x d^2 matrix acting on column-stacked operators."""

    dim: int
    mat: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.mat @ vec(rho))


@dataclass(frozen=True)
class ChoiMatrix:
    dim: int
    mat: np.ndarray


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(d, (np.eye(d, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    return KrausChannel(u.shape[0], (u,))


def generalized_paulis(d: int) -> list[np.ndarray]:
    """The d^2 operators X^a Z^b with X the cyclic shift and Z the clock."""
    om = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1
    z = np.diag(om ** np.arange(d))
    out = []
    xa = np.eye(d, dtype=complex)
    for _ in range(d):
        zb = np.eye(d, dtype=complex)
        for _ in range(d):
            out.append(xa @ zb)
            zb = zb @ z
        xa = xa @ x
    return out


def _check_kraus_dim(d: int) -> None:
    """A channel given as up to d^2 dense d x d operators holds d^4 numbers,
    as many as its supermatrix: cap d^2 before allocating any of them."""
    if d < 1 or d * d > SUPERMATRIX_DIM_CAP:
        raise ValueError(f"channel dimension {d} outside 1..{math.isqrt(SUPERMATRIX_DIM_CAP)} "
                         f"(d^2 is capped at {SUPERMATRIX_DIM_CAP})")


def depolarizing(d: int, p: float) -> KrausChannel:
    """rho -> p rho + (1-p) I/d, realized as a generalized-Pauli mixture with
    weight p + (1-p)/d^2 on the identity and (1-p)/d^2 on each other Pauli."""
    _check_kraus_dim(d)
    if not 0 <= p <= 1:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    paulis = generalized_paulis(d)
    w_id = p + (1 - p) / d**2
    w_other = (1 - p) / d**2
    ops = [math.sqrt(w_id) * paulis[0]]
    if w_other > 0:
        ops.extend(math.sqrt(w_other) * q for q in paulis[1:])
    return KrausChannel(d, tuple(ops))


_NOISE_OPS = {
    "bit_flip": np.array([[0, 1], [1, 0]], dtype=complex),
    "phase_flip": np.diag([1, -1]).astype(complex),
    "bit_phase_flip": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def standard_noise(kind: str, p: float) -> KrausChannel:
    """Two-Kraus qubit channel sqrt(p) I, sqrt(1-p) E with E in {X, Z, Y}."""
    if kind not in _NOISE_OPS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if not 0 <= p <= 1:
        raise ValueError(f"noise parameter {p} outside [0, 1]")
    ops = []
    if p > 0:
        ops.append(math.sqrt(p) * np.eye(2, dtype=complex))
    if p < 1:
        ops.append(math.sqrt(1 - p) * _NOISE_OPS[kind])
    return KrausChannel(2, tuple(ops))


def kraus_to_supermatrix(ch: KrausChannel) -> Supermatrix:
    mat = np.zeros((ch.dim**2, ch.dim**2), dtype=complex)
    for a in ch.kraus:
        mat += np.kron(a.conj(), a)
    return Supermatrix(ch.dim, mat)


def supermatrix_to_choi(s: Supermatrix) -> ChoiMatrix:
    """Choi matrix sum_ij (E_ij (x) I) S (I (x) E_ij)."""
    d = s.dim
    eye = np.eye(d, dtype=complex)
    out = np.zeros((d**2, d**2), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1
            out += tensor(e, eye) @ s.mat @ tensor(eye, e)
    return ChoiMatrix(d, out)


def choi_to_kraus(x: ChoiMatrix, drop_tol: float = 1e-10, neg_tol: float = 1e-8) -> KrausChannel:
    """Kraus operators sqrt(lambda_k) unvec(eigvec_k) of the Choi matrix.

    Eigenvalues in (-neg_tol, 0) are clipped to zero; anything more negative
    means the map is not completely positive and raises.
    """
    w, v = hermitian_eig(x.mat)
    if w.min() < -neg_tol:
        raise ValueError(f"Choi matrix has significantly negative eigenvalue {w.min():.3e}")
    ops = []
    for k in range(w.size - 1, -1, -1):
        lam = max(float(w[k]), 0.0)
        if lam <= drop_tol:
            continue
        ops.append(math.sqrt(lam) * unvec(v[:, k]))
    if not ops:
        raise ValueError("Choi matrix is numerically zero")
    return KrausChannel(x.dim, tuple(ops))


def avg_fidelity_exact(u: np.ndarray, ch: KrausChannel) -> float:
    """Closed-form average gate fidelity (sum_k |tr A_k u^dagger|^2 + d) / (d^2 + d)."""
    if not ch.trace_preserving:
        raise ValueError("average fidelity formula requires a trace-preserving channel")
    d = ch.dim
    total = sum(abs(np.trace(a @ dagger(u))) ** 2 for a in ch.kraus)
    return float((total + d) / (d**2 + d))


def _sum_abs_trace_sq(stack: np.ndarray) -> float:
    """sum_k |tr A_k|^2 over a (K, d, d) stack of Kraus operators."""
    return float((np.abs(np.trace(stack, axis1=1, axis2=2)) ** 2).sum())


def entanglement_fidelity(ch: KrausChannel) -> float:
    """<phi| (I (x) E)(|phi><phi|) |phi> for the maximally entangled phi, in
    closed form: <phi| I (x) A_k |phi> = tr(A_k)/d, so F_e = sum_k |tr A_k|^2 / d^2."""
    return _sum_abs_trace_sq(np.asarray(ch.kraus)) / ch.dim**2


def avg_from_entanglement(d: int, f_e: float) -> float:
    return (d * f_e + 1) / (d + 1)


def invariant_decompose(s) -> tuple[complex, complex]:
    """Parameters (p, q) of the twirl-invariant form Lambda(X) = p X + q tr(X) I/d.

    p = (tr S - tr Lambda(I)/d) / (d^2 - 1), q = tr Lambda(I)/d - p; accepts a
    Supermatrix or a KrausChannel.  For Kraus operators A_k both traces have
    closed forms, tr S = sum_k |tr A_k|^2 and tr Lambda(I) = sum_k ||A_k||_F^2,
    so no supermatrix is built.
    """
    d = s.dim
    if d < 2:
        raise ValueError("the twirl-invariant form needs dimension d >= 2")
    if isinstance(s, KrausChannel):
        stack = np.asarray(s.kraus)
        tr_hat = complex(_sum_abs_trace_sq(stack))
        tr_on_id = complex((np.abs(stack) ** 2).sum())
    else:
        tr_hat = complex(np.trace(s.mat))
        tr_on_id = complex(np.trace(s.apply(np.eye(d, dtype=complex))))
    p = (tr_hat - tr_on_id / d) / (d**2 - 1)
    q = tr_on_id / d - p
    return p, q


def channel_to_json(ch: KrausChannel) -> str:
    """JSON form {"dim": d, "kraus": [[[re, im], ...row-major], ...]}."""
    pairs = np.asarray(ch.kraus, dtype=complex).view(float).reshape(len(ch.kraus), -1, 2)
    # tolist() builds a fresh tree of lists, so there is no cycle to look for
    return json.dumps({"dim": ch.dim, "kraus": pairs.tolist()}, sort_keys=True, check_circular=False)


def channel_from_json(text: str, completeness_tol: float = 1e-6) -> KrausChannel:
    """Parse channel_to_json's form; every malformed input raises ValueError,
    naming the Kraus entry at fault."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not {"dim", "kraus"} <= payload.keys():
        raise ValueError('channel JSON must be an object with keys "dim" and "kraus"')
    d, entries = payload["dim"], payload["kraus"]
    if type(d) is not int:
        raise ValueError(f"channel dim must be an integer, got {d!r}")
    _check_kraus_dim(d)
    if not isinstance(entries, list) or not entries:
        raise ValueError("channel kraus must be a non-empty list of Kraus entries")
    ops = []
    for k, entry in enumerate(entries):
        try:
            pairs = np.array(entry, dtype=float)
        except (TypeError, ValueError, OverflowError):  # ragged, or not a number
            pairs = None
        if pairs is None or pairs.shape != (d * d, 2) or not np.isfinite(pairs).all():
            raise ValueError(f"Kraus entry {k} is not {d * d} pairs [re, im] of finite numbers")
        ops.append(pairs.view(complex).reshape(d, d))
    ch = KrausChannel(d, tuple(ops))
    if ch._completeness_error > completeness_tol:
        raise ValueError("Kraus operators fail the completeness check")
    return ch
