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

from .linalg import SUPERMATRIX_DIM_CAP, dagger, hermitian_eig

__all__ = [
    "KrausChannel",
    "Supermatrix",
    "ChoiMatrix",
    "vec",
    "unvec",
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

TP_TOL = 1e-8  # largest max |sum_k A_k^dagger A_k - I| of a trace-preserving channel
_CHOI_NEG_TOL = 1e-8  # Choi eigenvalues in (-_CHOI_NEG_TOL, 0) are rounding and clip to 0
_CHOI_DROP_TOL = 1e-10  # Choi eigenvalues at or below this give no Kraus operator


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(math.sqrt(v.size)))
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive map rho -> sum_k A_k rho A_k^dagger, its operators
    held as one complex (K, d, d) array (a stack given that way is not copied).
    Channels compare and hash by identity: == on the arrays has no truth value."""

    dim: int
    kraus: np.ndarray
    trace_preserving: bool = field(init=False)

    def __post_init__(self):
        kraus = np.ascontiguousarray(self.kraus, dtype=complex)
        if kraus.ndim != 3 or kraus.shape[1:] != (self.dim, self.dim) or not len(kraus):
            raise ValueError(f"Kraus operators of shape {kraus.shape} do not form "
                             f"a non-empty (K, {self.dim}, {self.dim}) stack")
        object.__setattr__(self, "kraus", kraus)
        # a loop of d x d products: as fast as one product over the stack,
        # which would first copy all K d^2 entries, twice
        total = sum(dagger(a) @ a for a in kraus)
        err = float(np.abs(total - np.eye(self.dim)).max())
        object.__setattr__(self, "trace_preserving", err <= TP_TOL)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"state shape {rho.shape} does not match channel dim {self.dim}")
        # sum_k (A_k rho) A_k^dagger as one contraction over k and the inner index
        return np.tensordot(self.kraus @ rho, self.kraus.conj(), axes=([0, 2], [0, 2]))

    def compose_unitary_inverse(self, u: np.ndarray) -> "KrausChannel":
        """The cumulative-noise channel with the target unitary factored out:
        Kraus operators A_k u^dagger."""
        return KrausChannel(self.dim, self.kraus @ dagger(u))


@dataclass(frozen=True, eq=False)
class Supermatrix:
    """d^2 x d^2 matrix acting on column-stacked operators."""

    dim: int
    mat: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.mat @ vec(rho))


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    dim: int
    mat: np.ndarray


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    return KrausChannel(u.shape[0], (u,))


def generalized_paulis(d: int) -> np.ndarray:
    """The d^2 operators X^a Z^b (X the cyclic shift, Z the clock) as one
    (d^2, d, d) stack, index a*d + b.  Column j of X^a Z^b holds omega^(b j)
    at row (j + a) mod d, so one table of exponents b j mod d fills it."""
    j = np.arange(d)
    roots = np.exp(2j * np.pi * j / d)
    a, b, col = j[:, None, None], j[None, :, None], j[None, None, :]
    out = np.zeros((d, d, d, d), dtype=complex)
    out[a, b, (col + a) % d, col] = roots[(b * col) % d]
    return out.reshape(d * d, d, d)


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
    ops = generalized_paulis(d)
    w_other = (1 - p) / d**2
    if w_other == 0:
        ops = ops[:1].copy()  # not a view that keeps all d^2 operators alive
    ops[0] *= math.sqrt(p + w_other)
    ops[1:] *= math.sqrt(w_other)
    return KrausChannel(d, ops)


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
    ops = np.array([math.sqrt(p) * np.eye(2, dtype=complex), math.sqrt(1 - p) * _NOISE_OPS[kind]])
    return KrausChannel(2, ops[[p > 0, p < 1]])  # a zero-weight operator is left out


def kraus_to_supermatrix(ch: KrausChannel) -> Supermatrix:
    """sum_k conj(A_k) (x) A_k, as one Gram product of the flattened operators:
    entry (i d + k, j d + l) is sum_m conj(A_m[i, j]) A_m[k, l]."""
    d = ch.dim
    _check_kraus_dim(d)
    flat = ch.kraus.reshape(len(ch.kraus), d * d)
    gram = flat.conj().T @ flat
    return Supermatrix(d, gram.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d))


def supermatrix_to_choi(s: Supermatrix) -> ChoiMatrix:
    """Choi matrix sum_ij (E_ij (x) I) S (I (x) E_ij), which reshuffles the
    entries of S: Choi[(a, b), (c, e)] = S[(e, b), (c, a)]."""
    d = s.dim
    _check_kraus_dim(d)
    return ChoiMatrix(d, s.mat.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d))


def choi_to_kraus(x: ChoiMatrix) -> KrausChannel:
    """Kraus operators sqrt(lambda_k) unvec(eigvec_k) of the Choi matrix, in
    descending order of lambda_k.

    Eigenvalues in (-_CHOI_NEG_TOL, 0) are clipped to zero; anything more
    negative means the map is not completely positive and raises.
    """
    w, v = hermitian_eig(x.mat)
    if w.min() < -_CHOI_NEG_TOL:
        raise ValueError(f"Choi matrix has significantly negative eigenvalue {w.min():.3e}")
    lam = np.maximum(w, 0.0)
    keep = np.flatnonzero(lam > _CHOI_DROP_TOL)[::-1]
    if not keep.size:
        raise ValueError("Choi matrix is numerically zero")
    d = x.dim
    # column k of v is vec(A_k) column-stacked, so row k of v.T reshapes to A_k^T
    ops = (v[:, keep].T * np.sqrt(lam[keep])[:, None]).reshape(keep.size, d, d)
    return KrausChannel(d, ops.transpose(0, 2, 1))


def avg_fidelity_exact(u: np.ndarray, ch: KrausChannel) -> float:
    """Closed-form average gate fidelity (sum_k |tr A_k u^dagger|^2 + d) / (d^2 + d),
    with tr(A u^dagger) the inner product of the flattened A and conj(u)."""
    if not ch.trace_preserving:
        raise ValueError("average fidelity formula requires a trace-preserving channel")
    d = ch.dim
    if np.shape(u) != (d, d):
        raise ValueError(f"unitary shape {np.shape(u)} does not match channel dim {d}")
    traces = ch.kraus.reshape(len(ch.kraus), d * d) @ np.conj(u).reshape(d * d)
    return float((np.vdot(traces, traces).real + d) / (d**2 + d))


def _kraus_traces(ch: KrausChannel) -> tuple[float, float]:
    """(sum_k |tr A_k|^2, sum_k ||A_k||_F^2): the traces of the channel's
    supermatrix and of Lambda(I), without building either."""
    traces = np.trace(ch.kraus, axis1=1, axis2=2)
    mod_sq = np.abs(ch.kraus)
    mod_sq *= mod_sq  # in place: the one temporary is K d^2 floats
    return float((np.abs(traces) ** 2).sum()), float(mod_sq.sum())


def entanglement_fidelity(ch: KrausChannel) -> float:
    """<phi| (I (x) E)(|phi><phi|) |phi> for the maximally entangled phi, in
    closed form: <phi| I (x) A_k |phi> = tr(A_k)/d, so F_e = sum_k |tr A_k|^2 / d^2."""
    return _kraus_traces(ch)[0] / ch.dim**2


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
        tr_hat, tr_on_id = _kraus_traces(s)
    else:
        tr_hat = complex(np.trace(s.mat))
        tr_on_id = complex(np.trace(s.apply(np.eye(d, dtype=complex))))
    return _invariant_pq(tr_hat, tr_on_id, d)


def _invariant_pq(tr_hat, tr_on_id, d: int):
    """(p, q) of the twirl-invariant form p X + q tr(X) I/d of a map with
    supermatrix trace tr_hat and tr Lambda(I) = tr_on_id."""
    p = (tr_hat - tr_on_id / d) / (d**2 - 1)
    return p, tr_on_id / d - p


def channel_to_json(ch: KrausChannel) -> str:
    """JSON form {"dim": d, "kraus": [[[re, im], ...row-major], ...]}."""
    pairs = ch.kraus.view(float).reshape(len(ch.kraus), -1, 2)
    # tolist() builds a fresh tree of lists, so there is no cycle to look for
    return json.dumps({"dim": ch.dim, "kraus": pairs.tolist()}, sort_keys=True, check_circular=False)


def channel_from_json(text: str) -> KrausChannel:
    """Parse channel_to_json's form into a trace-preserving channel; every
    malformed input raises ValueError, naming the Kraus entry at fault."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not {"dim", "kraus"} <= payload.keys():
        raise ValueError('channel JSON must be an object with keys "dim" and "kraus"')
    d, entries = payload["dim"], payload["kraus"]
    if type(d) is not int:
        raise ValueError(f"channel dim must be an integer, got {d!r}")
    _check_kraus_dim(d)
    if not isinstance(entries, list) or not entries:
        raise ValueError("channel kraus must be a non-empty list of Kraus entries")
    ops = np.empty((len(entries), d, d), dtype=complex)
    for k, entry in enumerate(entries):
        try:
            pairs = np.array(entry, dtype=float)
        except (TypeError, ValueError, OverflowError):  # ragged, or not a number
            pairs = None
        if pairs is None or pairs.shape != (d * d, 2) or not np.isfinite(pairs).all():
            raise ValueError(f"Kraus entry {k} is not {d * d} pairs [re, im] of finite numbers")
        ops[k] = pairs.view(complex).reshape(d, d)
    ch = KrausChannel(d, ops)
    if not ch.trace_preserving:
        raise ValueError("Kraus operators fail the completeness check")
    return ch
