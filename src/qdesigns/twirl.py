"""Pauli group in symplectic form, exact Pauli/Clifford twirling, and the
randomized approximate Clifford-subset twirl with its l1 convergence analysis.

Qubit Pauli labels are encoded as base-4 integers: digit q of the label is
a_q + 2 b_q for the factor X^(a_q) Z^(b_q) on qubit q (qubit 0 least
significant).  Phases are tracked on PauliLabel but quotiented out everywhere
a distribution over the group is involved.

Clifford moves act on the packed form of a qubit label, the symplectic
tableau of Aaronson-Gottesman (quant-ph/0406196): two integer masks xa, xb
whose bit q is the X and the Z part on qubit q.  An H, S, T or CNOT is then a
few bit operations, so one function (_move) moves a single label or a whole
array of labels.  A round's parity fan-in onto its control is one closed form,
_fan_in_move, and the table _ROUND describes the steps after it.  The gate
sampler reads _ROUND directly.  Up to n = EXACT_CHAIN_CAP one round walk,
_count_round, moves a label histogram through permutation tables built from
_fan_in_move, _ROUND and _move (_round_tables): it splits each count by
multinomial and binomial draws for the Monte-Carlo round, and with every draw
replaced by its mean (_MEAN) it is the exact Markov chain.  Every step after
the fan-in depends only on the control, so the round sums the subset masks
that share a control first (_fan_in) and walks the steps once per control.
The tables stop at the cap (about 0.6 MB of int16 there); above it the
Monte-Carlo round moves each sample's packed int16 masks with _fan_in_move
and then _move, one step at a time.

Twirling always means averaging U^dag Lambda(U X U^dag) U over the set, and
_group_average is the one such sum; every set used here (Pauli group, Clifford
group) is closed under inverses, so this agrees with the U Lambda(U^dag X U) U^dag form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .channels import KrausChannel, generalized_paulis
from .channels import _invariant_pq, _kraus_traces
from .circuits import Circuit, Gate, parallel_prefix_parity
from .linalg import SUPERMATRIX_DIM_CAP, dagger

__all__ = [
    "PauliLabel",
    "PauliChannel",
    "TwirlSample",
    "pauli_matrix",
    "symplectic_inner",
    "char_sum",
    "pauli_twirl",
    "pauli_twirl_brute",
    "clifford_group_1q",
    "clifford_twirl_exact",
    "frame_potential",
    "unitary_design_check",
    "unitary_1design_check",
    "conjugate_label",
    "sample_twirl_circuit",
    "markov_transition_matrix",
    "ideal_good_case_distribution",
    "l1_to_uniform",
    "epsilon0",
    "twirl_bound",
    "step1_success_probability",
    "mc_convergence",
    "mc_convergence_curve",
    "approx_twirl_channel",
]

MATRIX_DIM_CAP = 256


@dataclass(frozen=True)
class PauliLabel:
    """X^xa Z^xb factor-wise on n qudits of dimension d, with a tracked
    global-phase exponent of omega_d (ignored for group-quotient purposes)."""

    d: int
    n: int
    xa: tuple[int, ...]
    xb: tuple[int, ...]
    phase: int = 0

    def __post_init__(self):
        if len(self.xa) != self.n or len(self.xb) != self.n:
            raise ValueError("component vectors must have length n")
        if any(not 0 <= c < self.d for c in self.xa + self.xb):
            raise ValueError("components must lie in [0, d)")

    @classmethod
    def identity(cls, d: int, n: int) -> "PauliLabel":
        return cls(d, n, (0,) * n, (0,) * n)

    @classmethod
    def from_int(cls, d: int, n: int, value: int) -> "PauliLabel":
        xa, xb = [], []
        for _ in range(n):
            digit = value % (d * d)
            xa.append(digit % d)
            xb.append(digit // d)
            value //= d * d
        return cls(d, n, tuple(xa), tuple(xb))

    def to_int(self) -> int:
        out = 0
        for q in range(self.n - 1, -1, -1):
            out = out * self.d * self.d + (self.xa[q] + self.d * self.xb[q])
        return out

    def is_identity(self) -> bool:
        return not any(self.xa) and not any(self.xb)

    def __mul__(self, other: "PauliLabel") -> "PauliLabel":
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("label shape mismatch")
        phase = self.phase + other.phase + sum(b * a for b, a in zip(self.xb, other.xa))
        return PauliLabel(
            self.d,
            self.n,
            tuple((x + y) % self.d for x, y in zip(self.xa, other.xa)),
            tuple((x + y) % self.d for x, y in zip(self.xb, other.xb)),
            phase % self.d,
        )


def pauli_matrix(label: PauliLabel) -> np.ndarray:
    """Dense matrix of the label (qudit 0 least significant)."""
    if label.d**label.n > MATRIX_DIM_CAP:
        raise ValueError("matrix dimension exceeds the cap")
    paulis = generalized_paulis(label.d)  # index a*d + b holds X^a Z^b
    factors = [paulis[label.xa[q] * label.d + label.xb[q]] for q in range(label.n - 1, -1, -1)]
    return reduce(np.kron, factors) * np.exp(2j * np.pi * label.phase / label.d)


def all_labels(d: int, n: int) -> list[PauliLabel]:
    return [PauliLabel.from_int(d, n, v) for v in range((d * d) ** n)]


def _check_pauli_qudits(d: int, n: int) -> None:
    """Refuse an n that _pauli_stack(d, n) is capped against, before any work."""
    if n < 1:
        raise ValueError(f"Pauli stack needs n >= 1 qudits, got {n}")
    if d ** (2 * n) > SUPERMATRIX_DIM_CAP:
        n_max = int(math.log(SUPERMATRIX_DIM_CAP, d * d) + 1e-9)
        raise ValueError(f"Pauli stack needs n <= {n_max} qudits of dimension {d} "
                         f"(d^(2n) is capped at {SUPERMATRIX_DIM_CAP}), got {n}")


def _pauli_stack(d: int, n: int) -> np.ndarray:
    """pauli_matrix of every phase-free label, stacked in label-integer order
    as one (d^(2n), d^n, d^n) array; capped like a channel's d^2 operators."""
    _check_pauli_qudits(d, n)
    # index a + d b of a factor holds X^a Z^b, as a label digit does; the kron
    # of two stacks pairs every label with every label, high digit first
    one = generalized_paulis(d).reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d, d)
    return reduce(np.kron, [one] * n)


def symplectic_inner(x: PauliLabel, y: PauliLabel) -> int:
    """(x, y)_Sp = x_a . y_b - x_b . y_a mod d."""
    if (x.d, x.n) != (y.d, y.n):
        raise ValueError("label shape mismatch")
    val = sum(a * b for a, b in zip(x.xa, y.xb)) - sum(b * a for b, a in zip(x.xb, y.xa))
    return val % x.d


def char_sum(j: PauliLabel) -> complex:
    """sum over all labels x of omega^((x, j)_Sp): D^2 at j = 0, else 0."""
    om = np.exp(2j * np.pi / j.d)
    return complex(sum(om ** symplectic_inner(x, j) for x in all_labels(j.d, j.n)))


@dataclass(frozen=True, eq=False)
class PauliChannel:
    """Pauli superoperator rho -> sum_r beta_r P_r rho P_r^dagger, with the
    weights stored over integer labels."""

    d: int
    n: int
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != ((self.d * self.d) ** self.n,):
            raise ValueError("weight vector has the wrong length")

    def to_kraus(self) -> KrausChannel:
        keep = self.weights > 1e-14
        ops = np.sqrt(self.weights[keep])[:, None, None] * _pauli_stack(self.d, self.n)[keep]
        return KrausChannel(self.d**self.n, ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.to_kraus().apply(rho)


def _pauli_qudits(ch: KrausChannel, d: int) -> int:
    """The number n >= 1 of qudits of dimension d >= 2 with d^n = ch.dim."""
    if d < 2:
        raise ValueError(f"the Pauli twirl needs qudit dimension d >= 2, got {d}")
    n = round(math.log(ch.dim, d))
    if n < 1 or d**n != ch.dim:
        raise ValueError(f"channel dim {ch.dim} is not a power of {d}")
    return n


def pauli_twirl(ch: KrausChannel, d: int = 2) -> PauliChannel:
    """Closed-form Pauli twirl: beta_r = sum_k |tr(P_r^dagger A_k)|^2 / D^2.
    The trace factors over qudits, so it is taken one operator and one qudit at a time."""
    n = _pauli_qudits(ch, d)
    one = _pauli_stack(d, 1).reshape(d * d, d * d).T.conj()  # column r: conj(P_r) flattened
    pairs = [a for q in range(n) for a in (q, n + q)]  # (row, column) digit of each qudit, high first
    weights = np.zeros((d * d) ** n)
    for a in ch.kraus:
        amps = a.reshape((d,) * (2 * n)).transpose(pairs)
        for _ in range(n):  # contract the leading qudit's digit pair; its label digit goes last
            amps = amps.reshape(d * d, -1).T @ one
        weights += np.abs(amps.ravel()) ** 2
    return PauliChannel(d, n, weights / ch.dim**2)


def pauli_twirl_brute(ch: KrausChannel, rho: np.ndarray, d: int = 2) -> np.ndarray:
    """Brute-force conjugation average (1/D^2) sum_j P_j^dag E(P_j rho P_j^dag) P_j."""
    adjoints = ch.kraus.conj().transpose(0, 2, 1)
    return _group_average(_pauli_stack(d, _pauli_qudits(ch, d)), ch.kraus, rho, adjoints)


def clifford_group_1q() -> list[np.ndarray]:
    """All 24 single-qubit Cliffords modulo global phase, as a breadth-first
    closure of {H, S}; each matrix is phase-canonicalized (first entry of
    non-negligible magnitude made real positive)."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    s = np.diag([1, 1j]).astype(complex)

    def canon(u: np.ndarray) -> np.ndarray:
        flat = u.ravel()
        pivot = flat[np.flatnonzero(np.abs(flat) > 1e-9)[0]]
        return u * (abs(pivot) / pivot)

    def key(u: np.ndarray) -> tuple:
        return tuple(np.round(canon(u).ravel(), 9).tolist())

    found = {key(np.eye(2, dtype=complex)): canon(np.eye(2, dtype=complex))}
    frontier = [np.eye(2, dtype=complex)]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                v = canon(g @ u)
                k = key(v)
                if k not in found:
                    found[k] = v
                    nxt.append(v)
        frontier = nxt
    group = list(found.values())
    if len(group) != 24:
        raise RuntimeError(f"closure of {{H, S}} gave {len(group)} classes, expected 24")
    return group


def _group_average(unitaries, left, x: np.ndarray, right) -> np.ndarray:
    """(1/K) sum_U sum_j U^dag L_j U x U^dag R_j U: a channel's twirl at x (or at a
    stack x) for L_j = A_j, R_j = A_j^dag, the 2-design sandwich for one pair (M, O)."""
    if not len(unitaries):
        raise ValueError("the group average needs a non-empty set of unitaries")
    out = np.zeros(np.shape(x), dtype=complex)
    for u in unitaries:
        u_dag = dagger(u)
        for l_j, r_j in zip(left, right):
            out += u_dag @ l_j @ u @ x @ u_dag @ r_j @ u
    return out / len(unitaries)


def clifford_twirl_exact(ch: KrausChannel) -> tuple[float, float]:
    """Average C^dag Lambda(C . C^dag) C over the 24 single-qubit Cliffords and
    fit the result to the depolarizing form p rho + (1-p) I/d.

    Returns (p, residual), the residual over the d^2 matrix units.  The fit is
    exact and p = (sum_k |tr A_k|^2 - 1) / (d^2 - 1); a residual above 1e-6
    would falsify the 2-design property and raises.  Needs a trace-preserving
    qubit channel (ValueError otherwise).
    """
    if ch.dim != 2:
        raise ValueError("exact Clifford twirl implemented for single qubits")
    if not ch.trace_preserving:
        raise ValueError("the depolarizing fit of the Clifford twirl requires a trace-preserving channel")
    d = ch.dim
    p = _invariant_pq(_kraus_traces(ch)[0], d, d)[0]  # tr Lambda(I) = d
    units = np.eye(d * d).reshape(d * d, d, d)  # every E_ij, twirled at once
    twirled = _group_average(clifford_group_1q(), ch.kraus, units, ch.kraus.conj().transpose(0, 2, 1))
    target = p * units + (1 - p) * np.trace(units, axis1=1, axis2=2)[:, None, None] * np.eye(d) / d
    residual = float(np.abs(twirled - target).max())
    if residual > 1e-6:
        raise RuntimeError(f"Clifford twirl failed to depolarize: residual {residual:.2e}")
    return p, residual


def frame_potential(unitaries, t: int) -> float:
    """F_t(S) = (1/K^2) sum_{U,V in S} |tr(U^dag V)|^(2t), from one Gram of the
    flattened set.  For unitaries it is at least its Haar value (1 at t = 1, 2 at
    t = 2 for d >= 2), with equality exactly when S is a unitary t-design
    (Gross-Audenaert-Eisert, quant-ph/0611002).  The traces factor over a tensor
    product, so F_t(S^(x)n) = F_t(S)^n."""
    if not len(unitaries):
        raise ValueError("the frame potential needs a non-empty set of unitaries")
    flat = np.reshape(unitaries, (len(unitaries), -1))
    return float(np.mean(np.abs(flat.conj() @ flat.T) ** (2 * t)))


def unitary_design_check(unitaries, m: np.ndarray, n: np.ndarray, o: np.ndarray) -> float:
    """Max-entry deviation of (1/K) sum_k U_k^dag M U_k N U_k^dag O U_k from
    the Haar value p N + q tr(N) I/d."""
    d = m.shape[0]
    avg = _group_average(unitaries, [m], n, [o])
    p, q = _invariant_pq(np.trace(m) * np.trace(o), np.trace(m @ o), d)
    haar = p * n + q * np.trace(n) * np.eye(d) / d
    return float(np.abs(avg - haar).max())


def unitary_1design_check(unitaries, rho: np.ndarray) -> float:
    """Max-entry deviation of (1/K) sum_k U_k rho U_k^dag from tr(rho) I/d."""
    if not len(unitaries):
        raise ValueError("the 1-design check needs a non-empty set of unitaries")
    d = rho.shape[0]
    avg = sum(u @ rho @ dagger(u) for u in unitaries) / len(unitaries)
    return float(np.abs(avg - np.trace(rho) * np.eye(d) / d).max())


# --- symplectic conjugation (qubits) ---------------------------------------

def _move(kind: str, xa, xb, qubits: tuple, on=True):
    """Image of packed labels (xa, xb) under conjugation by one H, S, T or
    CNOT gate, phases ignored.

    `qubits` is (q,) or (control, target); labels, qubit indices and the `on`
    mask broadcast together, so one call moves a single label or a whole
    sample array, and samples with `on` false are left unchanged.
    """
    q = qubits[0]
    a = (xa >> q) & on
    b = (xb >> q) & on
    if kind == "H":
        return xa ^ ((a ^ b) << q), xb ^ ((a ^ b) << q)
    if kind == "S":
        return xa, xb ^ (a << q)
    if kind == "T":  # X -> Y -> Z -> X
        return xa ^ (b << q), xb ^ ((a ^ b) << q)
    if kind == "CNOT":
        t = qubits[1]
        return xa ^ (a << t), xb ^ (((xb >> t) & on) << q)
    raise ValueError(f"conjugation not defined for gate kind {kind!r}")


def _fan_in_move(xa, xb, mask, control, n: int):
    """Image of packed labels (xa, xb) under the parity fan-in of the subset
    `mask` onto its `control`: CNOT(q -> control) for every other member q.

    The CNOTs share their target, so they commute: the control's X bit gains
    the parity of the members' X bits, and each member's Z bit gains the
    control's Z bit.  Labels, masks and controls broadcast together, as in _move.
    """
    control = np.asarray(control).astype(np.asarray(mask).dtype)  # an int8 1 << 7 overflows
    members = mask & ~(1 << control)
    parity = xa & members
    for i in range((n - 1).bit_length()):  # fold bits 0..n-1 onto bit 0
        parity ^= parity >> (1 << i)
    return xa ^ ((parity & 1) << control), xb ^ (members * ((xb >> control) & 1))


def _from_label_int(v, n: int):
    """Packed (xa, xb) masks of base-4 label integers."""
    xa = sum(((v >> (2 * q)) & 1) << q for q in range(n))
    xb = sum(((v >> (2 * q + 1)) & 1) << q for q in range(n))
    return xa, xb


def _to_label_int(xa, xb, n: int):
    """Base-4 label integers of packed (xa, xb) masks."""
    return sum((((xa >> q) & 1) | ((xb >> q) & 1) << 1) << (2 * q) for q in range(n))


def conjugate_label(gate: Gate, label: PauliLabel) -> PauliLabel:
    """Image of a Pauli label under conjugation by one Clifford gate
    (H, S, T, or CNOT), with the global phase quotiented out."""
    if label.d != 2:
        raise ValueError("label conjugation implemented for qubits")
    n = label.n
    xa, xb = _move(gate.kind, *_from_label_int(label.to_int(), n), gate.qudits)
    return replace(PauliLabel.from_int(2, n, _to_label_int(xa, xb, n)), phase=label.phase)


# --- randomized approximate twirl -------------------------------------------

# One round of the twirl after its parity fan-in onto the control, as
# (gate, qubits relative to the control, law) steps in order.  "c" is the
# control and "o" stands for each other qubit in ascending order; law _THIRDS
# applies the gate e times with e uniform in {0, 1, 2}, a float p applies it
# once with probability p.  The gate sampler, the exact chain and the Monte
# Carlo round all read this table.
_THIRDS = "T^e"
_ROUND = (
    ("T", "o", _THIRDS),
    ("CNOT", "co", 0.75),
    ("T", "o", _THIRDS),
    ("S", "c", 0.5),
    ("CNOT", "oc", 0.5),
    ("T", "c", _THIRDS),
)


def _place(roles: str, control, q) -> tuple:
    """Concrete qubits of a step: "c" becomes the control, "o" the qubit q."""
    return tuple(control if r == "c" else q for r in roles)


def _draw(law, size, rng: np.random.Generator):
    """Times a step's gate is applied: an exponent in {0, 1, 2} or a coin."""
    return rng.integers(0, 3, size=size) if law == _THIRDS else rng.random(size) < law


def _law_bits(law) -> int:
    """Fair coin flips one draw costs: 2 for T^e, log2 of p's denominator."""
    return 2 if law == _THIRDS else law.as_integer_ratio()[1].bit_length() - 1


def _sample_round(n: int, rng: np.random.Generator) -> tuple[tuple, int]:
    """One round of sampled randomness, (subset mask, one draw per _ROUND
    step), and the random bits it used."""
    mask = int(rng.integers(1, 2**n))
    draws = [_draw(law, n - 1 if "o" in roles else None, rng) for _, roles, law in _ROUND]
    bits = n + sum(_law_bits(law) * (n - 1 if "o" in roles else 1) for _, roles, law in _ROUND)
    return (mask, draws), bits


def _round_gates(n: int, choices: tuple) -> list[Gate]:
    """Concrete H/S/T/CNOT gate sequence realizing one sampled round."""
    mask, draws = choices
    control = (mask & -mask).bit_length() - 1
    others = [q for q in range(n) if q != control]
    members = [q for q in others if (mask >> q) & 1]
    gates: list[Gate] = []
    if members:
        gates.extend(parallel_prefix_parity(n, members, control).gates)
    for (kind, roles, _), draw in zip(_ROUND, draws):
        for q, times in zip(others if "o" in roles else [control], np.atleast_1d(draw)):
            qubits = _place(roles, control, q)
            gates.extend([Gate(kind, qubits[-1:], qubits[:-1])] * int(times))
    return gates


@dataclass(frozen=True)
class TwirlSample:
    circuit: Circuit
    random_bits_used: int
    rounds: int


def sample_twirl_circuit(n: int, rounds: int, rng: np.random.Generator) -> TwirlSample:
    """Sample one circuit of the approximate-twirl ensemble: per round a
    parity fan-in onto a random control, T twirls, probability-3/4 fan-out
    CNOTs, an S twirl, probability-1/2 fan-in CNOTs, and a final T twirl."""
    if n < 2:
        raise ValueError("the randomized twirl needs n >= 2 qubits")
    circuit = Circuit(n, 2)
    total_bits = 0
    for _ in range(rounds):
        choices, bits = _sample_round(n, rng)
        total_bits += bits
        for g in _round_gates(n, choices):
            circuit.append(g)
    return TwirlSample(circuit=circuit, random_bits_used=total_bits, rounds=rounds)


# --- the count round: the Monte-Carlo round, and with mean draws the exact chain ---

EXACT_CHAIN_CAP = 5  # largest n for the exact chain: P is 4^n x 4^n


def _perm_table(n: int, kind: str, qubits: tuple[int, ...]) -> np.ndarray:
    xa, xb = _from_label_int(np.arange(4**n, dtype=np.int64), n)
    return _to_label_int(*_move(kind, xa, xb, qubits), n)


def _label_dtype(n: int):
    """The narrowest integer type that holds every label int below 4^n."""
    return np.int16 if 4**n <= 2**15 else np.int32


def _controls(n: int) -> np.ndarray:
    """The control of each subset mask, its low bit, as int8; mask 0 is never
    drawn and maps to 0."""
    return np.array([max((m & -m).bit_length() - 1, 0) for m in range(2**n)], dtype=np.int8)


class _RoundTables(NamedTuple):
    fan_in: np.ndarray  # (2^n, 4^n) int16: the parity fan-in of each subset mask
    steps: tuple  # per _ROUND step, one (control, times, 4^n) int16 stack per qubit


@lru_cache(maxsize=None)
def _round_tables(n: int) -> _RoundTables:
    """One twirl round as permutation tables over base-4 label ints, built from
    _fan_in_move, _ROUND and _move; the count round reads them, with sampled
    draws for Monte Carlo and with mean draws for the exact chain.

    fan_in[m] is the fan-in of subset mask m, built for every mask at once.
    steps[i] holds one stack per qubit q for an "o" step (q ascending) and a
    single stack for a "c" step; stack[c, e] is the step's permutation applied
    e times with control c, the identity where q is c.  The tables take
    O(n^2 4^n) int16 entries, about 0.6 MB at n = EXACT_CHAIN_CAP, so they
    stop there.
    """
    if n > EXACT_CHAIN_CAP:
        raise ValueError(f"round tables capped at n <= {EXACT_CHAIN_CAP}")
    ident = np.arange(4**n, dtype=_label_dtype(n))
    xa, xb = _from_label_int(ident, n)
    fan_in = _to_label_int(*_fan_in_move(xa, xb, ident[: 2**n, None], _controls(n)[:, None], n), n)
    steps = []
    for kind, roles, law in _ROUND:
        stacks = []
        for q in range(n) if "o" in roles else [None]:
            stack = np.empty((n, 3 if law == _THIRDS else 2, 4**n), dtype=ident.dtype)
            for c in range(n):
                perm = ident if q == c else _perm_table(n, kind, _place(roles, c, q))
                stack[c, 0] = ident
                for e in range(1, stack.shape[1]):
                    stack[c, e] = perm[stack[c, e - 1]]
            stacks.append(stack)
        steps.append(tuple(stacks))
    return _RoundTables(fan_in, tuple(steps))


def _fan_in(parts, n: int):
    """Yield, for each control c in turn, the sum over the subset masks m with
    control c of parts[m - 1] pushed through m's fan-in (along axis 0).  Every
    later step of the round depends only on c, so a round walks n such cells."""
    fan_in = _round_tables(n).fan_in
    for c in range(n):
        cell = np.zeros_like(parts[0])
        for mask in range(1 << c, 2**n, 2 << c):  # the masks whose lowest bit is c
            cell[fan_in[mask]] += parts[mask - 1]
        yield cell


def _count_round(counts: np.ndarray, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Apply one round to the (4^n, *S) label histogram of independent samples
    from S sources, and count per source the samples whose control carries X
    or Y after the fan-in.  The samples are exchangeable, so their draws are
    splits of a count: a multinomial over the subset masks, then _round_steps.
    That has the law of the per-sample round at a cost set by n alone,
    O((2^n + n^2) 4^n) per source; with rng = _MEAN it is the exact chain."""
    split = rng.multinomial(counts, np.full(2**n - 1, 1.0 / (2**n - 1)))  # (label, *S, mask - 1)
    cells = np.stack(tuple(_fan_in(np.moveaxis(split, -1, 0), n)))  # cells[c, v]: samples at label v with control c
    del split
    x_on_control = (np.arange(4**n) >> 2 * np.arange(n)[:, None]) & 1
    hits = np.einsum("cv,cv...->...", x_on_control, cells)
    return _round_steps(cells, n, rng), hits


def _round_steps(cells: np.ndarray, n: int, rng) -> np.ndarray:
    """Move the (control, label, *S) counts `cells` through the _ROUND steps in
    place, splitting each by one binomial per coin and two per T^e and pushing
    the parts through the step's table row; return their sum over the controls."""
    ident = np.arange(4**n)
    for (_, _, law), stacks in zip(_ROUND, _round_tables(n).steps):
        for stack in stacks:
            # split only held cells the step moves: not the identity row of an "o"
            # step's own qubit, nor the labels its gate fixes (an empty cell draws nothing)
            held = (cells > 0).reshape(n, 4**n, -1).any(axis=-1)
            rows, labels = np.nonzero((stack[:, 1] != ident) & held)
            stay = cells[rows, labels]
            if law == _THIRDS:
                once = rng.binomial(stay, 1 / 3)
                parts = (once, rng.binomial(stay - once, 0.5))
            else:
                parts = (rng.binomial(stay, law),)
            cells[rows, labels] = stay - sum(parts)
            for times, part in enumerate(parts, start=1):
                cells[rows, stack[rows, times, labels]] += part
    return cells.sum(axis=0)


class _MeanDraws:
    """An rng stand-in whose draws are their means.  The count round draws its
    multinomial over uniform weights only: a read-only view of one mean."""

    def multinomial(self, n, pvals):
        mean = np.asarray(n, dtype=float) * pvals[0]
        return np.broadcast_to(mean[..., None], mean.shape + (len(pvals),))

    def binomial(self, n, p):
        return n * p


_MEAN = _MeanDraws()


def _check_chain(n: int, k: int = 0) -> None:
    """Reject an exact-chain run outside 2 <= n <= EXACT_CHAIN_CAP or with k
    outside 0 <= k <= _ROUNDS_CAP rounds."""
    _check_rounds(n, k, least_k=0)
    if n > EXACT_CHAIN_CAP:
        raise ValueError(f"exact chain capped at n <= {EXACT_CHAIN_CAP}")


_CHAIN_BLOCK = 32  # sources per count round of P: 1.3 MB of cells at n = 5, 42 MB for all 4^n


@lru_cache(maxsize=None)
def markov_transition_matrix(n: int) -> np.ndarray:
    """Column-stochastic matrix P with P[:, v] the one-round image of the
    point mass at label v, built once per n and shared read-only."""
    _check_chain(n)
    eye = np.eye(4**n)
    p = np.hstack([_count_round(eye[:, i:i + _CHAIN_BLOCK], n, _MEAN)[0] for i in range(0, 4**n, _CHAIN_BLOCK)])
    p.flags.writeable = False
    return p


def _exact_chain(n: int, k: int) -> list[float]:
    """Push every non-identity point mass through k rounds of the exact chain:
    the l1 gap to uniform after rounds 0..k, maximized over the sources."""
    p = markov_transition_matrix(n)
    dists = np.eye(4**n, 4**n - 1, k=-1)
    # each source's rest made contiguous, so it sums as l1_to_uniform's does
    l1 = [float(_l1_split(dists[0], dists[1:].T.copy()).max())]
    for _ in range(k):
        dists = p @ dists
        l1.append(float(_l1_split(dists[0], dists[1:].T.copy()).max()))
    return l1


def ideal_good_case_distribution(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(exact, idealized) step-2 output for a point mass with X on the control.

    The idealized q is uniform over the support of the exact distribution;
    its support complement is exactly the labels with identity on the control
    and I/Z elsewhere, so ||u - q||_1 = 2 (2^(n-1) - 1) / (4^n - 1).
    """
    _check_chain(n)
    start = np.zeros((n, 4**n))
    start[0, 1] = 1  # X on qubit 0, with qubit 0 the control
    exact = _round_steps(start, n, _MEAN)
    support = exact > 1e-15
    ideal = np.where(support, 1.0 / support.sum(), 0.0)
    return exact, ideal


def l1_to_uniform(dist: np.ndarray) -> float:
    """l1 distance to the uniform distribution over non-identity labels."""
    dist = np.asarray(dist, dtype=float)
    return float(_l1_split(dist[0], dist[1:].copy()))


def _l1_split(identity, rest: np.ndarray):
    """l1_to_uniform of the distribution (identity, *rest), computed in the
    float array rest, which it overwrites; a stack of them along rest's last
    axis gives one distance per row."""
    rest -= 1.0 / rest.shape[-1]
    np.abs(rest, out=rest)
    return np.abs(identity) + rest.sum(axis=-1)


def epsilon0(n: int) -> float:
    return 1.0 / (2**n - 2.0**-n)


def twirl_bound(n: int, k: int) -> float:
    """Bound eps0 + 2 (1/2)^k (eps0 + 1) on the l1 gap after k rounds."""
    eps0 = epsilon0(n)
    return eps0 + 2 * 0.5**k * (eps0 + 1)


def step1_success_probability(label: PauliLabel) -> float:
    """Exact probability that the fan-in step leaves X or Y on the control.

    Over the uniform non-empty subset B, the control ends with X-component
    XOR of the label's X-bits over B, so the probability is the fraction of
    subsets meeting the X-support with odd parity: 2^(n-1)/(2^n - 1) whenever
    the X-part is nonzero and 0 for pure I/Z labels.  The convergence analysis
    only uses 1/2 as a lower bound; nothing tighter is asserted anywhere.
    """
    if label.d != 2:
        raise ValueError(f"step-1 success is defined for qubit labels, got d = {label.d}")
    n = label.n
    return (2 ** (n - 1) if any(label.xa) else 0) / (2**n - 1)


# --- vectorized Monte-Carlo convergence --------------------------------------

def _mc_round_packed(v: np.ndarray, n: int, rng: np.random.Generator) -> float:
    """One sampled round applied in place to the label ints v above
    EXACT_CHAIN_CAP, where the round tables are not built: _fan_in_move, then
    one _move per step and qubit on packed (xa, xb) int16 masks, fresh draws
    per sample.  Returns the fraction of samples whose control carries X or Y
    after the fan-in."""
    xa, xb = _from_label_int(v, n)
    xa, xb = xa.astype(np.int16, copy=False), xb.astype(np.int16, copy=False)
    m = xa.shape[0]
    mask = rng.integers(1, 2**n, size=m).astype(np.int16)
    control = _controls(n)[mask]
    xa, xb = _fan_in_move(xa, xb, mask, control, n)
    del mask
    success_rate = float(((xa >> control) & 1).mean())

    for kind, roles, law in _ROUND:
        # "o" steps draw for every qubit and drop the draw on the control
        for q in range(n) if "o" in roles else [None]:
            times = _draw(law, m, rng)
            if q is not None:
                times[control == q] = 0
            qubits = _place(roles, control, q)
            for rep in range(1, 3 if law == _THIRDS else 2):
                xa, xb = _move(kind, xa, xb, qubits, times >= rep)
            del times  # freed before the next draw
    # widened to the label type: qubit q's digit shifts to bits 2q and 2q + 1
    v[...] = _to_label_int(xa.astype(v.dtype), xb.astype(v.dtype), n)
    return success_rate


def _mc_rounds(counts: np.ndarray, n: int, k: int, rng: np.random.Generator):
    """Yield the label histogram and the step-1 success rate after each of k
    sampled rounds of the samples whose (4^n,) int64 label histogram is
    `counts`.  Up to EXACT_CHAIN_CAP _count_round moves the histogram; above it
    the samples are laid out once, in label order, as label ints of
    _label_dtype(n), the histogram is dropped, and _mc_round_packed moves them
    in place."""
    samples = int(counts.sum())
    if n > EXACT_CHAIN_CAP:
        held = np.flatnonzero(counts)
        labels = np.repeat(held.astype(_label_dtype(n)), counts[held])
        del counts, held  # the caller holds no reference: freed before the first round
    for _ in range(k):
        if n <= EXACT_CHAIN_CAP:
            counts, hits = _count_round(counts, n, rng)
            yield counts, float(hits / samples)
        else:
            success = _mc_round_packed(labels, n, rng)
            yield np.bincount(labels, minlength=4**n), success


# twirl_bound reaches epsilon0 in double by k = 66 at every n <= 11 and the exact
# l1 stops falling near 1e-15 by k = 40, so no round past the cap changes a verdict
_ROUNDS_CAP = 1000


def _check_rounds(n: int, k: int, least_k: int = 1) -> None:
    """Reject a twirl run on fewer than two qubits, or with fewer than least_k
    or more than _ROUNDS_CAP rounds."""
    if n < 2:
        raise ValueError(f"the randomized twirl needs n >= 2 qubits, got n = {n}")
    if k < least_k:
        raise ValueError(f"the twirl needs k >= {least_k} rounds, got k = {k}")
    if k > _ROUNDS_CAP:
        raise ValueError(f"the twirl is capped at k <= {_ROUNDS_CAP} rounds, got k = {k}")


# The histograms grow x4 per qubit: the floor and each round's l1 hold two
# 8-byte arrays of 4^n at once, 67 MB at n = 11.  Up to n = 5 the round moves
# counts in under 1 MB whatever the sample count; above it the packed round's
# sample arrays peak at 35-42 B a sample, so a run at the samples cap peaks
# near 0.4 GB of process RSS (n = 8 to 11).  The samples cap guards those.
_MC_QUBIT_CAP = 11
_MC_SAMPLES_CAP = 10_000_000


def _check_mc(n: int, k: int, samples: int) -> None:
    """Reject a Monte-Carlo twirl run outside its caps, before anything is allocated."""
    _check_rounds(n, k)
    if n > _MC_QUBIT_CAP:
        raise ValueError(f"the Monte-Carlo twirl is capped at n <= {_MC_QUBIT_CAP} qubits, got n = {n}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if samples > _MC_SAMPLES_CAP:
        raise ValueError(f"the Monte-Carlo twirl is capped at --samples <= {_MC_SAMPLES_CAP}, got {samples}")


def _noise_floor(n: int, samples: int, rng: np.random.Generator) -> float:
    """l1_to_uniform of one exact-uniform multinomial draw of `samples`
    non-identity labels: the floor that sampling noise puts under a plug-in l1."""
    # the uniform weights, then the null counts, are freed as soon as they are used
    return float(_l1_split(0.0, rng.multinomial(samples, np.full(4**n - 1, 1.0 / (4**n - 1))) / samples))


def mc_convergence_curve(
    n: int,
    k: int,
    samples: int,
    rng: np.random.Generator,
    start: PauliLabel | None = None,
) -> list[dict]:
    """Monte-Carlo l1-to-uniform estimates after each of k rounds.

    The plug-in ||empirical - u||_1 carries a multinomial sampling-noise floor
    (rising with the label count; it dwarfs small true distances), so the same
    statistic is computed for one exact-uniform multinomial draw of the same
    size and subtracted, clamped at zero.  Each entry carries the raw value,
    the calibration floor, and the corrected estimate.  Needs 2 <= n <= 11,
    1 <= k <= 1000 and 1 <= samples <= 10^7 (ValueError otherwise, before
    anything is allocated).

    The rounds start from the point mass of `start` (X on qubit 0 by default)
    as a label histogram.  The floor and each round's l1 go through
    l1_to_uniform's own float operations (_l1_split), in place in one float
    array of 4^n.
    """
    _check_mc(n, k, samples)
    if start is None:
        start = PauliLabel(2, n, (1,) + (0,) * (n - 1), (0,) * n)
    floor = _noise_floor(n, samples, rng)
    counts = np.zeros(4**n, dtype=np.int64)
    counts[start.to_int()] = samples
    rounds = _mc_rounds(counts, n, k, rng)
    del counts  # above EXACT_CHAIN_CAP the rounds drop it before the first one
    curve = []
    for step, (counts, success) in enumerate(rounds, start=1):
        dist = counts / samples
        raw = float(_l1_split(dist[0], dist[1:]))
        del counts, dist  # freed before the next round's histogram
        curve.append(
            {
                "k": step,
                "l1_raw": raw,
                "noise_floor": floor,
                "l1": max(0.0, raw - floor),
                "step1_success": success,
            }
        )
    return curve


def mc_convergence(n: int, k: int, samples: int, rng: np.random.Generator) -> dict:
    """Final entry of mc_convergence_curve (noise-floor-corrected l1 after k rounds)."""
    curve = mc_convergence_curve(n, k, samples, rng)
    return {key: curve[-1][key] for key in ("l1_raw", "noise_floor", "l1")}


def approx_twirl_channel(
    ch: KrausChannel,
    n: int,
    k: int,
    trials: int = 0,
    rng: np.random.Generator | None = None,
) -> tuple[PauliChannel, float]:
    """Push a channel's Pauli weights through k twirl rounds, and return the
    twirled Pauli channel and its diamond distance to the full Clifford twirl.

    The full twirl is the depolarizing channel with the same identity weight
    w_0, so the distance is sum over v != 0 of |w_v - (1 - w_0) / (4^n - 1)|.
    That sum is the diamond norm of the difference of two Pauli channels: the
    triangle inequality over the maps rho -> P_v rho P_v gives <=, and the
    trace norm of the difference's Choi matrix, which is diagonal in the Bell
    basis, gives >=.

    trials = 0 runs the count round with mean draws (the exact chain, n <=
    EXACT_CHAIN_CAP) on the non-identity weights.  Otherwise `trials` samples
    of them, drawn as one multinomial histogram, go through k sampled rounds;
    the plug-in distance then carries a sampling-noise floor, so (1 - w_0)
    times one exact-uniform draw's l1 (mc_convergence_curve's floor) is
    subtracted and the result clamped at 0.  Needs n >= 2, a trace-preserving
    channel on n qubits, and 0 <= k <= 1000 and n <= EXACT_CHAIN_CAP in exact
    mode; Monte-Carlo mode needs an rng and mc_convergence_curve's bounds on
    n, k and trials (ValueError otherwise, before the channel is twirled).
    """
    if trials == 0:
        _check_chain(n, k)
    else:
        _check_mc(n, k, trials)
        if rng is None:
            raise ValueError("Monte-Carlo mode needs an rng")
    if ch.dim != 2**n:
        raise ValueError("channel size disagrees with n")
    if not ch.trace_preserving:
        raise ValueError("the approximate twirl requires a trace-preserving channel")
    beta = pauli_twirl(ch).weights
    rest = 1 - beta[0]
    weights, floor = np.zeros(4**n), 0.0
    if trials == 0:
        weights[1:] = beta[1:]
        for _ in range(k):
            weights = _count_round(weights, n, _MEAN)[0]
    elif rest > 1e-12:
        counts = np.concatenate(([0], rng.multinomial(trials, beta[1:] / rest)))
        for counts, _ in _mc_rounds(counts, n, k, rng):
            pass
        weights = counts / trials * rest
        floor = rest * _noise_floor(n, trials, rng)
    # the identity label is a fixed point, so it keeps its own weight
    weights[0] = beta[0]
    distance = float(np.abs(weights[1:] - rest / (4**n - 1)).sum())
    return PauliChannel(2, n, weights), max(0.0, distance - floor)
