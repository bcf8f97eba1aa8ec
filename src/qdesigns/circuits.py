"""Gate-level circuits, statevector simulation, and the MUB preparation circuits.

Registers are n qudits of equal local dimension d; qudit j carries the base-d
digit of weight d^j of the computational-basis index (little-endian).
Simulation has one rule: each gate's local matrix from gate_matrix, on its
qudits with the controls first, applied by tensor contraction.  The gate kinds:

    H, T                           Hadamard and the Clifford cycler H*S (d = 2)
    Fp, Fpinv                      discrete Fourier gate on one qudit and its inverse
    Z, S, T_pi8                    qubit phases -1, i and e^{i pi/4} on |1>
    PhaseExp(num, den)             diag(1, exp(2 pi i num/den)) on a qubit
    Zd(num)                        diag(exp(2 pi i num j/d)) on a qudit
    PhaseVec(phases, den)          diag(exp(2 pi i phases[j]/den))
    CPhase(num, den)               |u,v> -> exp(2 pi i num u v / den)|u,v>
    X, Xd(num)                     level shift on a qubit / on a qudit
    CNOT, CADD(num)                controlled add on qubits / on qudits

The shifts add num * control to the target digit (mod d); X and CNOT have
num = 1, and X and Xd have no control, which reads as 1.  The full unitary is
never materialized during simulation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .finite_algebra import SIZE_CAP, GfContext, _digits, is_prime
from .linalg import basis_state

__all__ = [
    "Gate",
    "Circuit",
    "simulate",
    "circuit_unitary",
    "build_mub_circuit_prime",
    "build_mub_circuit_prime_power",
    "amplitude_amplify",
    "amplitude_split",
    "projected_mub_prepare",
    "projected_mub_states",
    "embedding_prime",
    "parallel_prefix_parity",
    "classical_parity_map",
    "emit_circuit",
]

SIMULATE_DIM_CAP = 2**12
UNITARY_DIM_CAP = 256

_QUBIT_ONLY = {"H", "X", "Z", "S", "T_pi8", "T", "PhaseExp", "CNOT"}
# kind -> (number of targets, number of controls)
_ARITY = {
    **dict.fromkeys(_QUBIT_ONLY - {"CNOT"} | {"Xd", "Zd", "Fp", "Fpinv", "PhaseVec"}, (1, 0)),
    "CPhase": (2, 0), "CNOT": (1, 1), "CADD": (1, 1),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    num: int = 0
    den: int = 1
    phases: tuple[int, ...] = ()

    @property
    def qudits(self) -> tuple[int, ...]:
        return self.controls + self.targets


class Circuit:
    """Ordered gate list on n qudits of dimension d, immutable once built up.

    depth is the greedy-layered schedule depth: each gate occupies the
    earliest layer after the last use of any qudit it touches.
    """

    def __init__(self, n: int, d: int = 2, gates: list[Gate] | None = None):
        if n < 1 or d < 2:
            raise ValueError("need n >= 1 qudits of dimension d >= 2")
        self.n = n
        self.d = d
        self.gates: list[Gate] = []
        for g in gates or []:
            self.append(g)

    def append(self, gate: Gate) -> None:
        if gate.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
        if gate.kind in _QUBIT_ONLY and self.d != 2:
            raise ValueError(f"gate {gate.kind} requires qubits (d = 2), register has d = {self.d}")
        n_targets, n_controls = _ARITY[gate.kind]
        if (len(gate.targets), len(gate.controls)) != (n_targets, n_controls):
            raise ValueError(
                f"gate {gate.kind} takes {n_targets} target(s) and {n_controls} control(s), "
                f"got {len(gate.targets)} and {len(gate.controls)}"
            )
        if gate.kind == "PhaseVec" and len(gate.phases) != self.d:
            raise ValueError(f"PhaseVec needs {self.d} phase numerators, got {len(gate.phases)}")
        qs = gate.qudits
        if len(set(qs)) != len(qs):
            raise ValueError(f"gate {gate.kind} touches a qudit twice: {qs}")
        if any(not 0 <= q < self.n for q in qs):
            raise ValueError(f"gate {gate.kind} indices {qs} out of range for n = {self.n}")
        if gate.den <= 0:
            raise ValueError("phase denominator must be positive")
        self.gates.append(gate)

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    @property
    def depth(self) -> int:
        last = [0] * self.n
        depth = 0
        for g in self.gates:
            layer = 1 + max(last[q] for q in g.qudits)
            for q in g.qudits:
                last[q] = layer
            depth = max(depth, layer)
        return depth

    def inverse(self) -> "Circuit":
        inv = Circuit(self.n, self.d)
        # the inverses of validated gates are valid: skip append's checks
        inv.gates = [ig for g in reversed(self.gates) for ig in _invert_gate(g, self.d)]
        return inv

    def __iter__(self):
        return iter(self.gates)

    def __len__(self):
        return len(self.gates)


_FIXED_PHASE = {"Z": (1, 2), "S": (1, 4), "T_pi8": (1, 8)}  # (num, den) of the phase on |1>
_SELF_INVERSE = {"H", "X", "Z", "CNOT"}
_MOD_D = {"Xd", "Zd", "CADD"}  # num is taken mod d; for the other phase gates, mod den


def _invert_gate(g: Gate, d: int) -> list[Gate]:
    k = g.kind
    if k in _SELF_INVERSE:
        return [g]
    if k in ("Fp", "Fpinv"):
        return [Gate("Fpinv" if k == "Fp" else "Fp", g.targets)]
    if k == "T":  # T = H*S, so T^dagger applies H first, then S^dagger
        return [Gate("H", g.targets), *_invert_gate(Gate("S", g.targets), d)]
    if k in _FIXED_PHASE:
        num, den = _FIXED_PHASE[k]
        return [Gate("PhaseExp", g.targets, num=(-num) % den, den=den)]
    # every other gate is inverted by negating its numerators
    mod = d if k in _MOD_D else g.den
    phases = tuple((-x) % mod for x in g.phases) if g.phases else ()
    return [Gate(k, g.targets, g.controls, (-g.num) % mod, g.den, phases)]


_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_T_CYCLE = _H2 @ np.diag([1, 1j])


def _fourier(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)


def gate_matrix(g: Gate, d: int) -> np.ndarray:
    """Local matrix of any gate on g.qudits, controls first: the first listed
    qudit is the major index.  The diagonal kinds carry their exact phases; a
    shift is the 0/1 matrix of "target digit += num * control (mod d)"."""
    k = g.kind
    if k == "H":
        return _H2
    if k == "T":
        return _T_CYCLE
    if k == "Fp":
        return _fourier(d)
    if k == "Fpinv":
        return _fourier(d).conj().T
    u = np.arange(d)
    if k in ("X", "Xd", "CNOT", "CADD"):
        num = g.num if k in ("Xd", "CADD") else 1
        c = u[:, None] if g.controls else 1
        rows = (u + num * c) % d + (d * c if g.controls else 0)
        return np.eye(rows.size)[:, rows.ravel()]
    if k == "CPhase":
        phases = np.exp(2j * np.pi * g.num * np.outer(u, u).ravel() / g.den)
    elif k == "PhaseVec":
        phases = np.exp(2j * np.pi * np.asarray(g.phases) / g.den)
    elif k == "Zd":
        phases = np.exp(2j * np.pi * g.num * u / d)
    else:
        num, den = _FIXED_PHASE.get(k, (g.num, g.den))
        phases = np.array([1.0, cmath.exp(2j * np.pi * num / den)])
    return np.diag(phases)


def apply_local(state: np.ndarray, mat: np.ndarray, qudits: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """Apply a matrix acting on the listed qudits (first listed = major index)
    to the last axis of a state or of a stack of states."""
    batch = state.shape[:-1]
    t = state.reshape(batch + (d,) * n)
    # qudit j lives on axis n-1-j after the batch axes
    axes = [len(batch) + n - 1 - q for q in qudits]
    m = mat.reshape((d,) * (2 * len(qudits)))
    t = np.tensordot(m, t, axes=(list(range(len(qudits), 2 * len(qudits))), axes))
    # tensordot puts the new indices first, in qudit-list order
    t = np.moveaxis(t, range(len(qudits)), axes)
    return t.reshape(state.shape)


def simulate(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the circuit's gates in order to a statevector of shape (dim,), or
    to each row of a stack of shape (m, dim); returns a fresh array of the same shape."""
    dim = circuit.d**circuit.n
    if dim > SIMULATE_DIM_CAP:
        raise ValueError(f"register dimension {dim} exceeds the simulation cap {SIMULATE_DIM_CAP}")
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2) or state.shape[-1] != dim:
        raise ValueError(f"input shape {state.shape} is not (dim,) or (m, dim) for register size {dim}")
    out = state.copy()
    for g in circuit.gates:
        out = apply_local(out, gate_matrix(g, circuit.d), g.qudits, circuit.n, circuit.d)
    return out


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary by simulating every basis input at once (capped at dimension 256)."""
    dim = circuit.d**circuit.n
    if dim > UNITARY_DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds the dense-unitary cap {UNITARY_DIM_CAP}")
    return simulate(circuit, np.eye(dim)).T


def _tournament_rounds(m: int) -> list[tuple[list[tuple[int, int]], int | None]]:
    """Round-robin schedule of all pairs {i < j} on m vertices.

    Returns one (pairs, idle_vertex) entry per round; idle_vertex is None when
    m is even.  Pairs within a round are vertex-disjoint, so each round fits
    in a single circuit layer.
    """
    odd = m % 2 == 1
    m2 = m + 1 if odd else m
    arr = list(range(m2))
    rounds = []
    for _ in range(m2 - 1):
        pairs, idle = [], None
        for i in range(m2 // 2):
            a, b = arr[i], arr[m2 - 1 - i]
            if odd and (a == m or b == m):
                idle = a if b == m else b
                continue
            pairs.append((min(a, b), max(a, b)))
        rounds.append((pairs, idle))
        arr = [arr[0]] + [arr[-1]] + arr[1:-1]
    return rounds


def _check_labels(order: int, a: int, b: int) -> None:
    """Refuse MUB labels outside 0 <= a <= order (a = order is the computational
    basis) and 0 <= b < order."""
    if not 0 <= a <= order:
        raise ValueError(f"basis label a = {a} outside 0..{order}")
    if not 0 <= b < order:
        raise ValueError(f"state label b = {b} outside 0..{order - 1}")


def build_mub_circuit_prime(p: int, n_qubits: int, a: int, b: int) -> Circuit:
    """Preparation circuit on n_qubits+1 qubits for the prime-dimension MUB
    state with labels (a, b); a = p selects the computational branch.

    For a < p the circuit is H on every qubit followed by phase injection of
    w_p^(a x^2 + b x): one controlled phase per qubit pair scheduled in
    tournament rounds and one merged-with-nothing single-qubit phase layer
    each for the linear and quadratic diagonal terms.  Restricted to the
    first p amplitudes and renormalized, the output is exactly the
    closed-form MUB state.
    """
    if p > SIZE_CAP:  # before the primality test, which is slow on a huge p
        raise ValueError(f"p = {p} exceeds the 2^16 size cap")
    if not is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    m = n_qubits + 1
    if p > 2**m:
        raise ValueError(f"p = {p} does not fit on {m} qubits")
    _check_labels(p, a, b)
    c = Circuit(n=m, d=2)
    if a == p:
        for i, bit in enumerate(_digits(b, 2, m)):
            if bit:
                c.append(Gate("X", (i,)))
        return c
    for i in range(m):
        c.append(Gate("H", (i,)))
    # quadratic cross terms w^(a 2^(i+j+1)) per pair, linear phases absorbed
    # into tournament idle slots when m is odd
    rounds = _tournament_rounds(m)
    for pairs, idle in rounds:
        for i, j in pairs:
            c.append(Gate("CPhase", (i, j), num=(2 * a * 2 ** (i + j)) % p, den=p))
        if idle is not None:
            c.append(Gate("PhaseExp", (idle,), num=(b * 2**idle) % p, den=p))
    if m % 2 == 0:
        for i in range(m):
            c.append(Gate("PhaseExp", (i,), num=(b * 2**i) % p, den=p))
    for i in range(m):
        c.append(Gate("PhaseExp", (i,), num=(a * 2 ** (2 * i)) % p, den=p))
    return c


def build_mub_circuit_prime_power(p: int, n_qudits: int, a: int, b: int) -> Circuit:
    """Preparation circuit on n_qudits p-level systems for the prime-power MUB
    state with integer labels (a, b) of GF(p^n); a = p^n selects the
    computational branch.

    Layout: level shifts prepare |t_b>, a Fourier gate per qudit produces the
    phases w^tr(bx), then precomputed trace couplings inject w^tr(a x^2) with
    one two-qudit phase per pair and one quadratic level-phase per qudit.
    """
    ctx = GfContext(p, n_qudits)  # checks the 2^16 size cap before primality
    if p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    d = ctx.order
    _check_labels(d, a, b)
    c = Circuit(n=n_qudits, d=p)
    b_el = ctx.element_from_int(b)
    # level shifts prepare |b> itself on the computational branch, |t_b> otherwise
    for i, coeff in enumerate(b_el.coeffs if a == d else ctx.trace_forms(b_el.coeffs)):
        if coeff:
            c.append(Gate("Xd", (i,), num=int(coeff)))
    if a == d:
        return c
    # column i of M_a is a X^i, whose trace form holds couplings[i, j] = tr(a X^(i+j))
    couplings = ctx.trace_forms(ctx.mul_matrix(ctx.element_from_int(a)).T)
    for i in range(n_qudits):
        c.append(Gate("Fp", (i,)))
    for i in range(n_qudits):
        for j in range(i + 1, n_qudits):
            c.append(Gate("CPhase", (i, j), num=int(2 * couplings[i, j] % p), den=p))
    for i in range(n_qudits):
        c.append(Gate("PhaseVec", (i,), den=p, phases=tuple(int(couplings[i, i] * u * u % p) for u in range(p))))
    return c


_SPLIT_TOL = 1e-12  # a good weight within this of 0 or 1 leaves nothing to amplify


def amplitude_split(state: np.ndarray, good_projector: np.ndarray) -> float:
    """theta with sin(theta)^2 = <state|good_projector|state>, which must lie in (0, pi/2)."""
    p_good = float(np.real(np.vdot(state, good_projector @ state)))
    if p_good <= _SPLIT_TOL:
        raise ValueError("good component vanishes: amplification is useless")
    if p_good >= 1 - _SPLIT_TOL:
        raise ValueError("good component saturates: amplification is not necessary")
    return math.asin(math.sqrt(p_good))


def amplitude_amplify(prep: Circuit, good_projector: np.ndarray, rounds: int) -> np.ndarray:
    """Apply `rounds` amplification operators to prep|0>.

    Each round reflects about the bad axis (flip the sign of the good
    component) and then about prep|0> itself; after k rounds the good
    amplitude is sin((2k+1) theta) with sin(theta) = sqrt(p_good).
    """
    dim = prep.d**prep.n
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1
    psi = simulate(prep, e0)
    amplitude_split(psi, good_projector)  # validates 0 < p_good < 1
    inv = prep.inverse()
    state = psi
    for _ in range(rounds):
        state = state - 2 * (good_projector @ state)  # fixes bad, negates good
        w = simulate(inv, state)
        w = 2 * w[0] * e0 - w  # fixes |0>, negates its complement
        state = simulate(prep, w)
    return state


def embedding_prime(n_qubits: int) -> int:
    """Smallest odd prime >= 2^n_qubits (it always lies below 2^(n_qubits+1))."""
    p = 2**n_qubits
    if p < 3:
        p = 3
    while not is_prime(p):
        p += 1
    return p


PROJECTED_STACK_QUBIT_CAP = 6  # p^2 rows of 2^(n+2) amplitudes: 18 MB per stack at n = 6 (d = 64)
_AMPLIFIED_GOOD = math.cos(math.pi / 3)  # good amplitude after the ancilla rotation
_ANCILLA_TOL = 1e-6  # largest ancilla residual a prepared state may keep


def _amplified_projections(n_qubits: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i: projected_mub_states' row for label (a[i], b[i]), a[i] < p.

    build_mub_circuit_prime(p, n_qubits, a, b) is one H layer followed only by
    diagonal gates, which multiply |x> by w_p^(a x^2 + b x): the preparation
    is the shared layer, then a phase row; the inverse is the conjugate row,
    then the layer.  Up to UNITARY_DIM_CAP levels (every stack) the layer is
    one product with its symmetric matrix; past it, a single label runs it
    through simulate, up to n_qubits = 11.  The ancilla is axis 1 of each
    (rows, 2, 2^(n_qubits+1)) stack.
    """
    p = embedding_prime(n_qubits)
    d = 2**n_qubits
    h_layer = Circuit(n_qubits + 1, 2, [Gate("H", (q,)) for q in range(n_qubits + 1)])
    x = np.arange(2 * d)
    phase = np.exp(2j * np.pi * np.arange(p) / p)[(a[:, None] * x * x + b[:, None] * x) % p]
    if 2 * d <= UNITARY_DIM_CAP:
        h = simulate(h_layer, np.eye(2 * d))
        layer = lambda v: v @ h
    else:
        layer = lambda v: simulate(h_layer, v.reshape(-1, 2 * d)).reshape(v.shape)

    def prep(v: np.ndarray) -> np.ndarray:
        return phase[:, None] * layer(v)

    def unprep(v: np.ndarray) -> np.ndarray:
        return layer(phase.conj()[:, None] * v)

    def first(failed: np.ndarray) -> str:
        i = int(np.flatnonzero(failed)[0])
        return f"(a, b) = ({a[i]}, {b[i]})"

    psi = phase * layer(basis_state(2 * d, 0))  # every prep|0>
    alpha = _AMPLIFIED_GOOD / np.linalg.norm(psi[:, :d], axis=1)
    failed = alpha > 1
    if failed.any():
        raise ValueError(f"{first(failed)}: projection weight below 1/4: single-round amplification impossible")
    beta = np.sqrt(1 - alpha * alpha)
    rot = np.stack([np.stack([alpha, -beta], axis=1), np.stack([beta, alpha], axis=1)], axis=1)

    # the ancilla rotation after prep on |0>|0>
    state = np.stack([alpha[:, None] * psi, beta[:, None] * psi], axis=1)
    # reflection about the bad axis: negate the good subspace, both ancillas |0>
    state[:, 0, :d] *= -1
    # reflection about |0>|0>: keep its amplitude, negate the rest
    w = -unprep(rot.transpose(0, 2, 1) @ state)
    w[:, 0, 0] *= -1
    good = (rot @ prep(w))[:, 0, :d]

    norms = np.linalg.norm(good, axis=1)
    residual = np.sqrt(np.maximum(0.0, 1 - norms**2))
    failed = residual > _ANCILLA_TOL
    if failed.any():
        raise RuntimeError(f"{first(failed)}: ancillas failed to return to |00>: "
                           f"residual {residual[failed][0]:.2e}")
    return good / norms[:, None]


def projected_mub_states(n_qubits: int) -> np.ndarray:
    """The renormalized projections onto 2^n_qubits levels of every
    prime-dimension MUB state, p = embedding_prime(n_qubits), prepared by one
    exact amplitude-amplification round: row a*p + b holds label (a, b).

    Register: n_qubits data qubits, one embedding qubit (the MUB state lives
    on the first p of 2^(n_qubits+1) levels), one rotated ancilla.  The
    ancilla rotation scales the good amplitude to exactly cos(pi/3) = 1/2, so
    a single round lands the register on ancillas |00> up to rounding; a row
    whose residual exceeds 1e-6 raises, naming its (a, b).

    The initial good amplitude is measured from each prepared state itself.
    For every non-computational (a, b) it equals sqrt(1/2): the efficient
    preparation leaves a flat superposition over the whole embedding register,
    and the levels at or above p carry the same per-level weight as the rest.
    The kept amplitudes are proportional to the closed-form state's, so the
    renormalized output is its exact projection either way.  The computational
    rows a = p are |b> for b < 2^n_qubits; the rows b >= 2^n_qubits project
    to zero and are left zero.
    """
    if not 1 <= n_qubits <= PROJECTED_STACK_QUBIT_CAP:
        raise ValueError(f"projected stack needs 1 <= n_qubits <= {PROJECTED_STACK_QUBIT_CAP}, got {n_qubits}")
    p = embedding_prime(n_qubits)
    d = 2**n_qubits
    a, b = np.divmod(np.arange(p * p), p)
    out = np.zeros((p * (p + 1), d), dtype=complex)
    out[:p * p] = _amplified_projections(n_qubits, a, b)
    out[p * p + np.arange(d), np.arange(d)] = 1
    return out


def projected_mub_prepare(n_qubits: int, a: int, b: int) -> np.ndarray:
    """Row a*p + b of projected_mub_states(n_qubits), run for that one label
    (up to n_qubits = 11, past the stack's cap); a computational state that
    projects to zero raises."""
    if n_qubits < 1:
        raise ValueError(f"need n_qubits >= 1, got {n_qubits}")
    p = embedding_prime(n_qubits)
    d = 2**n_qubits
    _check_labels(p, a, b)
    if a == p:
        if b >= d:
            raise ValueError(f"computational state {b} projects to zero on {n_qubits} qubits")
        return basis_state(d, b)
    return _amplified_projections(n_qubits, np.array([a]), np.array([b]))[0]


def parallel_prefix_parity(n: int, controls, target: int) -> Circuit:
    """CNOT-only circuit XORing the parity of `controls` onto `target`,
    restoring every other qubit: a binary fan-in tree, one root CNOT, and the
    mirrored tree to uncompute.  Depth 2*ceil(log2 r) + 1 with 2r - 1 gates
    for r controls."""
    controls = list(controls)
    if target in controls:
        raise ValueError("target must not be one of the controls")
    if len(set(controls)) != len(controls):
        raise ValueError("duplicate control")
    c = Circuit(n=n, d=2)
    levels = []
    cur = controls
    while len(cur) > 1:
        nxt, lv = [], []
        for i in range(0, len(cur) - 1, 2):
            lv.append((cur[i + 1], cur[i]))
            nxt.append(cur[i])
        if len(cur) % 2 == 1:
            nxt.append(cur[-1])
        levels.append(lv)
        cur = nxt
    for lv in levels:
        for src, dst in lv:
            c.append(Gate("CNOT", (dst,), (src,)))
    if cur:
        c.append(Gate("CNOT", (target,), (cur[0],)))
    for lv in reversed(levels):
        for src, dst in lv:
            c.append(Gate("CNOT", (dst,), (src,)))
    return c


def classical_parity_map(circuit: Circuit) -> np.ndarray:
    """The F_2-linear map of a CNOT-only circuit: returns M with
    bits_out = M @ bits_in mod 2 (row i gives output bit i)."""
    if any(g.kind != "CNOT" for g in circuit.gates):
        raise ValueError("classical map defined only for CNOT-only circuits")
    m = np.eye(circuit.n, dtype=np.int64)
    for g in circuit.gates:
        m[g.targets[0]] = (m[g.targets[0]] + m[g.controls[0]]) % 2
    return m


def _fmt_indices(ix: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in ix)


def emit_circuit(circuit: Circuit) -> str:
    """Text form: header `CIRCUIT n=<n> d=<d>`, then one `GATE ...` line per gate."""
    lines = [f"CIRCUIT n={circuit.n} d={circuit.d}"]
    for g in circuit.gates:
        if g.kind == "PhaseVec":
            param = f"{','.join(str(x) for x in g.phases)}/{g.den}"
        else:
            param = f"{g.num}/{g.den}"
        lines.append(
            f"GATE {g.kind} targets={_fmt_indices(g.targets)} "
            f"controls={_fmt_indices(g.controls)} param={param}"
        )
    return "\n".join(lines) + "\n"
