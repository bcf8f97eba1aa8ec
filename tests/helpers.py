"""Random draws, the push of a distribution through a label permutation, the
reader of `emit_circuit`'s text, the coefficient-tuple arithmetic of Z_q[X]/(h)
and the sampled state-design rule, shared by the tests.

A module of its own, not conftest.py: perfbench/tests has a conftest.py too,
and `from conftest import ...` would find that one when both trees are collected
in one run.
"""

import numpy as np

from qdesigns.circuits import Circuit, Gate
from qdesigns.linalg import hermitian_eig, random_complex_matrix
from qdesigns.mub import MubFamily, state_design_sum


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = random_complex_matrix(rng, d)
    return (g + g.conj().T) / 2


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random unitary from the eigenvectors of a random Hermitian matrix,
    with random eigenphases."""
    _, v = hermitian_eig(random_hermitian(rng, d))
    phases = np.exp(2j * np.pi * rng.random(d))
    return v * phases


def sampled_state_design_deviation(family: MubFamily, rounds: int, seed: int) -> float:
    """The sampled rule that `design state` used before it read the frame potential:
    the worst relative gap of `state_design_sum` to tr(MN) + tr M tr N over `rounds`
    seeded Gaussian (M, N) pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(rounds):
        m = random_complex_matrix(rng, family.d)
        n = random_complex_matrix(rng, family.d)
        want = np.trace(m @ n) + np.trace(m) * np.trace(n)
        worst = max(worst, abs(state_design_sum(family, m, n) - want) / max(abs(want), 1.0))
    return worst


def push(dist: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The image of distributions (along axis 0) under the label permutation perm."""
    out = np.empty_like(dist)
    out[perm] = dist
    return out


def parse_circuit(text: str) -> Circuit:
    """Read back the text of `emit_circuit`: a `CIRCUIT n=<n> d=<d>` header,
    then `GATE <kind> targets=.. controls=.. param=<num>/<den>` lines."""
    header, *lines = text.splitlines()
    word, n, d = header.split()
    assert word == "CIRCUIT", header
    circuit = Circuit(n=int(n.removeprefix("n=")), d=int(d.removeprefix("d=")))
    for line in lines:
        word, kind, *tokens = line.split()
        assert word == "GATE" and [t.split("=")[0] for t in tokens] == ["targets", "controls", "param"], line
        targets, controls = (tuple(int(i) for i in t.split("=")[1].split(",") if i) for t in tokens[:2])
        num, den = tokens[2].removeprefix("param=").rsplit("/", 1)
        if kind == "PhaseVec":
            gate = Gate(kind, targets, controls, den=int(den), phases=tuple(int(x) for x in num.split(",")))
        else:
            gate = Gate(kind, targets, controls, num=int(num), den=int(den))
        circuit.append(gate)
    return circuit


# --- Z_q[X]/(h) on coefficient tuples, least-significant first; h holds the low
# coefficients (h_0, ..., h_{k-1}) of a monic h.  The oracle for finite_algebra,
# which multiplies by the companion matrix of h instead. ---

def poly_mul_mod(x: tuple, y: tuple, h: tuple, q: int) -> tuple:
    """x y mod (h, q) by schoolbook product and reduction with X^k = -(h_0 + ... + h_{k-1} X^{k-1})."""
    k = len(h)
    prod = [0] * (2 * k - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] = (prod[i + j] + xi * yj) % q
    for deg in range(2 * k - 2, k - 1, -1):
        c, prod[deg] = prod[deg], 0
        for j in range(k):
            prod[deg - k + j] = (prod[deg - k + j] - c * h[j]) % q
    return tuple(prod[:k])


def poly_pow_mod(x: tuple, e: int, h: tuple, q: int) -> tuple:
    """x^e mod (h, q) for e >= 0 by square and multiply."""
    acc = (1,) + (0,) * (len(h) - 1)
    while e:
        if e & 1:
            acc = poly_mul_mod(acc, x, h, q)
        x = poly_mul_mod(x, x, h, q)
        e >>= 1
    return acc


def poly_root(h: tuple, q: int) -> tuple:
    """The root of h, reduced: X for degree >= 2, the constant -h_0 for degree 1."""
    return ((-h[0]) % q,) if len(h) == 1 else (0, 1) + (0,) * (len(h) - 2)


def _prime_factors(n: int) -> list:
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] * (n > 1)


def poly_root_has_order(h: tuple, q: int, order: int) -> bool:
    """X^order = 1 and X^(order/r) != 1 for every prime factor r of order."""
    one = (1,) + (0,) * (len(h) - 1)
    powers = [poly_pow_mod(poly_root(h, q), order // r, h, q) for r in [1, *_prime_factors(order)]]
    return powers[0] == one and one not in powers[1:]


def poly_gf_h(p: int, k: int) -> tuple:
    """The smallest monic primitive h of degree k over F_p, by base-p integer of its low coefficients."""
    for value in range(p**k):
        h = tuple(value // p**i % p for i in range(k))
        if poly_root_has_order(h, p, p**k - 1):
            return h
    raise AssertionError(f"no primitive polynomial of degree {k} over F_{p}")


def poly_gr_h(m: int) -> tuple:
    """The smallest lift to Z_4, by base-4 integer, of poly_gf_h(2, m) whose root has order 2^m - 1."""
    base = poly_gf_h(2, m)
    lifts = [tuple(c + 2 * (mask >> i & 1) for i, c in enumerate(base)) for mask in range(2**m)]
    return next(h for h in sorted(lifts, key=lambda h: sum(c * 4**i for i, c in enumerate(h)))
                if poly_root_has_order(h, 4, 2**m - 1))


def poly_tables(h: tuple, q: int) -> tuple:
    """(mul_matrices, trace_vector) of Z_q[X]/(h): column j of M_{X^i} is X^(i+j) mod h."""
    k = len(h)
    powers = [(1,) + (0,) * (k - 1)]
    for _ in range(2 * k - 2):
        powers.append(poly_mul_mod(powers[-1], poly_root(h, q), h, q))
    mul = np.array([np.array(powers[i:i + k], dtype=np.int64).T for i in range(k)])
    return mul, np.trace(mul, axis1=1, axis2=2) % q
