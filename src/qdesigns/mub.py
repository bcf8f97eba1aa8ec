"""Complete sets of d+1 mutually-unbiased bases and their 2-design identities.

Three constructions are provided: odd prime dimension (quadratic Gauss-sum
phases), odd prime power dimension (field-trace phases over GF(p^k)) and
qubit dimension 2^n (Galois-ring phases over GR(4^n)), all from trace forms;
the prime one is the field one at k = 1.  Basis index a runs over 0..d with
a = d reserved for the computational basis.  For the Galois ring family, a
and b enumerate the Teichmuller set in its natural order (0, 1, X, X^2, ...).

Global phases of individual states follow the defining formulas verbatim;
every verification here is phase-insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_algebra import SIZE_CAP, GfContext, GrContext, I_POWERS, _digits, _prime_factors, is_prime

__all__ = [
    "MubFamily",
    "VerifyReport",
    "mub_prime",
    "mub_prime_power",
    "mub_galois_ring",
    "family_for_dimension",
    "verify_unbiased",
    "state_design_sum",
    "haar_moment",
    "haar_moment_mc",
    "t_design_angle_check",
    "export_family",
    "load_family",
]

PRIME_CAP = 127
PRIME_POWER_CAP = 128
QUBIT_CAP = 7


@dataclass(frozen=True, eq=False)
class MubFamily:
    """d+1 orthonormal bases of dimension d; states[a, b] is the b-th state
    of basis a, and basis a = d is computational."""

    d: int
    kind: str  # "prime" | "prime_power" | "galois_ring"
    states: np.ndarray  # shape (d+1, d, d), complex

    def all_states(self) -> np.ndarray:
        """All d(d+1) states stacked into a ((d+1)*d, d) array."""
        return self.states.reshape(-1, self.d)


def _phase_states(roots: np.ndarray, e_a: np.ndarray, e_b: np.ndarray) -> np.ndarray:
    """states[a, b, x] = roots[(e_a[a, x] + e_b[b, x]) mod q] / sqrt d with q = len(roots),
    for a, b < d, then the computational basis as states[d]."""
    d = e_a.shape[1]
    states = np.empty((d + 1, d, d), dtype=complex)
    # times 1/sqrt d: dividing a complex by sqrt d can give a zero part the other sign
    states[:d] = roots[(e_a[:, None, :] + e_b) % len(roots)] * (1 / math.sqrt(d))
    states[d] = np.eye(d)
    return states


def _field_states(p: int, k: int) -> np.ndarray:
    """The GF(p^k) family: e_a[a, x] = tr(a x^2) and e_b[b, x] = tr(b x)."""
    ctx = GfContext(p, k)
    c = np.stack(_digits(np.arange(p**k), p, k), axis=1)  # c[x] = coefficients of element x
    sq = np.einsum("xi,ijl,xl->xj", c, ctx.mul_matrices, c) % p  # coefficients of x^2
    u = ctx.trace_forms(c)  # tr(a y) = u[a] . coeffs(y)
    return _phase_states(np.exp(2j * np.pi / p) ** np.arange(p), u @ sq.T % p, u @ c.T % p)


def mub_prime(p: int) -> MubFamily:
    """States (1/sqrt p) sum_x w_p^(a x^2 + b x)|x> for a, b in F_p, plus the
    computational basis: the GF(p^k) family at k = 1.  Requires an odd prime:
    the quadratic character-sum bound underlying unbiasedness fails in characteristic 2."""
    if p > PRIME_CAP:  # before the primality test, which is slow on a huge p
        raise ValueError(f"p = {p} exceeds the supported cap {PRIME_CAP}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime (qubit families come from mub_galois_ring)")
    return MubFamily(d=p, kind="prime", states=_field_states(p, 1))


def mub_prime_power(p: int, k: int) -> MubFamily:
    """States (1/sqrt d) sum_x w_p^tr(a x^2 + b x)|x> over GF(p^k), plus the
    computational basis.  Field elements are ordered by their base-p integer
    label, least-significant coefficient first."""
    big_k = k >= PRIME_POWER_CAP.bit_length()  # p >= 3 puts p^k past the cap without forming it
    if k < 1 or p > 2 and (big_k or p**k > PRIME_POWER_CAP):  # before the primality test
        size = f"{p}^{k}" if big_k else p**k
        raise ValueError(f"p^k = {size} outside the supported range (k >= 1, p^k <= {PRIME_POWER_CAP})")
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    return MubFamily(d=p**k, kind="prime_power", states=_field_states(p, k))


def mub_galois_ring(n: int) -> MubFamily:
    """States (1/sqrt 2^n) sum_{x in T_n} i^tr((a+2b)x)|x> for a, b in the
    Teichmuller set of GR(4^n), plus the computational basis."""
    if not 1 <= n <= QUBIT_CAP:
        raise ValueError(f"qubit count n = {n} outside 1..{QUBIT_CAP}")
    ctx = GrContext(n)
    c = np.array([t.coeffs for t in ctx.teichmuller])  # c[a] = coefficients of Teichmuller element a
    tr_ax = ctx.trace_forms(c) @ c.T % 4  # tr_ax[a, x] = tr(a x)
    # tr((a+2b)x) = tr(ax) + 2 tr(bx), and the trace is Z_4-linear
    return MubFamily(d=2**n, kind="galois_ring", states=_phase_states(np.array(I_POWERS), tr_ax, 2 * tr_ax))


def family_for_dimension(d: int) -> MubFamily:
    """Dispatch on d = p^k: qubit construction for p = 2, prime construction
    for an odd prime, field construction for an odd prime power.  d above the
    2^16 size cap is refused before any factorization."""
    if d > SIZE_CAP:
        raise ValueError(f"dimension {d} exceeds the 2^16 size cap")
    factors = _prime_factors(d)
    if len(factors) != 1:
        raise ValueError(f"no MUB construction for dimension {d} (not a prime power)")
    p = factors[0]
    k = round(math.log(d, p))
    if p == 2:
        return mub_galois_ring(k)
    return mub_prime(p) if k == 1 else mub_prime_power(p, k)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    max_orthonormality_error: float
    max_unbiasedness_error: float
    worst_orthonormality_pair: tuple[tuple[int, int], tuple[int, int]]
    worst_unbiasedness_pair: tuple[tuple[int, int], tuple[int, int]]


def _gram_rows(family: MubFamily):
    """Yield (a1, g) per basis a1 with g[a2 - a1, i, j] = |<psi_{a1,i}|psi_{a2,j}>|
    for every a2 >= a1: each unordered pair of bases once, g[0] within a1."""
    for a1 in range(family.d + 1):
        # a batch of d x d products, the ones a per-pair loop makes: one wide product
        # can round some columns differently (OpenBLAS, odd d) and move the printed errors
        yield a1, np.abs(family.states[a1].conj() @ family.states[a1:].transpose(0, 2, 1))


def verify_unbiased(family: MubFamily, tol: float = 1e-9) -> VerifyReport:
    """Check every pairwise overlap: delta within a basis, modulus 1/sqrt(d)
    across bases.  Reports the worst offending (a, b) pairs."""
    d = family.d
    worst = [(0.0, ((0, 0), (0, 0)))] * 2  # (error, pair) within bases, then across
    for a1, g in _gram_rows(family):
        g[0] -= np.eye(d)
        g[1:] -= 1 / math.sqrt(d)
        np.abs(g, out=g)  # g now holds the errors, within bases then across
        for c, err in enumerate((g[:1], g[1:])):
            if err.size:
                k, i, j = np.unravel_index(np.argmax(err), err.shape)  # argmax lands on a NaN if there is one
                e = math.inf if math.isnan(err[k, i, j]) else float(err[k, i, j])
                if e > worst[c][0]:
                    worst[c] = (e, ((a1, int(i)), (a1 + c + int(k), int(j))))
    (max_orth, worst_orth), (max_cross, worst_cross) = worst
    return VerifyReport(max_orth <= tol and max_cross <= tol, max_orth, max_cross, worst_orth, worst_cross)


def state_design_sum(family: MubFamily, m: np.ndarray, n: np.ndarray) -> complex:
    """sum over all d(d+1) states of <psi|M|psi><psi|N|psi>.

    For a complete MUB family this equals tr(MN) + tr(M) tr(N) for arbitrary
    linear operators.
    """
    d = family.d
    m, n = np.asarray(m, dtype=complex), np.asarray(n, dtype=complex)
    if m.shape != (d, d) or n.shape != (d, d):
        raise ValueError(f"operators must be {d} x {d}")
    s = family.all_states()
    sc = s.conj()
    return complex(np.sum(((sc @ m) * s).sum(1) * ((sc @ n) * s).sum(1)))


def haar_moment(m: np.ndarray, n: np.ndarray) -> complex:
    """Closed-form Fubini-Study average of <psi|M|psi><psi|N|psi>:
    (tr MN + tr M tr N) / (d (d+1))."""
    m, n = np.asarray(m, dtype=complex), np.asarray(n, dtype=complex)
    if m.shape != n.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("operators must be square and of equal dimension")
    d = m.shape[0]
    return complex(np.trace(m @ n) + np.trace(m) * np.trace(n)) / (d * (d + 1))


def haar_moment_mc(
    m: np.ndarray, n: np.ndarray, samples: int, rng: np.random.Generator
) -> tuple[complex, float]:
    """Monte-Carlo oracle for the Fubini-Study average: Gaussian vectors
    normalized to the sphere.  Returns (mean, standard error of the mean)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    m, n = np.asarray(m, dtype=complex), np.asarray(n, dtype=complex)
    d = m.shape[0]
    g = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    vals = np.einsum("si,ij,sj->s", g.conj(), m, g) * np.einsum("si,ij,sj->s", g.conj(), n, g)
    mean = complex(vals.mean())
    stderr = float(np.std(vals) / math.sqrt(samples))
    return mean, stderr


def t_design_angle_check(family: MubFamily, k: int | tuple[int, ...]) -> float | tuple[float, ...]:
    """(1/|X|^2) sum over state pairs of |<psi|phi>|^(2k), the state frame potential: at
    least 1/binom(d+k-1, k), with equality exactly when the family is a k-design
    (Klappenecker-Roetteler, quant-ph/0502031).  Being least at a design, it moves with the
    square of a perturbation: one state of the d = 49 family moved by 1e-4 puts the k = 2 sum
    7.3e-10 above its value, relatively.  Each pair of distinct bases is summed once, counted
    twice.  k is one power or a tuple of powers; a tuple gives a tuple of sums from one walk."""
    ks = k if isinstance(k, tuple) else (k,)
    if any(j not in (0, 1, 2) for j in ks):
        raise ValueError("k must be 0, 1, or 2")
    totals = [0.0] * len(ks)
    for _, g in _gram_rows(family):
        np.square(g, out=g)  # in place: a second array would stay alive while _gram_rows forms the next block
        for i, j in enumerate(ks):
            sums = np.sum(g**j, axis=(1, 2))
            totals[i] += sums[0] + 2 * np.sum(sums[1:])
    n2 = len(family.all_states()) ** 2
    sums = tuple(float(total / n2) for total in totals)
    return sums if isinstance(k, tuple) else sums[0]


def export_family(family: MubFamily, path: str) -> None:
    """Text export: header line, then one line `a b re0 im0 re1 im1 ...` per state."""
    with open(path, "w") as fh:
        fh.write(f"MUB d={family.d} kind={family.kind}\n")
        for a, basis in enumerate(np.ascontiguousarray(family.states, dtype=complex)):  # rows viewable as floats
            for b, state in enumerate(basis):
                fh.write(f"{a} {b} {' '.join(map(repr, state.view(float).tolist()))}\n")


def load_family(path: str) -> MubFamily:
    """Read an `export_family` file.  Raises ValueError, naming the line, unless
    the header has d >= 1 and every (a, b) with 0 <= a <= d, 0 <= b < d appears
    exactly once with 2d finite numbers."""
    with open(path) as fh:
        lines = [(no, ln) for no, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
    no, header = lines[0] if lines else (1, "")
    head = header.split()
    if (len(head) != 3 or head[0] != "MUB" or not head[1].startswith("d=") or not head[1][2:].isdecimal()
            or int(head[1][2:]) < 1 or not head[2].startswith("kind=")):
        raise ValueError(f"line {no}: bad MUB header {header!r}, wanted 'MUB d=<integer >= 1> kind=<name>'")
    d = int(head[1][2:])
    kind = head[2][5:]
    if len(lines) != 1 + (d + 1) * d:
        raise ValueError(f"expected {(d + 1) * d} state lines, found {len(lines) - 1}")
    states = np.empty((d + 1, d, d), dtype=complex)
    seen = np.zeros((d + 1, d), dtype=bool)
    for no, ln in lines[1:]:
        parts = ln.split()
        try:
            a, b = int(parts[0]), int(parts[1])
            nums = np.array(parts[2:], dtype=float)
        except (ValueError, IndexError):
            raise ValueError(f"line {no}: expected integer labels a b and then numbers: {ln[:60]!r}") from None
        if not (0 <= a <= d and 0 <= b < d):
            raise ValueError(f"line {no}: label (a={a}, b={b}) outside 0 <= a <= {d}, 0 <= b < {d}")
        if seen[a, b]:
            raise ValueError(f"line {no}: duplicate state line for (a={a}, b={b})")
        if len(nums) != 2 * d or not np.isfinite(nums).all():
            raise ValueError(f"line {no}: state line for (a={a}, b={b}) needs {2 * d} numbers, all finite; "
                             f"got {len(nums)}, {np.isfinite(nums).sum()} finite")
        seen[a, b] = True
        states[a, b] = nums.view(complex)
    return MubFamily(d=d, kind=kind, states=states)
