"""Arithmetic in prime fields, extension fields GF(p^k), and Galois rings GR(4^m).

Both are Z_q[X]/(h) for a monic h, with q = p for GF(p^k) and q = 4 for
GR(4^m).  Elements are immutable coefficient vectors over Z_q, least-significant
coefficient first.  Multiplication has one rule, the companion matrix C of h,
which multiplies by the root X: the multiplication matrices M_{X^i} are C^i,
M_y is sum_i y_i C^i, x y is M_x coeffs(y), x^e is column 0 of M_x^e, the root
is column 0 of C and the order test of the root reads powers of C.  One shared
core says every rule that needs only q and h: sums, negation, scalar and
element products, non-negative powers, the integer label, zero, one, the root
of h, element construction and the context check.  It also holds the trace of
multiplication tr(x) = tr(M_x) mod q, which is Z_q-linear: the field trace of
GF(p^k) (GF(p) at k = 1) and the generalized trace of GR(4^m), and its trace
forms u_a.  GF(p^k) adds the inverse and negative powers; GR(4^m) adds the
Teichmuller set and the 2-adic split, and rejects negative powers.  Contexts
are immutable after construction and every operation is pure.

The computational-basis label of an element is the base-q integer of its
coefficient vector, least-significant coefficient first.  One digit codec,
_digits and its inverse _undigits, converts between integers and digits
everywhere: for a Python int it gives a digit tuple, and for an integer array
one digit array per place.  One trial division, _prime_factors, serves the
primality test, the order test and the prime-power split of a dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GfContext",
    "GfElement",
    "GrContext",
    "GrElement",
    "gf_gauss_sum",
    "gr_exponential_sum",
    "is_prime",
]

SIZE_CAP = 2**16  # elements of a context; p >= 2 and k >= SIZE_CAP.bit_length() put p^k past it


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division; none for n <= 1."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _digits(value, base: int, k: int) -> tuple:
    """The k base-`base` digits of value, least significant first; for an
    integer array, elementwise, one array per digit."""
    return tuple(value // base**i % base for i in range(k))


def _undigits(digits, base: int) -> int:
    """The integer whose base-`base` digits, least significant first, are `digits`."""
    return sum(c * base**i for i, c in enumerate(digits))


def _companion(h: tuple[int, ...], q: int) -> np.ndarray:
    """Companion matrix C of the monic h over Z_q: the matrix of multiplication by
    the root X, so column j is X^(j+1) mod h.  h holds the low coefficients
    (h_0, ..., h_{k-1}) and the leading 1 is implicit; at degree 1 C is [-h_0]."""
    c = np.eye(len(h), k=-1, dtype=np.int64)
    c[:, -1] = np.negative(h) % q
    return c


def _mat_pow_mod(m: np.ndarray, e: int, q: int) -> np.ndarray:
    """m^e mod q for e >= 0 by square and multiply.  Entries stay below q <= 2^16,
    so no product sum of k q^2 overflows int64."""
    acc = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            acc = acc @ m % q
        m = m @ m % q
        e >>= 1
    return acc


def _root_has_order(h: tuple[int, ...], q: int, order: int) -> bool:
    """Check that X mod h(X) has multiplicative order exactly `order`: C^order = I
    and C^(order/r) != I for every prime factor r of order."""
    c, one = _companion(h, q), np.eye(len(h), dtype=np.int64)
    if not np.array_equal(_mat_pow_mod(c, order, q), one):
        return False
    return not any(np.array_equal(_mat_pow_mod(c, order // r, q), one) for r in _prime_factors(order))


@dataclass(frozen=True)
class _PolyElement:
    """Element of Z_q[X]/(h) as a coefficient tuple over Z_q (constant term
    first); q and h come from the context."""

    ctx: "_PolyContext"
    coeffs: tuple[int, ...]

    def __add__(self, other):
        self.ctx._own(other)
        q = self.ctx._q
        return type(self)(self.ctx, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.ctx, tuple((-a) % self.ctx._q for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)(self.ctx, tuple((other * a) % self.ctx._q for a in self.coeffs))
        self.ctx._own(other)
        return self.ctx._from_vector(self.ctx.mul_matrix(self) @ other.coeffs)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative powers are not supported in {self.ctx._name}, got {e}")
        # M_x^e applied to coeffs(1) = e_0
        return self.ctx._from_vector(_mat_pow_mod(self.ctx.mul_matrix(self), e, self.ctx._q)[:, 0])

    def trace(self) -> int:
        return self.ctx.trace(self)

    @property
    def int_label(self) -> int:
        return _undigits(self.coeffs, self.ctx._q)


class _PolyContext:
    """Z_q[X]/(h) for a monic h of degree n, given by its low coefficients.

    Attributes:
        h: coefficients (h_0, ..., h_{n-1}) of the monic defining polynomial
        mul_matrices: (n, n, n) stack of M_{X^i} = C^i over Z_q for the companion
            matrix C of h; column j of C^i is X^(i+j) mod h
        trace_vector: t with tr(x) = (t, coeffs(x)) mod q
    """

    _element: type[_PolyElement]

    def __init__(self, q: int, n: int, h: tuple[int, ...], name: str):
        self._q, self._n, self.h, self._name = q, n, h, name
        self._c = _companion(h, q)
        powers = [np.eye(n, dtype=np.int64)]
        for _ in range(n - 1):
            powers.append(powers[-1] @ self._c % q)
        self.mul_matrices = np.array(powers)
        self.trace_vector = np.trace(self.mul_matrices, axis1=1, axis2=2) % q

    @property
    def zero(self):
        return self._element(self, (0,) * self._n)

    @property
    def one(self):
        return self._element(self, tuple([1] + [0] * (self._n - 1)))

    def element_from_int(self, label: int):
        if not 0 <= label < self._q**self._n:
            raise ValueError(f"label {label} out of range for {self._name}")
        return self._element(self, _digits(label, self._q, self._n))

    def elements(self):
        """All q^n elements in integer-label order."""
        return [self.element_from_int(v) for v in range(self._q**self._n)]

    @property
    def _root(self):
        """The root of h, reduced: column 0 of C, so X for degree >= 2 and -h_0 for degree 1."""
        return self._from_vector(self._c[:, 0])

    def _from_vector(self, v: np.ndarray):
        """The element with coefficient vector v mod q."""
        return self._element(self, tuple((v % self._q).tolist()))

    def mul_matrix(self, y: _PolyElement) -> np.ndarray:
        """Matrix M_y over Z_q with vec(y*x) = M_y @ vec(x)."""
        return np.tensordot(y.coeffs, self.mul_matrices, axes=1) % self._q

    def _own(self, x: _PolyElement) -> None:
        if x.ctx is not self:
            raise ValueError(f"element belongs to a different {self._name} context")

    def trace(self, x: _PolyElement) -> int:
        """tr(x) = tr(M_x) mod q, linear in the coefficients of x."""
        self._own(x)
        return int(np.dot(self.trace_vector, np.asarray(x.coeffs, dtype=np.int64)) % self._q)

    def trace_forms(self, coeffs) -> np.ndarray:
        """Rows u_a with tr(a y) = (u_a, coeffs(y)) mod q, one per row coeffs(a):
        u_a[j] = sum_i a_i tr(X^(i+j)), and row i of t @ M holds tr(X^(i+j))."""
        return np.asarray(coeffs, dtype=np.int64) @ (self.trace_vector @ self.mul_matrices) % self._q


class GfElement(_PolyElement):
    """Element of GF(p^k) as a coefficient tuple over Z_p (constant term first)."""

    def __pow__(self, e: int) -> "GfElement":
        if e < 0:
            return self.inverse() ** (-e)
        return super().__pow__(e)

    def inverse(self) -> "GfElement":
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero in GF(p^k)")
        return self ** (self.ctx.order - 2)


class GfContext(_PolyContext):
    """GF(p^k) built as F_p[X]/(h) for the lexicographically smallest monic
    primitive h, found by brute-force order testing of the root X.

    Attributes:
        p, k: characteristic and extension degree
    """

    _element = GfElement

    def __init__(self, p: int, k: int):
        if k < 1:
            raise ValueError("extension degree k must be >= 1")
        big_k = k >= SIZE_CAP.bit_length()
        if p >= 2 and (big_k or p**k > SIZE_CAP):  # before the primality test, which is slow on a huge p
            raise ValueError(f"p^k = {f'{p}^{k}' if big_k else p**k} exceeds the 2^16 size cap")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.k = k
        self.order = p**k
        super().__init__(p, k, self._find_primitive(p, k), f"GF({p}^{k})")

    @staticmethod
    def _find_primitive(p: int, k: int) -> tuple[int, ...]:
        # candidates ordered by the base-p integer of (h_0, ..., h_{k-1})
        for value in range(p**k):
            h = _digits(value, p, k)
            if _root_has_order(h, p, p**k - 1):
                return h
        raise RuntimeError(f"no primitive polynomial of degree {k} over F_{p}")  # pragma: no cover

    xi = _PolyContext._root


def gf_gauss_sum(ctx: GfContext, a: GfElement) -> complex:
    """Additive character sum sum_x exp(2 pi i tr(a x) / p) over GF(p^k)."""
    ctx._own(a)
    c = np.stack(_digits(np.arange(ctx.order), ctx.p, ctx.k), axis=1)  # c[x] = coefficients of element x
    tr_ax = c @ ctx.trace_forms(a.coeffs) % ctx.p
    return complex(np.exp(2j * np.pi * tr_ax / ctx.p).sum())


class GrElement(_PolyElement):
    """Element of GR(4^m) as a coefficient tuple over Z_4 (constant term first)."""


class GrContext(_PolyContext):
    """GR(4^m) built as Z_4[X]/(h) for a monic basic primitive h of degree m.

    h is chosen as the smallest lift (by base-4 integer of its coefficient
    vector) of the degree-m primitive polynomial over F_2 whose root X has
    multiplicative order 2^m - 1.  The Teichmuller set is enumerated as
    {0, 1, X, ..., X^(2^m - 2)}; every element is a + 2b for exactly one pair
    (a, b) from it.
    """

    _element = GrElement

    def __init__(self, m: int):
        if not 1 <= m <= 8:
            raise ValueError(f"degree m = {m} outside 1..8 (4^m <= 2^16, the size cap)")
        self.m = m
        super().__init__(4, m, self._find_basic_primitive(m), f"GR(4^{m})")
        self.teichmuller = self._build_teichmuller()

    @staticmethod
    def _find_basic_primitive(m: int) -> tuple[int, ...]:
        base_h = GfContext._find_primitive(2, m)
        # lifts of each F_2 coefficient are {b, b+2}; order candidates by base-4 value
        lifts = [tuple(c + 2 * bit for c, bit in zip(base_h, _digits(mask, 2, m))) for mask in range(2**m)]
        for h in sorted(lifts, key=lambda h: _undigits(h, 4)):
            if _root_has_order(h, 4, 2**m - 1):
                return h
        raise RuntimeError(f"no basic primitive lift found for m = {m}")  # pragma: no cover

    x = _PolyContext._root

    def _build_teichmuller(self) -> list[GrElement]:
        out, col = [self.zero], np.array(self.one.coeffs)
        for _ in range(2**self.m - 1):  # X^t = C^t coeffs(1)
            out.append(self._from_vector(col))
            col = self._c @ col % 4
        if len({e.coeffs for e in out}) != 2**self.m:
            raise RuntimeError("Teichmuller set has repeated elements")  # pragma: no cover
        return out

    def two_adic(self, c: GrElement) -> tuple[GrElement, GrElement]:
        """(a, b) with c = a + 2b, both Teichmuller.  (a + 2b)^2 = a^2 and every
        Teichmuller t has t^(2^m) = t, so a = c^(2^m); c - a = 2b, and any lift
        b' of b has b'^2 = b^2, so b = ((c - a)/2)^(2^m)."""
        self._own(c)
        a = c ** 2**self.m
        half = GrElement(self, tuple(v // 2 for v in (c - a).coeffs))
        return a, half ** 2**self.m


# exact integer powers of i (1j**n goes through exp/log and picks up rounding)
I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def gr_exponential_sum(ctx: GrContext, x: GrElement) -> complex:
    """Gamma(x) = sum over the Teichmuller set of i^tr(x y)."""
    ctx._own(x)
    tr_xy = np.array([y.coeffs for y in ctx.teichmuller]) @ ctx.trace_forms(x.coeffs) % 4
    return complex(np.array(I_POWERS)[tr_xy].sum())
