"""Field/ring arithmetic, traces, and character sums."""

import cmath
import itertools

import numpy as np
import pytest

from qdesigns.finite_algebra import (
    I_POWERS,
    GfContext,
    GrContext,
    gf_gauss_sum,
    gr_exponential_sum,
    is_prime,
)

from helpers import poly_gf_h, poly_gr_h, poly_mul_mod, poly_pow_mod, poly_root, poly_tables

TOL = 1e-9


def test_context_rejects_bad_arguments():
    with pytest.raises(ValueError):
        GfContext(4, 1)
    with pytest.raises(ValueError):
        GfContext(6, 2)
    with pytest.raises(ValueError):
        GfContext(3, 0)
    with pytest.raises(ValueError):
        GfContext(2, 17)  # 2^17 > 2^16


def test_gf2_defining_polynomial():
    # smallest primitive degree-1 polynomial over F_2 is X + 1
    ctx = GfContext(2, 1)
    assert ctx.h == (1,)
    assert sorted(e.int_label for e in ctx.elements()) == [0, 1]


def test_gf3_prime_field_trace_is_identity():
    ctx = GfContext(3, 1)
    for a in ctx.elements():
        assert a.trace() == a.int_label


def test_gf3_addition():
    ctx = GfContext(3, 1)
    two = ctx.element_from_int(2)
    assert (two + two).int_label == 1


def test_gf4_multiplication_reduces_mod_h():
    # GF(4) with h = X^2 + X + 1: X * X = X + 1
    ctx = GfContext(2, 2)
    assert ctx.h == (1, 1)
    x = ctx.xi  # coefficients (0, 1)
    assert (x * x).coeffs == (1, 1)


def test_gf9_all_nonzero_elements_are_powers_of_the_root():
    # brute-force order check: the root of h generates the 8-element group
    ctx = GfContext(3, 2)
    seen = set()
    cur = ctx.one
    for _ in range(8):
        seen.add(cur.coeffs)
        cur = cur * ctx.xi
    assert cur == ctx.one
    assert len(seen) == 8


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (3, 4)])
def test_field_axioms_exhaustive(p, k):
    # commutativity and the multiplication-matrix homomorphism M_(xy) = M_x M_y
    # are checked over every pair; the homomorphism over all pairs implies
    # associativity (and linearity gives distributivity) for every triple.
    ctx = GfContext(p, k)
    els = ctx.elements()
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        ab = a * b
        assert ab == b * a
        assert np.array_equal((ctx.mul_matrix(a) @ ctx.mul_matrix(b)) % p, ctx.mul_matrix(ab))
    sample = els[:: max(1, len(els) // 6)]
    for a, b, c in itertools.product(sample, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in els:
        if any(a.coeffs):
            assert a * a.inverse() == ctx.one
            assert a ** (p**k - 1) == ctx.one


@pytest.mark.parametrize("p,k", [(3, 2), (2, 3), (3, 4)])
def test_frobenius_is_additive(p, k):
    ctx = GfContext(p, k)
    for a, b in itertools.product(ctx.elements(), repeat=2):
        assert (a + b) ** p == a**p + b**p


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 2), (3, 3), (2, 7), (3, 4), (5, 3), (7, 2), (11, 2)])
def test_trace_vector_matches_power_sum(p, k):
    ctx = GfContext(p, k)
    for x in ctx.elements():
        acc = ctx.zero
        for j in range(k):
            acc = acc + x ** (p**j)
        assert acc.coeffs[1:] == (0,) * (k - 1)
        assert x.trace() == acc.coeffs[0]


@pytest.mark.parametrize("ctx", [GfContext(3, 1), GfContext(3, 2), GfContext(5, 2), GrContext(1), GrContext(3)],
                         ids=["gf3", "gf9", "gf25", "gr4", "gr64"])
def test_trace_forms_give_tr_of_every_product(ctx):
    els = ctx.elements()
    forms = ctx.trace_forms([a.coeffs for a in els])
    for (a, u), y in itertools.product(zip(els, forms), els):
        assert int(u @ np.array(y.coeffs)) % getattr(ctx, "p", 4) == (a * y).trace()


def test_trace_linearity_gf9():
    ctx = GfContext(3, 2)
    for x, y in itertools.product(ctx.elements(), repeat=2):
        assert (x + y).trace() == (x.trace() + y.trace()) % 3


def test_gauss_sum_gf5():
    ctx = GfContext(5, 1)
    assert abs(gf_gauss_sum(ctx, ctx.zero) - 5) < TOL
    assert abs(gf_gauss_sum(ctx, ctx.one)) < TOL


def test_gauss_sum_gf9():
    ctx = GfContext(3, 2)
    assert abs(gf_gauss_sum(ctx, ctx.zero) - 9) < TOL
    for a in ctx.elements():
        if any(a.coeffs):
            assert abs(gf_gauss_sum(ctx, a)) < TOL


def test_gr4_is_z4():
    ctx = GrContext(1)
    assert [t.int_label for t in ctx.teichmuller] == [0, 1]
    for c in ctx.elements():
        assert ctx.trace(c) == c.int_label  # m = 1: trace is the identity


def test_gr16_teichmuller_set_matches_known_values():
    # h = X^2 + X + 1 lifts untouched; T_2 = {0, 1, X, 3X + 3}
    ctx = GrContext(2)
    assert ctx.h == (1, 1)
    assert [t.coeffs for t in ctx.teichmuller] == [(0, 0), (1, 0), (0, 1), (3, 3)]


def test_gr64_teichmuller_has_eight_elements_and_x_order_7():
    ctx = GrContext(3)
    assert len(ctx.teichmuller) == 8
    assert (ctx.x**7) == ctx.one
    assert (ctx.x**1) != ctx.one


def test_gr16_trace_formula():
    # m = 2: tr(a + 2b) = a + a^2 + 2(b + b^2)
    ctx = GrContext(2)
    for c in ctx.elements():
        a, b = ctx.two_adic(c)
        expected = a + a * a + 2 * (b + b * b)
        assert expected.coeffs[1:] == (0,) * (ctx.m - 1)
        assert ctx.trace(c) == expected.coeffs[0]


def test_gr_trace_additive():
    ctx = GrContext(2)
    for c, cp in itertools.product(ctx.elements(), repeat=2):
        assert ctx.trace(c + cp) == (ctx.trace(c) + ctx.trace(cp)) % 4


# --- oracles from the definitions: the Teichmuller set is {x : x^(2^m) = x},
# every c is a + 2b for one Teichmuller pair, and tr(c) sums a^(2^i) + 2 b^(2^i) ---

def teichmuller_by_definition(ctx):
    teich = [x for x in ctx.elements() if x ** 2**ctx.m == x]
    assert len(teich) == 2**ctx.m
    return teich


def two_adic_table(ctx):
    teich = teichmuller_by_definition(ctx)
    table = {(a + 2 * b).coeffs: (a, b) for a in teich for b in teich}
    assert len(table) == 4**ctx.m
    return table


def frobenius_orbit_trace(ctx, c, table):
    a, b = table[c.coeffs]
    acc = ctx.zero
    for _ in range(ctx.m):
        acc = acc + a + 2 * b
        a, b = a * a, b * b
    assert acc.coeffs[1:] == (0,) * (ctx.m - 1)
    return acc.coeffs[0]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_gr_trace_matches_frobenius_orbit_sum(m):
    ctx = GrContext(m)
    table = two_adic_table(ctx)
    for c in ctx.elements():
        assert ctx.trace(c) == frobenius_orbit_trace(ctx, c, table)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_2adic_matches_teichmuller_pair_table(m):
    ctx = GrContext(m)
    table = two_adic_table(ctx)
    assert {t.coeffs for t in ctx.teichmuller} == {t.coeffs for t in teichmuller_by_definition(ctx)}
    for c in ctx.elements():
        assert ctx.two_adic(c) == table[c.coeffs]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_teich_mul_index_matches_element_product(m):
    ctx = GrContext(m)
    t = ctx.teichmuller  # [0, X^0, X^1, ..., X^(2^m - 2)]: the nonzero part is cyclic
    for i, j in itertools.product(range(2**m), repeat=2):
        index = 0 if i == 0 or j == 0 else 1 + (i - 1 + j - 1) % (2**m - 1)
        assert t[index] == t[i] * t[j]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_2adic_round_trip_is_a_bijection(m):
    ctx = GrContext(m)
    seen = set()
    for c in ctx.elements():
        a, b = ctx.two_adic(c)
        assert a.coeffs in {t.coeffs for t in ctx.teichmuller}
        assert b.coeffs in {t.coeffs for t in ctx.teichmuller}
        assert a + 2 * b == c
        seen.add((a.coeffs, b.coeffs))
    assert len(seen) == 4**m


def test_gr16_exponential_sum_examples():
    ctx = GrContext(2)
    assert abs(gr_exponential_sum(ctx, ctx.zero) - 4) < TOL
    two = ctx.element_from_int(2)
    assert abs(gr_exponential_sum(ctx, two)) < TOL
    assert abs(abs(gr_exponential_sum(ctx, ctx.one)) - 2) < TOL


@pytest.mark.parametrize("m", [2, 3])
def test_exponential_sum_trichotomy(m):
    ctx = GrContext(m)
    two_teich = {(2 * t).coeffs for t in ctx.teichmuller}
    for x in ctx.elements():
        mag = abs(gr_exponential_sum(ctx, x))
        if not any(x.coeffs):
            assert abs(mag - 2**m) < TOL
        elif x.coeffs in two_teich:
            assert mag < TOL
        else:
            assert abs(mag - np.sqrt(2**m)) < TOL


# --- the per-element character sums the vectorized ones replace ---

def loop_gauss_sum(ctx, a):
    total = 0j
    for x in ctx.elements():
        total += cmath.exp(2j * cmath.pi * ctx.trace(a * x) / ctx.p)
    return total


def loop_exponential_sum(ctx, x):
    total = 0j
    for y in ctx.teichmuller:
        total += I_POWERS[ctx.trace(x * y) % 4]
    return total


@pytest.mark.parametrize("p,k", [(3, 3), (5, 2), (7, 2)])
def test_gauss_sum_matches_per_element_loop(p, k):
    ctx = GfContext(p, k)
    for a in ctx.elements():
        assert abs(gf_gauss_sum(ctx, a) - loop_gauss_sum(ctx, a)) <= 1e-12


@pytest.mark.parametrize("m", [3, 4])
def test_exponential_sum_matches_per_element_loop(m):
    ctx = GrContext(m)
    for x in ctx.elements():
        assert abs(gr_exponential_sum(ctx, x) - loop_exponential_sum(ctx, x)) <= 1e-12


def test_context_mismatch_raises():
    a = GfContext(3, 1).one
    b = GfContext(3, 1).one  # distinct context object
    with pytest.raises(ValueError):
        a + b
    c, e = GrContext(2).one, GrContext(2).one  # the ring shares the check
    with pytest.raises(ValueError):
        c * e
    with pytest.raises(ValueError):
        GrContext(2).trace(c)
    with pytest.raises(ValueError):  # so do the character sums
        gr_exponential_sum(GrContext(2), c)
    with pytest.raises(ValueError):
        gf_gauss_sum(GfContext(3, 1), a)


def test_inverse_of_zero_raises():
    ctx = GfContext(3, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


def test_negative_powers_invert_in_gf_and_are_rejected_in_gr():
    gf = GfContext(3, 2)
    assert gf.xi ** -1 == gf.xi.inverse()
    assert gf.xi ** -3 * gf.xi**3 == gf.one
    gr = GrContext(2)
    with pytest.raises(ValueError):
        gr.x ** -1
    assert gr.x**0 == gr.one


# --- the companion-matrix rule against the coefficient-tuple oracle in helpers ---

ODD_FIELDS = [(p, k) for p in range(3, 128, 2) if is_prime(p) for k in range(1, 8) if p**k <= 128]
ORACLE_FIELDS = ODD_FIELDS + [(2, k) for k in range(1, 8)] + [(3, 10), (251, 2)]  # the last two at the 2^16 cap


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
def test_gf_context_matches_the_tuple_oracle(p, k):
    ctx = GfContext(p, k)
    h = poly_gf_h(p, k)
    mul, trace_vector = poly_tables(h, p)
    assert ctx.h == h
    assert ctx.mul_matrices.dtype == mul.dtype and np.array_equal(ctx.mul_matrices, mul)
    assert ctx.trace_vector.dtype == trace_vector.dtype and np.array_equal(ctx.trace_vector, trace_vector)
    assert ctx.xi.coeffs == poly_root(h, p)


@pytest.mark.parametrize("m", range(1, 9))
def test_gr_context_matches_the_tuple_oracle(m):
    ctx = GrContext(m)
    h = poly_gr_h(m)
    mul, trace_vector = poly_tables(h, 4)
    assert ctx.h == h
    assert ctx.mul_matrices.dtype == mul.dtype and np.array_equal(ctx.mul_matrices, mul)
    assert ctx.trace_vector.dtype == trace_vector.dtype and np.array_equal(ctx.trace_vector, trace_vector)
    teich = [(0,) * m, (1,) + (0,) * (m - 1)]
    for _ in range(2**m - 2):
        teich.append(poly_mul_mod(teich[-1], poly_root(h, 4), h, 4))
    assert [t.coeffs for t in ctx.teichmuller] == teich
    assert ctx.x.coeffs == poly_root(h, 4)


@pytest.mark.parametrize("make", [lambda: GfContext(3, 4), lambda: GfContext(7, 2), lambda: GfContext(61, 1),
                                  lambda: GfContext(3, 10), lambda: GfContext(251, 2)],
                         ids=["gf81", "gf49", "gf61", "gf3^10", "gf251^2"])
def test_gf_products_powers_and_inverses_match_the_tuple_oracle(make):
    ctx = make()
    rng = np.random.default_rng(28)
    for _ in range(40):
        x, y = (ctx.element_from_int(int(v)) for v in rng.integers(ctx.order, size=2))
        e = int(rng.integers(3 * ctx.order))
        assert (x * y).coeffs == poly_mul_mod(x.coeffs, y.coeffs, ctx.h, ctx.p)
        assert (x**e).coeffs == poly_pow_mod(x.coeffs, e, ctx.h, ctx.p)
        if any(x.coeffs):
            inverse = poly_pow_mod(x.coeffs, ctx.order - 2, ctx.h, ctx.p)
            assert x.inverse().coeffs == inverse
            assert (x**-e).coeffs == poly_pow_mod(inverse, e, ctx.h, ctx.p)


@pytest.mark.parametrize("m", [2, 3, 6, 8])
def test_gr_products_powers_and_two_adic_match_the_tuple_oracle(m):
    ctx = GrContext(m)
    rng = np.random.default_rng(28)
    for _ in range(40):
        x, y = (ctx.element_from_int(int(v)) for v in rng.integers(4**m, size=2))
        e = int(rng.integers(3 * 4**m))
        assert (x * y).coeffs == poly_mul_mod(x.coeffs, y.coeffs, ctx.h, 4)
        assert (x**e).coeffs == poly_pow_mod(x.coeffs, e, ctx.h, 4)
        # c = a + 2b: a = c^(2^m), b = ((c - a)/2)^(2^m)
        a = poly_pow_mod(x.coeffs, 2**m, ctx.h, 4)
        half = tuple((c - t) % 4 // 2 for c, t in zip(x.coeffs, a))
        assert tuple(t.coeffs for t in ctx.two_adic(x)) == (a, poly_pow_mod(half, 2**m, ctx.h, 4))


def test_gr_context_size_cap():
    for m in (0, 9, 10**8):  # 10^8: refused without forming 4^m
        with pytest.raises(ValueError, match=f"degree m = {m} outside 1..8"):
            GrContext(m)
    assert GrContext(8).mul_matrices.shape == (8, 8, 8)
