"""MUB constructions, unbiasedness checks, and 2-design identities."""

import hashlib
import math

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qdesigns.mub
from qdesigns.finite_algebra import I_POWERS, GfContext, GrContext, is_prime
from qdesigns.linalg import random_complex_matrix
from qdesigns.mub import (
    PRIME_CAP,
    PRIME_POWER_CAP,
    QUBIT_CAP,
    MubFamily,
    export_family,
    family_for_dimension,
    haar_moment,
    haar_moment_mc,
    load_family,
    mub_galois_ring,
    mub_prime,
    mub_prime_power,
    state_design_sum,
    t_design_angle_check,
    verify_unbiased,
)

W3 = np.exp(2j * np.pi / 3)


def overlap_mod(u, v):
    return abs(np.vdot(u, v))


def test_mub_prime_rejects_two_and_composites():
    with pytest.raises(ValueError):
        mub_prime(2)
    with pytest.raises(ValueError):
        mub_prime(4)


def test_family_caps_fail_before_allocating(monkeypatch, no_numpy):
    def no_context(*args):
        raise AssertionError("built a field or ring context past the cap")

    monkeypatch.setattr(qdesigns.mub, "GfContext", no_context)
    monkeypatch.setattr(qdesigns.mub, "GrContext", no_context)
    no_numpy(qdesigns.mub)
    with pytest.raises(ValueError, match=f"p = 131 exceeds the supported cap {PRIME_CAP}"):
        mub_prime(131)
    with pytest.raises(ValueError, match=rf"p\^k = 243 outside the supported range \(k >= 1, p\^k <= {PRIME_POWER_CAP}\)"):
        mub_prime_power(3, 5)
    with pytest.raises(ValueError, match=f"qubit count n = {QUBIT_CAP + 1} outside 1..{QUBIT_CAP}"):
        mub_galois_ring(QUBIT_CAP + 1)


@pytest.mark.parametrize("d", [0, 1, 6, 12, 100])
def test_family_for_dimension_refuses_a_dimension_that_is_no_prime_power(d):
    with pytest.raises(ValueError, match=rf"^no MUB construction for dimension {d} \(not a prime power\)$"):
        family_for_dimension(d)


@pytest.mark.parametrize("d,p,k", [(121, 11, 2), (125, 5, 3)])
def test_family_for_dimension_builds_an_odd_prime_power(d, p, k):
    family = family_for_dimension(d)
    assert (family.d, family.kind) == (d, "prime_power")
    assert np.array_equal(family.states, mub_prime_power(p, k).states)


def test_qutrit_family_matches_worked_example():
    fam = mub_prime(3)
    b0 = np.array([(1, 1, 1), (1, W3, W3**2), (1, W3**2, W3)]) / math.sqrt(3)
    b1 = np.array([(1, W3, W3), (1, W3**2, 1), (1, 1, W3**2)]) / math.sqrt(3)
    assert np.abs(fam.states[0] - b0).max() < 1e-12
    assert np.abs(fam.states[1] - b1).max() < 1e-12
    assert np.allclose(fam.states[3], np.eye(3))


def test_prime_family_verifies():
    rep = verify_unbiased(mub_prime(5), tol=1e-9)
    assert rep.ok
    assert rep.max_orthonormality_error < 1e-12
    assert rep.max_unbiasedness_error < 1e-12


def test_prime_power_k1_coincides_with_prime():
    f1, f2 = mub_prime(3), mub_prime_power(3, 1)
    assert np.abs(f1.states - f2.states).max() < 1e-12


def test_prime_power_nine_all_cross_overlaps():
    fam = mub_prime_power(3, 2)
    target = 1 / 3
    s = fam.all_states()
    g = np.abs(s @ s.conj().T)
    for i in range(90):
        for j in range(90):
            if i // 9 == j // 9:
                want = 1.0 if i == j else 0.0
            else:
                want = target
            assert abs(g[i, j] - want) < 1e-9


def test_prime_power_flat_amplitudes():
    fam = mub_prime_power(5, 1)
    assert np.abs(np.abs(fam.states[1, 0]) - 1 / math.sqrt(5)).max() < 1e-12


def test_single_qubit_family_is_the_standard_triple():
    fam = mub_galois_ring(1)
    s2 = 1 / math.sqrt(2)
    expected = {
        (s2, s2): "plus", (s2, -s2): "minus",
        (s2, 1j * s2): "plus_i", (s2, -1j * s2): "minus_i",
        (1, 0): "zero", (0, 1): "one",
    }
    found = set()
    for a in range(3):
        for b in range(2):
            st = fam.states[a, b]
            st = st / (st[np.argmax(np.abs(st))] / np.abs(st[np.argmax(np.abs(st))]))
            for (c0, c1), name in expected.items():
                if abs(st[0] - c0) < 1e-9 and abs(st[1] - c1) < 1e-9:
                    found.add(name)
    assert found == set(expected.values())


def test_two_qubit_family_matches_worked_example():
    fam = mub_galois_ring(2)
    assert np.abs(fam.states[0, 0] - np.array([1, 1, 1, 1]) / 2).max() < 1e-12
    assert np.abs(fam.states[1, 0] - np.array([1, -1, -1j, -1j]) / 2).max() < 1e-12
    # full published listing of basis 0 and basis 1
    b0 = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]]) / 2
    b1 = np.array([[1, -1, -1j, -1j], [1, -1, 1j, 1j], [1, 1, 1j, -1j], [1, 1, -1j, 1j]]) / 2
    assert np.abs(fam.states[0] - b0).max() < 1e-12
    assert np.abs(fam.states[1] - b1).max() < 1e-12


def test_three_qubit_family_verifies():
    rep = verify_unbiased(mub_galois_ring(3), tol=1e-9)
    assert rep.ok


def test_two_qubit_errors_are_tiny():
    rep = verify_unbiased(mub_galois_ring(2), tol=1e-9)
    assert rep.max_orthonormality_error < 1e-12
    assert rep.max_unbiasedness_error < 1e-12


def test_verify_locates_corruption():
    fam = mub_prime(3)
    states = fam.states.copy()
    states[1, 2] = np.array([1, 0, 0], dtype=complex)
    rep = verify_unbiased(MubFamily(d=3, kind="prime", states=states), tol=1e-9)
    assert not rep.ok
    flagged = {rep.worst_orthonormality_pair[0], rep.worst_orthonormality_pair[1],
               rep.worst_unbiasedness_pair[0], rep.worst_unbiasedness_pair[1]}
    assert (1, 2) in flagged


def test_state_design_sum_identity_matrix():
    fam = mub_prime(5)
    d = 5
    val = state_design_sum(fam, np.eye(d), np.eye(d))
    assert abs(val - (d * d + d)) < 1e-9


def test_state_design_sum_traceless():
    fam = mub_galois_ring(1)
    z = np.diag([1.0, -1.0]).astype(complex)
    assert abs(state_design_sum(fam, z, z) - 2) < 1e-9


def test_state_design_sum_random_operators():
    rng = np.random.default_rng(42)
    fam = mub_prime_power(3, 2)
    for _ in range(5):
        m = random_complex_matrix(rng, 9)
        n = random_complex_matrix(rng, 9)
        got = state_design_sum(fam, m, n)
        want = np.trace(m @ n) + np.trace(m) * np.trace(n)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_state_design_sum_bilinear():
    rng = np.random.default_rng(1)
    fam = mub_prime(3)
    m1, m2, n = (random_complex_matrix(rng, 3) for _ in range(3))
    lhs = state_design_sum(fam, m1 + 2j * m2, n)
    rhs = state_design_sum(fam, m1, n) + 2j * state_design_sum(fam, m2, n)
    assert abs(lhs - rhs) < 1e-9


def test_haar_moment_identity():
    assert abs(haar_moment(np.eye(4), np.eye(4)) - 1) < 1e-12


@pytest.mark.parametrize("builder,arg", [(mub_prime, 5), (mub_galois_ring, 2)])
def test_haar_moment_equals_design_average(builder, arg):
    rng = np.random.default_rng(8)
    fam = builder(arg)
    d = fam.d
    m, n = random_complex_matrix(rng, d), random_complex_matrix(rng, d)
    assert abs(state_design_sum(fam, m, n) / (d * (d + 1)) - haar_moment(m, n)) < 1e-9


def test_haar_moment_monte_carlo():
    rng = np.random.default_rng(17)
    m, n = random_complex_matrix(rng, 4), random_complex_matrix(rng, 4)
    mean, stderr = haar_moment_mc(m, n, 100_000, rng)
    assert abs(mean - haar_moment(m, n)) < 5 * stderr


@pytest.mark.parametrize("samples", [0, -3])
def test_haar_moment_monte_carlo_needs_a_sample(samples):
    m = np.eye(2)
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        haar_moment_mc(m, m, samples, np.random.default_rng(0))


@pytest.mark.parametrize("fam_builder,arg", [
    (mub_prime, 3), (mub_prime, 7), (mub_prime_power, (3, 2)), (mub_galois_ring, 2), (mub_galois_ring, 3),
])
def test_angle_sums(fam_builder, arg):
    fam = fam_builder(*arg) if isinstance(arg, tuple) else fam_builder(arg)
    d = fam.d
    assert abs(t_design_angle_check(fam, 0) - 1) < 1e-9
    assert abs(t_design_angle_check(fam, 1) - 1 / d) < 1e-9
    assert abs(t_design_angle_check(fam, 2) - 2 / (d * (d + 1))) < 1e-9


def test_angle_set_is_zero_and_one_over_d():
    fam = mub_galois_ring(2)
    s = fam.all_states()
    g2 = np.abs(s @ s.conj().T) ** 2
    for i in range(g2.shape[0]):
        for j in range(g2.shape[1]):
            if i == j:
                continue
            assert min(abs(g2[i, j]), abs(g2[i, j] - 1 / fam.d)) < 1e-9


def test_global_phase_invariance():
    fam = mub_prime(3)
    states = fam.states.copy()
    states[0, 0] = states[0, 0] * np.exp(0.731j)
    phased = MubFamily(d=3, kind="prime", states=states)
    assert verify_unbiased(phased, tol=1e-9).ok
    assert abs(t_design_angle_check(phased, 2) - t_design_angle_check(fam, 2)) < 1e-12


def test_export_round_trip(tmp_path):
    fam = mub_galois_ring(2)
    path = tmp_path / "fam.mub"
    export_family(fam, str(path))
    loaded = load_family(str(path))
    assert loaded.d == 4 and loaded.kind == "galois_ring"
    assert np.abs(loaded.states - fam.states).max() == 0.0  # repr round-trips doubles exactly


# --- slow reference paths: the per-(a, b, x) formulas the builders replace ---

def reference_prime(p):
    x = np.arange(p)
    states = np.empty((p + 1, p, p), dtype=complex)
    omega = np.exp(2j * np.pi / p)
    for a in range(p):
        for b in range(p):
            states[a, b] = omega ** ((a * x * x + b * x) % p) / math.sqrt(p)
    states[p] = np.eye(p)
    return states


def power_sum_trace(y, base, k):
    """tr(y) = sum_j y^(base^j), read off the constant coefficient: the field
    trace for base = p, and the GR(4^k) trace of a Teichmuller y for base = 2."""
    acc = y.ctx.zero
    for j in range(k):
        acc = acc + y ** (base**j)
    assert acc.coeffs[1:] == (0,) * (k - 1)
    return acc.coeffs[0]


def reference_prime_power(p, k):
    ctx = GfContext(p, k)
    d = p**k
    els = ctx.elements()
    tr = [power_sum_trace(y, p, k) for y in els]  # tr[label of y] = tr(y)
    omega = np.exp(2j * np.pi / p)
    states = np.empty((d + 1, d, d), dtype=complex)
    for a_lab, a in enumerate(els):
        tr_ax2 = np.array([tr[(a * x * x).int_label] for x in els])
        for b_lab, b in enumerate(els):
            tr_bx = np.array([tr[(b * x).int_label] for x in els])
            states[a_lab, b_lab] = omega ** ((tr_ax2 + tr_bx) % p) * (1 / math.sqrt(d))
    states[d] = np.eye(d)
    return states


def reference_galois_ring(n):
    ctx = GrContext(n)
    d = 2**n
    teich = ctx.teichmuller
    tr = {t.coeffs: power_sum_trace(t, 2, n) for t in teich}  # the Teichmuller set is closed under *
    tr_ax = np.array([[tr[(a * x).coeffs] for x in teich] for a in teich])
    states = np.empty((d + 1, d, d), dtype=complex)
    for ai in range(d):
        for bi in range(d):
            states[ai, bi] = np.array(I_POWERS)[(tr_ax[ai] + 2 * tr_ax[bi]) % 4] * (1 / math.sqrt(d))
    states[d] = np.eye(d)
    return states


def reference_export_text(family):
    lines = [f"MUB d={family.d} kind={family.kind}"]
    for a in range(family.d + 1):
        for b in range(family.d):
            nums = " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in family.states[a, b])
            lines.append(f"{a} {b} {nums}")
    return "\n".join(lines) + "\n"


def reference_angle_sum(family, k):
    s = family.all_states()
    g2 = np.abs(s @ s.conj().T) ** 2
    return float(np.sum(g2**k) / s.shape[0] ** 2)


@pytest.mark.parametrize("p", [3, 5, 7, 61])
def test_prime_builder_is_bit_identical_to_reference(p):
    assert np.array_equal(mub_prime(p).states.view(float), reference_prime(p).view(float))


def reference_prime_exponent_table(p):
    """mub_prime's own a x^2 + b x exponent table, before it took GF(p)'s trace forms."""
    x = np.arange(p)
    e = (x[:, None, None] * x * x + x[:, None] * x) % p  # e[a, b, x] = a x^2 + b x
    states = np.empty((p + 1, p, p), dtype=complex)
    states[:p] = (np.exp(2j * np.pi / p) ** np.arange(p))[e] / math.sqrt(p)
    states[p] = np.eye(p)
    return states


@pytest.mark.parametrize("p", [p for p in range(3, PRIME_CAP + 1) if is_prime(p)])
def test_prime_family_is_the_exponent_table_bit_for_bit(p):
    assert mub_prime(p).states.tobytes() == reference_prime_exponent_table(p).tobytes()


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_prime_power_builder_is_bit_identical_to_reference(p, k):
    assert np.array_equal(mub_prime_power(p, k).states.view(float), reference_prime_power(p, k).view(float))


@pytest.mark.parametrize("n", range(1, 7))
def test_galois_ring_builder_is_bit_identical_to_reference(n):
    assert np.array_equal(mub_galois_ring(n).states.view(float), reference_galois_ring(n).view(float))


# sha256 of states.tobytes() for every family the GR(4^m) and GF(p^k) traces feed
FAMILY_STATE_SHA256 = {
    ("galois_ring", 1): "85ca8b541f1839bc77d538b2f87dcd36661e0b8bcc53365aa326b31f10369c2b",
    ("galois_ring", 2): "0bef70f71c5320945678cc499eb46c72cbf439095e8c22fe829d7d14a4a19e0a",
    ("galois_ring", 3): "ac8fb4286e50d0eac662261787734c97281a77f0c8882f21f64aa47a89d640d4",
    ("galois_ring", 4): "961b39968cc08096d9431d2adb10db6b42fdf3200f7b4a77f370270db2d9356b",
    ("galois_ring", 5): "c9825d70165809ee324188fc599a62cf11aeb3ca115ad34a236780d91992de40",
    ("galois_ring", 6): "81b1dba2519867a0a6ff00967cbf7b7ca41f4a526f8b211fa0266baf9daf8d48",
    ("galois_ring", 7): "e64bd7f00c3616ed032d95cbb31948137391f3cf113f497a86e5c95b17a7b6e9",
    ("prime_power", 3, 4): "6eaeaada8207f4de609577dfd591682ce892dc8fbff4b237ff4a7390c99f4d67",
    ("prime_power", 5, 3): "15e0389be9d88ab2a0f12a5055255451c9f69f3ad56abd03fb7426f18969c4b2",
    ("prime_power", 7, 2): "43bd1729ef0f2d428ec59a888b54a8099852ead57b339b2a4cf9a7a600c96836",
    ("prime_power", 11, 2): "4cd0be55434e60c7726c10b346cb0087861ae511670a9e8e929dd18d13f2b0d0",
    ("prime", 3): "53023e2e6a07b809767da9b9b3a6b9d84edb73fd6e422b20fe7f0ebaaa8d83ca",
    ("prime", 61): "f9f0bb96376be3dfa7ac4f7c4dd1f1bb78659734b6245018cf98ce715087bf0c",
    ("prime", 127): "eb44441b1aa87aca1760ae13b7d8aade644c1e4641a4527c05fe9be7747364a9",
}
_BUILDERS = {"prime": mub_prime, "prime_power": mub_prime_power, "galois_ring": mub_galois_ring}


@pytest.mark.parametrize("key", FAMILY_STATE_SHA256, ids=lambda key: "-".join(map(str, key)))
def test_family_states_match_pinned_hashes(key):
    family = _BUILDERS[key[0]](*key[1:])
    assert hashlib.sha256(family.states.tobytes()).hexdigest() == FAMILY_STATE_SHA256[key]


@pytest.mark.parametrize("fam", [mub_prime(17), mub_galois_ring(4)], ids=["p17", "q4"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_blocked_angle_check_matches_full_gram(fam, k):
    assert abs(t_design_angle_check(fam, k) - reference_angle_sum(fam, k)) <= 1e-15


@pytest.mark.parametrize("fam", [mub_prime(17), mub_galois_ring(4), mub_prime_power(3, 2)], ids=["p17", "q4", "9"])
def test_one_walk_for_several_powers_matches_one_walk_each(fam):
    # same sums in the same order: bit for bit, in any order of the powers
    assert t_design_angle_check(fam, (0, 1, 2)) == tuple(t_design_angle_check(fam, k) for k in (0, 1, 2))
    assert t_design_angle_check(fam, (2, 1)) == (t_design_angle_check(fam, 2), t_design_angle_check(fam, 1))
    with pytest.raises(ValueError):
        t_design_angle_check(fam, (1, 3))


def per_pair_verify_unbiased(family, tol=1e-9):
    """verify_unbiased as one d x d Gram block per pair of bases a1 <= a2:
    the oracle for the Gram walk."""
    d = family.d
    target = 1 / math.sqrt(d)
    max_orth, max_cross = 0.0, 0.0
    worst_orth = worst_cross = ((0, 0), (0, 0))
    for a1 in range(d + 1):
        b1 = family.states[a1]
        for a2 in range(a1, d + 1):
            g = np.abs(b1 @ family.states[a2].conj().T)
            if a1 == a2:
                err = np.abs(g - np.eye(d))
            else:
                err = np.abs(g - target)
            i, j = np.unravel_index(np.argmax(err), err.shape)  # argmax lands on a NaN if there is one
            e = math.inf if math.isnan(err[i, j]) else float(err[i, j])
            if a1 == a2:
                if e > max_orth:
                    max_orth, worst_orth = e, ((a1, int(i)), (a2, int(j)))
            else:
                if e > max_cross:
                    max_cross, worst_cross = e, ((a1, int(i)), (a2, int(j)))
    return qdesigns.mub.VerifyReport(
        ok=max_orth <= tol and max_cross <= tol,
        max_orthonormality_error=max_orth,
        max_unbiasedness_error=max_cross,
        worst_orthonormality_pair=worst_orth,
        worst_unbiasedness_pair=worst_cross,
    )


def _perturbed(family, a, b, x, factor):
    states = family.states.copy()
    states[a, b, x] *= factor
    return MubFamily(d=family.d, kind=family.kind, states=states)


_ORACLE_FAMILIES = {
    **{f"p{p}": (mub_prime, p) for p in range(3, 62, 2) if is_prime(p)},
    # k = 1 builds the prime families' states bit for bit
    **{f"pp{p}^{k}": (mub_prime_power, p, k) for p in (3, 5, 7, 11) for k in (2, 3, 4) if p**k <= PRIME_POWER_CAP},
    **{f"q{n}": (mub_galois_ring, n) for n in range(1, 7)},
    "p7_one_amplitude_perturbed": (lambda: _perturbed(mub_prime(7), 3, 2, 4, 1.001),),
    "pp9_all_nan": (lambda: MubFamily(d=9, kind="prime_power", states=np.full((10, 9, 9), np.nan, dtype=complex)),),
    "q3_one_nan": (lambda: _perturbed(mub_galois_ring(3), 5, 6, 2, np.nan),),
}


@pytest.mark.parametrize("build", _ORACLE_FAMILIES.values(), ids=_ORACLE_FAMILIES.keys())
def test_verify_unbiased_matches_per_pair_oracle(build):
    family = build[0](*build[1:])
    assert verify_unbiased(family) == per_pair_verify_unbiased(family)


@pytest.mark.parametrize("fam", [
    mub_galois_ring(3),
    mub_prime_power(3, 2),
    MubFamily(d=4, kind="galois_ring", states=np.asfortranarray(mub_galois_ring(2).states)),
    MubFamily(d=4, kind="galois_ring", states=mub_galois_ring(2).states.astype(np.complex64)),
], ids=["q3", "pp9", "q2_fortran_order", "q2_complex64"])
def test_export_bytes_match_reference_formatter(fam, tmp_path):
    path = tmp_path / "fam.mub"
    export_family(fam, str(path))
    assert path.read_bytes() == reference_export_text(fam).encode()


def test_verify_fails_nan_family():
    rep = verify_unbiased(MubFamily(d=3, kind="prime", states=np.full((4, 3, 3), np.nan, dtype=complex)))
    assert not rep.ok
    assert rep.max_orthonormality_error == math.inf and rep.max_unbiasedness_error == math.inf


def test_verify_fails_single_nan_amplitude():
    states = mub_prime(5).states.copy()
    states[2, 3, 1] = complex(np.nan, 0.0)
    rep = verify_unbiased(MubFamily(d=5, kind="prime", states=states))
    assert not rep.ok
    assert rep.worst_orthonormality_pair[0] == (2, 3) or rep.worst_orthonormality_pair[1] == (2, 3)


def _amplitude_arrays():
    return st.integers(1, 4).flatmap(lambda d: arrays(
        np.float64, (d + 1, d, 2 * d), elements=st.floats(allow_nan=False, allow_infinity=False)))


@settings(max_examples=60, deadline=None)
@given(_amplitude_arrays())
@example(np.array([[[-0.0, 0.0]], [[5e-324, -2.2250738585072014e-308]]]))
@example(np.array([[[1e308, -1e308]], [[1.7976931348623157e308, -5e-324]]]))
def test_export_load_round_trips_bit_for_bit(amps):
    d = amps.shape[1]
    fam = MubFamily(d=d, kind="prime", states=np.ascontiguousarray(amps).view(complex))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fam.mub"
        export_family(fam, path)
        loaded = load_family(path)
    assert loaded.d == d and loaded.kind == "prime"
    assert loaded.states.tobytes() == fam.states.tobytes()


def _q1_lines(tmp_path):
    path = tmp_path / "q1.mub"
    export_family(mub_galois_ring(1), str(path))
    return path, path.read_text().splitlines()


def _set_line(lines, i, a=None, b=None, nums=None):
    parts = lines[i].split()
    if a is not None:
        parts[0] = a
    if b is not None:
        parts[1] = b
    if nums is not None:
        parts[2:] = nums
    lines[i] = " ".join(parts)


@pytest.mark.parametrize("edit,message", [
    (lambda ls: _set_line(ls, 1, a="9"), "line 2: label (a=9, b=0) outside"),
    (lambda ls: _set_line(ls, 3, a="-1"), "line 4: label (a=-1, b=0) outside"),
    (lambda ls: _set_line(ls, 2, b="0"), "line 3: duplicate state line for (a=0, b=0)"),
    (lambda ls: _set_line(ls, 1, a="0.5"), "line 2: expected integer labels"),
    (lambda ls: _set_line(ls, 1, nums=["1.0", "0.0", "x", "0.0"]), "line 2: expected integer labels"),
    (lambda ls: _set_line(ls, 5, nums=["1.0", "0.0"]), "line 6: state line for (a=2, b=0) needs 4 numbers, all finite; got 2, 2 finite"),
    (lambda ls: _set_line(ls, 1, nums=["nan", "0.0", "0.0", "0.0"]), "line 2: state line for (a=0, b=0) needs 4 numbers, all finite; got 4, 3 finite"),
    (lambda ls: _set_line(ls, 1, nums=["1e400", "0.0", "0.0", "0.0"]), "line 2: state line for (a=0, b=0) needs 4 numbers, all finite; got 4, 3 finite"),
    (lambda ls: ls.__setitem__(0, "MUB d=0 kind=galois_ring"), "line 1: bad MUB header"),
    (lambda ls: ls.__setitem__(0, "MUB d=two kind=galois_ring"), "line 1: bad MUB header"),
    (lambda ls: ls.pop(), "expected 6 state lines, found 5"),
    (lambda ls: ls.clear(), "line 1: bad MUB header ''"),
])
def test_load_rejects_malformed_files(tmp_path, edit, message):
    path, lines = _q1_lines(tmp_path)
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        load_family(str(path))
    assert message in str(exc.value)
