"""Channel representations, conversions, and fidelity formulas."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdesigns.channels
from qdesigns.channels import (
    ChoiMatrix,
    KrausChannel,
    Supermatrix,
    avg_fidelity_exact,
    avg_from_entanglement,
    channel_from_json,
    channel_to_json,
    choi_to_kraus,
    depolarizing,
    entanglement_fidelity,
    generalized_paulis,
    invariant_decompose,
    kraus_to_supermatrix,
    standard_noise,
    supermatrix_to_choi,
    unitary_channel,
    unvec,
    vec,
)
from qdesigns.linalg import (
    SUPERMATRIX_DIM_CAP,
    dagger,
    hermitian_eig,
    random_density,
    random_kraus_channel_ops,
)

from helpers import random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)


def random_channel(rng, d, k=3):
    return KrausChannel(d, tuple(random_kraus_channel_ops(rng, d, k)))


def test_vec_convention_pins_column_stacking():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(vec(a), [1, 3, 2, 4])
    assert np.allclose(unvec(vec(a)), a)


def test_channel_and_config_equality_is_identity_and_never_raises():
    from qdesigns.estimate import ExperimentConfig

    ch = depolarizing(2, 0.9)
    assert ch == ch
    assert (ch == depolarizing(2, 0.9)) is False
    assert len({ch, ch}) == 1
    cfg = ExperimentConfig(ch, target_unitary=np.eye(2, dtype=complex))
    assert cfg == cfg
    assert (cfg == ExperimentConfig(ch, target_unitary=np.eye(2, dtype=complex))) is False

    from qdesigns.mub import MubFamily
    from qdesigns.twirl import PauliChannel

    # every frozen dataclass that holds an array compares by identity
    makers = [
        lambda: Supermatrix(2, np.eye(4, dtype=complex)),
        lambda: ChoiMatrix(2, np.eye(4, dtype=complex)),
        lambda: PauliChannel(2, 1, np.full(4, 0.25)),
        lambda: MubFamily(2, "prime", np.zeros((3, 2, 2), dtype=complex)),
    ]
    for make in makers:
        obj = make()
        assert obj == obj
        assert (obj == make()) is False
        assert len({obj, obj}) == 1


def test_identity_channel_apply():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 3)
    assert np.abs(unitary_channel(np.eye(3)).apply(rho) - rho).max() < 1e-12


def test_bit_flip_edge_probability():
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    assert np.abs(standard_noise("bit_flip", 1.0).apply(rho) - rho).max() < 1e-12
    flipped = standard_noise("bit_flip", 0.0).apply(rho)
    assert np.abs(flipped - X @ rho @ X).max() < 1e-12


def test_phase_flip_zero_is_z_conjugation():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 2)
    out = standard_noise("phase_flip", 0.0).apply(rho)
    assert np.abs(out - Z @ rho @ Z).max() < 1e-12


def test_bit_phase_flip_half_on_zero_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = standard_noise("bit_phase_flip", 0.5).apply(rho)
    assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-12


def test_depolarizing_limits_and_formula():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 2)
    assert np.abs(depolarizing(2, 1.0).apply(rho) - rho).max() < 1e-12
    assert np.abs(depolarizing(2, 0.0).apply(rho) - np.eye(2) / 2).max() < 1e-12
    rho3 = random_density(rng, 3)
    out = depolarizing(3, 0.5).apply(rho3)
    assert np.abs(out - (0.5 * rho3 + 0.5 * np.eye(3) / 3)).max() < 1e-12
    with pytest.raises(ValueError):
        depolarizing(2, 1.5)


def test_depolarizing_matches_single_qubit_pauli_form():
    # with q = 1 - p the map reads (1 - 3q/4) rho + (q/4)(X rho X + Y rho Y + Z rho Z)
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    p = 0.6
    q = 1 - p
    want = (1 - 3 * q / 4) * rho + (q / 4) * (X @ rho @ X + Y @ rho @ Y + Z @ rho @ Z)
    assert np.abs(depolarizing(2, p).apply(rho) - want).max() < 1e-12


def test_supermatrix_of_identity_and_unitary():
    assert np.abs(kraus_to_supermatrix(unitary_channel(np.eye(2))).mat - np.eye(4)).max() < 1e-12
    rng = np.random.default_rng(4)
    u = random_unitary(rng, 3)
    s = kraus_to_supermatrix(unitary_channel(u))
    assert np.abs(s.mat - np.kron(u.conj(), u)).max() < 1e-12


def test_supermatrix_action_matches_kraus():
    rng = np.random.default_rng(5)
    ch = random_channel(rng, 3, k=2)
    s = kraus_to_supermatrix(ch)
    for _ in range(5):
        rho = random_density(rng, 3)
        assert np.abs(s.apply(rho) - ch.apply(rho)).max() < 1e-10
        assert np.abs(s.mat @ vec(rho) - vec(ch.apply(rho))).max() < 1e-10


def test_choi_of_identity_is_entangled_projector():
    choi = supermatrix_to_choi(kraus_to_supermatrix(unitary_channel(np.eye(2)))).mat
    want = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            want[i * 2 + i, j * 2 + j] = 1  # sum_ij |ii><jj|
    assert np.abs(choi - want).max() < 1e-12


def test_choi_of_fully_depolarizing():
    choi = supermatrix_to_choi(kraus_to_supermatrix(depolarizing(2, 0.0))).mat
    assert np.abs(choi - np.eye(4) / 2).max() < 1e-12


def test_choi_hermitian_for_random_channel():
    rng = np.random.default_rng(6)
    choi = supermatrix_to_choi(kraus_to_supermatrix(random_channel(rng, 4))).mat
    assert np.abs(choi - choi.conj().T).max() < 1e-8


@pytest.mark.parametrize("d", [2, 3, 4])
def test_round_trip_preserves_action(d):
    rng = np.random.default_rng(d)
    ch = random_channel(rng, d, k=3)
    back = choi_to_kraus(supermatrix_to_choi(kraus_to_supermatrix(ch)))
    for _ in range(10):
        rho = random_density(rng, d)
        assert np.abs(back.apply(rho) - ch.apply(rho)).max() < 1e-7


def test_round_trip_depolarizing():
    ch = depolarizing(2, 0.7)
    back = choi_to_kraus(supermatrix_to_choi(kraus_to_supermatrix(ch)))
    rng = np.random.default_rng(7)
    rho = random_density(rng, 2)
    assert np.abs(back.apply(rho) - ch.apply(rho)).max() < 1e-9


def test_unitary_channel_recovers_single_kraus():
    rng = np.random.default_rng(8)
    u = random_unitary(rng, 3)
    back = choi_to_kraus(supermatrix_to_choi(kraus_to_supermatrix(unitary_channel(u))))
    assert len(back.kraus) == 1
    a = back.kraus[0]
    phase = np.vdot(vec(u), vec(a))
    phase /= abs(phase)
    assert np.abs(a - phase * u).max() < 1e-8


def test_choi_rejects_non_cp():
    bad = ChoiMatrix(2, np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        choi_to_kraus(bad)


def test_avg_fidelity_exact_identity_and_depolarizing():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 4)
    assert abs(avg_fidelity_exact(u, unitary_channel(u)) - 1) < 1e-12
    for d in range(2, 7):
        for p in (0.0, 0.25, 0.9, 1.0):
            got = avg_fidelity_exact(np.eye(d), depolarizing(d, p))
            assert abs(got - (p + (1 - p) / d)) < 1e-12
    assert abs(avg_fidelity_exact(np.eye(2), depolarizing(2, 0.9)) - 0.95) < 1e-12


def test_avg_fidelity_u_independent():
    # factoring u out of E compose u leaves the value fixed
    rng = np.random.default_rng(10)
    d = 3
    noise = random_channel(rng, d)
    u = random_unitary(rng, d)
    implemented = KrausChannel(d, tuple(a @ u for a in noise.kraus))
    assert abs(avg_fidelity_exact(u, implemented) - avg_fidelity_exact(np.eye(d), noise)) < 1e-9


def test_entanglement_fidelity_formulas():
    assert abs(entanglement_fidelity(unitary_channel(np.eye(3))) - 1) < 1e-12
    for d in (2, 3, 4):
        for p in (0.0, 0.5, 0.9):
            got = entanglement_fidelity(depolarizing(d, p))
            assert abs(got - (p + (1 - p) / d**2)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fidelity_relation(d):
    rng = np.random.default_rng(d + 20)
    for _ in range(20):
        ch = random_channel(rng, d, k=int(rng.integers(1, d * d + 1)))
        lhs = avg_fidelity_exact(np.eye(d), ch)
        rhs = avg_from_entanglement(d, entanglement_fidelity(ch))
        assert abs(lhs - rhs) < 1e-9
        assert -1e-12 <= lhs <= 1 + 1e-12
        assert -1e-12 <= entanglement_fidelity(ch) <= 1 + 1e-12


def test_fidelity_monte_carlo_oracle():
    # <psi|E(|psi><psi|)|psi> = sum_k |<psi|A_k|psi>|^2 averaged over random states
    rng = np.random.default_rng(77)
    d = 3
    ch = random_channel(rng, d)
    g = rng.standard_normal((100_000, d)) + 1j * rng.standard_normal((100_000, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    vals = np.zeros(g.shape[0])
    for a in ch.kraus:
        vals += np.abs(np.einsum("si,ij,sj->s", g.conj(), a, g)) ** 2
    exact = avg_fidelity_exact(np.eye(d), ch)
    assert abs(vals.mean() - exact) < 5 * vals.std() / math.sqrt(vals.size)


def test_invariant_decompose():
    p, q = invariant_decompose(unitary_channel(np.eye(3)))
    assert abs(p - 1) < 1e-12 and abs(q) < 1e-12
    p, q = invariant_decompose(depolarizing(4, 0.0))
    assert abs(p) < 1e-12 and abs(q - 1) < 1e-12
    p, q = invariant_decompose(depolarizing(3, 0.35))
    assert abs(p - 0.35) < 1e-12 and abs(q - 0.65) < 1e-12


def test_json_round_trip_and_validation():
    ch = depolarizing(3, 0.4)
    text = channel_to_json(ch)
    back = channel_from_json(text)
    rng = np.random.default_rng(11)
    rho = random_density(rng, 3)
    assert np.abs(back.apply(rho) - ch.apply(rho)).max() < 1e-12
    broken = text.replace("0.0", "0.3", 1)
    with pytest.raises(ValueError):
        channel_from_json(broken)


@pytest.mark.parametrize("scale,loads", [(1 + 1e-12, True), (1 + 4.9e-9, True), (1 + 5.1e-9, False), (1 + 1e-7, False)])
def test_channel_from_json_refuses_exactly_what_trace_preserving_refuses(scale, loads):
    # one Kraus operator scale * I misses completeness by scale^2 - 1, about 2 (scale - 1), against 1e-8
    assert KrausChannel(2, np.array([scale * np.eye(2)])).trace_preserving is loads
    text = json.dumps({"dim": 2, "kraus": [[[scale, 0], [0, 0], [0, 0], [scale, 0]]]})
    if loads:
        assert channel_from_json(text).trace_preserving
    else:
        with pytest.raises(ValueError, match="^Kraus operators fail the completeness check$"):
            channel_from_json(text)


def test_trace_preserving_flag():
    assert depolarizing(3, 0.2).trace_preserving
    half = KrausChannel(2, (np.eye(2, dtype=complex) / 2,))
    assert not half.trace_preserving
    with pytest.raises(ValueError):
        avg_fidelity_exact(np.eye(2), half)


def kron_entanglement_fidelity(ch):
    """<phi| (I (x) E)(|phi><phi|) |phi> by explicit d^2-dimensional
    construction: the oracle for the closed form."""
    d = ch.dim
    phi = np.zeros(d * d, dtype=complex)
    for x in range(d):
        phi[x * d + x] = 1
    phi /= math.sqrt(d)
    eye = np.eye(d, dtype=complex)
    return float(sum(abs(np.vdot(phi, np.kron(eye, a) @ phi)) ** 2 for a in ch.kraus))


def oracle_channels():
    rng = np.random.default_rng(12)
    chans = [depolarizing(d, p) for d in (2, 3, 4, 8) for p in (0.0, 0.35, 0.9, 1.0)]
    chans += [standard_noise(kind, p) for kind in ("bit_flip", "phase_flip", "bit_phase_flip")
              for p in (0.0, 0.2, 1.0)]
    chans += [random_channel(rng, d, k) for d, k in ((2, 1), (3, 4), (5, 7), (6, 36))]
    return chans


def test_entanglement_fidelity_matches_kron_oracle():
    for ch in oracle_channels():
        assert abs(entanglement_fidelity(ch) - kron_entanglement_fidelity(ch)) < 1e-14


def test_invariant_decompose_matches_supermatrix_oracle():
    rng = np.random.default_rng(13)
    half = KrausChannel(3, (np.eye(3, dtype=complex) / 2, random_unitary(rng, 3) / 3))
    for ch in oracle_channels() + [half]:
        got = invariant_decompose(ch)
        want = invariant_decompose(kraus_to_supermatrix(ch))
        assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) < 1e-14


def test_invariant_decompose_needs_two_levels():
    with pytest.raises(ValueError, match="d >= 2"):
        invariant_decompose(unitary_channel(np.eye(1)))


def test_channel_dimension_cap_fails_before_allocating(monkeypatch):
    def no_paulis(d):
        raise AssertionError(f"built {d * d} Pauli operators past the cap")

    monkeypatch.setattr(qdesigns.channels, "generalized_paulis", no_paulis)
    cap_d = math.isqrt(SUPERMATRIX_DIM_CAP)
    for d in (cap_d + 1, 300, 0, -3):
        with pytest.raises(ValueError, match=f"channel dimension {d} outside 1..{cap_d}"):
            depolarizing(d, 0.9)
        with pytest.raises(ValueError, match=f"channel dimension {d} outside"):
            channel_from_json(json.dumps({"dim": d, "kraus": [[[1.0, 0.0]]]}))


@pytest.mark.parametrize("kraus,message", [
    ([[[1, 0]], [[1, "x"]]], r"Kraus entry 1 is not 1 pairs \[re, im\] of finite numbers"),
    ([[[1, 0]], [[1, 0, 0]]], "Kraus entry 1 is not 1 pairs"),
    ([[[1, 0]], [1, 0]], "Kraus entry 1 is not 1 pairs"),
    ([[[1, 0], [0, 0]]], "Kraus entry 0 is not 1 pairs"),
    ([[[1, 0]], [[1, 0], 2]], "Kraus entry 1 is not 1 pairs"),
    ([[[1, 0]], [[None, 0]]], "Kraus entry 1 is not 1 pairs"),
    ([[[1, 0]], {"re": 1}], "Kraus entry 1 is not 1 pairs"),
    ([[[1, 0]], [[10**400, 0]]], "Kraus entry 1 is not 1 pairs"),
    ([[[1, 0]], [[float("nan"), 0]]], "Kraus entry 1 is not 1 pairs"),
    ([[[1, float("inf")]]], "Kraus entry 0 is not 1 pairs"),
    ([], "non-empty list"),
    ("kraus", "non-empty list"),
])
def test_channel_from_json_rejects_malformed_entries(kraus, message):
    with pytest.raises(ValueError, match=message):
        channel_from_json(json.dumps({"dim": 1, "kraus": kraus}))


@pytest.mark.parametrize("text,message", [
    ('{"kraus": [[[1, 0]]]}', "keys"),
    ('{"dim": 1}', "keys"),
    ('[1, 2]', "keys"),
    ('{"dim": "1", "kraus": [[[1, 0]]]}', "dim must be an integer"),
    ('{"dim": 1.0, "kraus": [[[1, 0]]]}', "dim must be an integer"),
    ('{"dim": true, "kraus": [[[1, 0]]]}', "dim must be an integer"),
])
def test_channel_from_json_rejects_malformed_payload(text, message):
    with pytest.raises(ValueError, match=message):
        channel_from_json(text)


@st.composite
def channel_texts(draw):
    """channel_to_json of a depolarizing channel whose Kraus operators carry
    random phases and zeros of random sign in their real and imaginary parts."""
    d = draw(st.integers(1, 4))
    p = draw(st.floats(0, 1))
    kraus = []
    for a in depolarizing(d, p).kraus:
        a = a * np.exp(1j * draw(st.floats(0, 2 * math.pi)))
        parts = a.view(float).copy()
        zero = parts == 0
        signs = draw(st.lists(st.booleans(), min_size=int(zero.sum()), max_size=int(zero.sum())))
        parts[zero] = np.where(signs, -0.0, 0.0)
        kraus.append(parts.view(complex))
    return channel_to_json(KrausChannel(d, tuple(kraus)))


@settings(max_examples=80, deadline=None)
@given(channel_texts())
def test_channel_json_round_trip_is_byte_identical(text):
    assert channel_to_json(channel_from_json(text)) == text


# --- the per-operator loops the stacked (K, d, d) array replaced, as oracles --

def loop_apply(ch, rho):
    out = np.zeros((ch.dim, ch.dim), dtype=complex)
    for a in ch.kraus:
        out += a @ rho @ dagger(a)
    return out


def loop_supermatrix(ch):
    mat = np.zeros((ch.dim**2, ch.dim**2), dtype=complex)
    for a in ch.kraus:
        mat += np.kron(a.conj(), a)
    return mat


def loop_choi(s):
    """sum_ij (E_ij (x) I) S (I (x) E_ij), one d^2 x d^2 product pair per (i, j)."""
    d = s.dim
    eye = np.eye(d, dtype=complex)
    out = np.zeros((d**2, d**2), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1
            out += np.kron(e, eye) @ s.mat @ np.kron(eye, e)
    return out


def loop_choi_to_kraus(x, drop_tol=1e-10):
    w, v = hermitian_eig(x.mat)
    ops = []
    for k in range(w.size - 1, -1, -1):
        lam = max(float(w[k]), 0.0)
        if lam > drop_tol:
            ops.append(math.sqrt(lam) * unvec(v[:, k]))
    return np.array(ops)


def loop_avg_fidelity(u, ch):
    d = ch.dim
    total = sum(abs(np.trace(a @ dagger(u))) ** 2 for a in ch.kraus)
    return float((total + d) / (d**2 + d))


def matrix_power_paulis(d):
    """X^a Z^b built by repeated d x d products, index a*d + b."""
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    out = []
    xa = np.eye(d, dtype=complex)
    for _ in range(d):
        zb = np.eye(d, dtype=complex)
        for _ in range(d):
            out.append(xa @ zb)
            zb = zb @ z
        xa = xa @ x
    return np.array(out)


def test_stacked_apply_and_supermatrix_match_loop_oracles():
    rng = np.random.default_rng(14)
    for ch in oracle_channels():
        rho = random_density(rng, ch.dim)
        assert np.abs(ch.apply(rho) - loop_apply(ch, rho)).max() <= 1e-13
        assert np.abs(kraus_to_supermatrix(ch).mat - loop_supermatrix(ch)).max() <= 1e-13


def test_choi_reshuffle_is_the_product_sum_bit_for_bit():
    rng = np.random.default_rng(15)
    for ch in oracle_channels():
        s = kraus_to_supermatrix(ch)
        assert np.array_equal(supermatrix_to_choi(s).mat, loop_choi(s))
    s = Supermatrix(3, random_kraus_channel_ops(rng, 9, 1)[0])  # not a channel's: any entries
    assert np.array_equal(supermatrix_to_choi(s).mat, loop_choi(s))


def test_stacked_choi_to_kraus_matches_eigenvalue_loop_bit_for_bit():
    for ch in oracle_channels():
        choi = supermatrix_to_choi(kraus_to_supermatrix(ch))
        assert np.array_equal(choi_to_kraus(choi).kraus, loop_choi_to_kraus(choi))


def test_avg_fidelity_and_unitary_composition_match_loop_oracles():
    rng = np.random.default_rng(16)
    for ch in oracle_channels():
        u = random_unitary(rng, ch.dim)
        assert abs(avg_fidelity_exact(u, ch) - loop_avg_fidelity(u, ch)) <= 1e-13
        with pytest.raises(ValueError, match="unitary shape"):
            avg_fidelity_exact(u.reshape(1, -1), ch)  # as many entries, but not d x d
        noise = ch.compose_unitary_inverse(u)
        assert np.abs(noise.kraus - np.array([a @ dagger(u) for a in ch.kraus])).max() <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_exponent_table_paulis_match_matrix_powers(d):
    got = generalized_paulis(d)
    assert got.shape == (d * d, d, d)
    assert np.abs(got - matrix_power_paulis(d)).max() <= 1e-13


def test_kraus_channel_keeps_a_stacked_array_and_iterates_as_before():
    stack = depolarizing(3, 0.4).kraus
    ch = KrausChannel(3, stack)
    assert ch.kraus is stack and stack.shape == (9, 3, 3)
    assert len(ch.kraus) == 9 and all(a.shape == (3, 3) for a in ch.kraus)


@pytest.mark.parametrize("kraus,message", [
    (np.eye(2, dtype=complex), "do not form a non-empty"),
    (np.zeros((2, 2, 3), dtype=complex), "do not form a non-empty"),
    (np.zeros((0, 2, 2), dtype=complex), "do not form a non-empty"),
    ((), "do not form a non-empty"),
])
def test_kraus_channel_rejects_malformed_stacks(kraus, message):
    with pytest.raises(ValueError, match=message):
        KrausChannel(2, kraus)


def test_supermatrix_and_choi_caps_fail_before_allocating():
    big = math.isqrt(SUPERMATRIX_DIM_CAP) + 1
    with pytest.raises(ValueError, match=f"channel dimension {big} outside"):
        kraus_to_supermatrix(unitary_channel(np.eye(big)))
    with pytest.raises(ValueError, match=f"channel dimension {big} outside"):
        supermatrix_to_choi(Supermatrix(big, np.zeros((1, 1))))
