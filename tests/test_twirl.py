"""Pauli/Clifford twirling, design checks, and the approximate-twirl chain."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdesigns.twirl
from qdesigns.channels import KrausChannel, depolarizing, kraus_to_supermatrix, unitary_channel
from qdesigns.channels import _invariant_pq
from qdesigns.circuits import Circuit, Gate, circuit_unitary, parallel_prefix_parity
from qdesigns.linalg import dagger, random_complex_matrix, random_density, random_kraus_channel_ops
from qdesigns.twirl import (
    EXACT_CHAIN_CAP,
    MATRIX_DIM_CAP,
    PauliChannel,
    PauliLabel,
    all_labels,
    approx_twirl_channel,
    char_sum,
    clifford_group_1q,
    clifford_twirl_exact,
    conjugate_label,
    epsilon0,
    frame_potential,
    ideal_good_case_distribution,
    l1_to_uniform,
    markov_transition_matrix,
    mc_convergence,
    mc_convergence_curve,
    pauli_matrix,
    pauli_twirl,
    pauli_twirl_brute,
    sample_twirl_circuit,
    symplectic_inner,
    twirl_bound,
    unitary_1design_check,
    unitary_design_check,
)
from qdesigns.twirl import (
    _MEAN, _ROUND, _THIRDS, _controls, _count_round, _draw, _exact_chain, _fan_in_move, _from_label_int,
    _mc_rounds, _move, _pauli_stack, _perm_table, _place, _round_gates, _to_label_int,
)

from helpers import push, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)


def random_channel(rng, d, k=3):
    return KrausChannel(d, tuple(random_kraus_channel_ops(rng, d, k)))


def test_pauli_matrix_basics():
    eye = pauli_matrix(PauliLabel.identity(2, 2))
    assert np.allclose(eye, np.eye(4))
    xz = pauli_matrix(PauliLabel(2, 1, (1,), (1,)))
    assert np.abs(xz - (-1j) * Y).max() < 1e-12
    z3 = pauli_matrix(PauliLabel(3, 1, (0,), (1,)))
    w = np.exp(2j * np.pi / 3)
    assert np.abs(z3 - np.diag([1, w, w**2])).max() < 1e-12
    # within 1e-14 of building each factor as X^a Z^b by matrix powers; the
    # factors now come from an exponent table of roots of unity
    for d, n in [(2, 2), (3, 2)]:
        x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        z = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
        for v in range(d ** (2 * n)):
            lab = PauliLabel.from_int(d, n, v)
            factors = [np.linalg.matrix_power(x, lab.xa[q]) @ np.linalg.matrix_power(z, lab.xb[q])
                       for q in range(n - 1, -1, -1)]
            assert np.abs(pauli_matrix(lab) - np.kron(*factors)).max() <= 1e-14


def test_label_int_round_trip():
    for v in range(64):
        lab = PauliLabel.from_int(2, 3, v)
        assert lab.to_int() == v
    for v in range(81):
        lab = PauliLabel.from_int(3, 2, v)
        assert lab.to_int() == v


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_label_int_round_trip_property(d, n, data):
    value = data.draw(st.integers(0, d ** (2 * n) - 1))
    label = PauliLabel.from_int(d, n, value)
    assert label.to_int() == value
    assert PauliLabel.from_int(d, n, label.to_int()) == label


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_label_multiplication_is_associative_property(d, n, data):
    labels = []
    for _ in range(3):  # each with a phase of its own
        lab = PauliLabel.from_int(d, n, data.draw(st.integers(0, d ** (2 * n) - 1)))
        labels.append(PauliLabel(d, n, lab.xa, lab.xb, data.draw(st.integers(0, d - 1))))
    a, b, c = labels
    assert (a * b) * c == a * (b * c)


def test_label_multiplication_matches_matrices():
    for d, n in [(2, 1), (2, 2), (3, 1)]:
        labels = all_labels(d, n)
        for x in labels[: min(8, len(labels))]:
            for y in labels[: min(8, len(labels))]:
                got = pauli_matrix(x * y)
                want = pauli_matrix(x) @ pauli_matrix(y)
                assert np.abs(got - want).max() < 1e-10


def test_symplectic_inner_basics():
    x = PauliLabel(2, 1, (1,), (0,))
    z = PauliLabel(2, 1, (0,), (1,))
    assert symplectic_inner(x, x) == 0
    assert symplectic_inner(x, z) == 1
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = (PauliLabel.from_int(3, 2, int(rng.integers(81))) for _ in range(3))
        assert symplectic_inner(a, b) == (-symplectic_inner(b, a)) % 3
        lhs = symplectic_inner(a * b, c)
        rhs = (symplectic_inner(a, c) + symplectic_inner(b, c)) % 3
        assert lhs == rhs


def test_commutation_check_qubit_and_qutrit():
    """P_x P_y = omega^e P_y P_x with e = (y, x)_Sp: with Z|j> = omega^j |j> one
    has ZX = omega XZ, which fixes this orientation of the symplectic form."""
    x = PauliLabel(2, 1, (1,), (0,))
    z = PauliLabel(2, 1, (0,), (1,))
    z1 = PauliLabel(2, 2, (0, 0), (1, 0))
    z2 = PauliLabel(2, 2, (0, 0), (0, 1))
    assert symplectic_inner(z, x) == 1  # anti-commute
    assert symplectic_inner(z2, z1) == 0
    rng = np.random.default_rng(1)
    pairs = [(x, z), (z1, z2)] + [tuple(PauliLabel.from_int(3, 1, int(rng.integers(9))) for _ in range(2))
                                  for _ in range(10)]
    for a, b in pairs:
        pa, pb = pauli_matrix(a), pauli_matrix(b)
        omega_e = np.exp(2j * np.pi * symplectic_inner(b, a) / a.d)
        assert np.abs(pa @ pb - omega_e * (pb @ pa)).max() < 1e-10


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_char_sum(d, n):
    assert abs(char_sum(PauliLabel.identity(d, n)) - (d * d) ** n) < 1e-9
    for j in all_labels(d, n):
        if not j.is_identity():
            assert abs(char_sum(j)) < 1e-9


def test_pauli_twirl_depolarizing_unchanged():
    ch = depolarizing(2, 0.3)
    tw = pauli_twirl(ch)
    want = np.array([0.3 + 0.7 / 4, 0.7 / 4, 0.7 / 4, 0.7 / 4])
    assert np.abs(tw.weights - want).max() < 1e-12


def test_pauli_twirl_point_mass():
    lab = PauliLabel(2, 2, (1, 0), (0, 1))
    ch = unitary_channel(pauli_matrix(lab))
    tw = pauli_twirl(ch)
    assert abs(tw.weights[lab.to_int()] - 1) < 1e-12
    assert abs(tw.weights.sum() - 1) < 1e-12


@pytest.mark.parametrize("d,n,dim", [(2, 1, 2), (2, 2, 4), (3, 1, 3)])
def test_pauli_twirl_matches_brute_force(d, n, dim):
    rng = np.random.default_rng(dim)
    ch = random_channel(rng, dim, k=3)
    tw = pauli_twirl(ch, d=d)
    assert abs(tw.weights.sum() - 1) < 1e-8
    for _ in range(3):
        rho = random_density(rng, dim)
        assert np.abs(tw.apply(rho) - pauli_twirl_brute(ch, rho, d=d)).max() < 1e-9


def test_pauli_twirl_idempotent():
    rng = np.random.default_rng(5)
    ch = random_channel(rng, 4, k=2)
    once = pauli_twirl(ch)
    twice = pauli_twirl(once.to_kraus())
    assert np.abs(once.weights - twice.weights).max() < 1e-12


def test_clifford_group_contains_generators_and_has_24_classes():
    group = clifford_group_1q()
    assert len(group) == 24
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    s = np.diag([1, 1j]).astype(complex)

    def contains(u):
        return any(
            np.abs(g - u * (abs(u.ravel()[np.flatnonzero(np.abs(u.ravel()) > 1e-9)[0]]) /
                            u.ravel()[np.flatnonzero(np.abs(u.ravel()) > 1e-9)[0]])).max() < 1e-8
            for g in group
        )

    assert contains(np.eye(2, dtype=complex))
    assert contains(h)
    assert contains(s)
    assert np.abs(h @ X @ h.conj().T - Z).max() < 1e-12
    # every element permutes the signed Pauli axes
    paulis = [X, Y, Z]
    for g in group:
        for p in paulis:
            img = g @ p @ g.conj().T
            ok = any(np.abs(img - sgn * q).max() < 1e-8 for q in paulis for sgn in (1, -1))
            assert ok


def test_clifford_twirl_fixes_depolarizing():
    p, residual = clifford_twirl_exact(depolarizing(2, 0.6))
    assert abs(p - 0.6) < 1e-12
    assert residual < 1e-12


def test_clifford_twirl_random_channels():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ch = random_channel(rng, 2, k=int(rng.integers(1, 5)))
        s = kraus_to_supermatrix(ch)
        want = float(np.real(np.trace(s.mat) - 1)) / 3
        p, residual = clifford_twirl_exact(ch)
        assert abs(p - want) < 1e-9
        assert residual < 1e-12
        want_p, want_residual = supermatrix_clifford_twirl(ch)
        assert abs(p - want_p) <= 1e-15
        assert want_residual < 1e-12


def test_clifford_twirl_unitary_x_channel():
    p, _ = clifford_twirl_exact(unitary_channel(X))
    assert abs(p - (-1 / 3)) < 1e-12


def test_clifford_twirl_exact_raises_when_group_is_paulis(monkeypatch):
    # the Pauli group is not a 2-design: twirling a non-Pauli channel over it
    # leaves a non-depolarizing part, which the residual check must catch
    import qdesigns.twirl

    monkeypatch.setattr(qdesigns.twirl, "clifford_group_1q", lambda: [np.eye(2, dtype=complex), X, Y, Z])
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    with pytest.raises(RuntimeError, match="failed to depolarize"):
        clifford_twirl_exact(unitary_channel(h))


def test_clifford_twirl_rejects_a_non_trace_preserving_channel():
    # the fit's p assumes tr Lambda(I) = d: the error names the channel, not the group
    with pytest.raises(ValueError, match="requires a trace-preserving channel"):
        clifford_twirl_exact(KrausChannel(2, np.array([0.5 * np.eye(2)])))


@pytest.mark.parametrize("d,message", [(1, "d >= 2, got 1"), (0, "d >= 2, got 0"), (3, "not a power of 3")])
def test_pauli_twirls_check_the_qudit_dimension(d, message):
    ch = depolarizing(4, 0.6)
    with pytest.raises(ValueError, match=message):
        pauli_twirl(ch, d=d)
    with pytest.raises(ValueError, match=message):
        pauli_twirl_brute(ch, np.eye(4) / 4, d=d)


def test_design_checks_reject_an_empty_set():
    m = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="non-empty set of unitaries"):
        unitary_design_check([], m, m, m)
    with pytest.raises(ValueError, match="non-empty set of unitaries"):
        unitary_1design_check([], m / 2)
    with pytest.raises(ValueError, match="non-empty set of unitaries"):
        frame_potential([], 2)


def test_pauli_twirl_runs_at_the_channel_cap():
    ch = depolarizing(64, 0.9)
    tracemalloc.start()
    try:
        weights = pauli_twirl(ch).weights
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(weights[0] - (0.9 + 0.1 / 4096)) <= 1e-12
    assert peak < 2 * 2**20  # one 64 x 64 operator at a time, not the 268 MB Kraus array


def test_unitary_design_check_cliffords():
    rng = np.random.default_rng(11)
    group = clifford_group_1q()
    for _ in range(10):
        m, n, o = (random_complex_matrix(rng, 2) for _ in range(3))
        assert unitary_design_check(group, m, n, o) < 1e-10


def test_singleton_is_not_a_2_design():
    rng = np.random.default_rng(12)
    m, n, o = (random_complex_matrix(rng, 2) for _ in range(3))
    assert unitary_design_check([np.eye(2, dtype=complex)], m, n, o) > 1e-3


def test_paulis_are_a_1_design_but_not_a_2_design():
    rng = np.random.default_rng(13)
    paulis = [np.eye(2, dtype=complex), X, Y, Z]
    rho = random_density(rng, 2)
    assert unitary_1design_check(paulis, rho) < 1e-10
    m = random_complex_matrix(rng, 2)
    assert unitary_design_check(paulis, m, m, m) > 1e-3
    for n in (2, 3):
        big = [pauli_matrix(lab) for lab in all_labels(2, n)]
        rho = random_density(rng, 2**n)
        assert unitary_1design_check(big, rho) < 1e-10


@pytest.mark.parametrize("t", [1, 2])
def test_frame_potential_is_the_mean_of_the_trace_powers(t):
    rng = np.random.default_rng(29)
    unitaries = [random_unitary(rng, 3) for _ in range(5)]  # a set not closed under complex conjugation
    want = np.mean([abs(np.trace(dagger(u) @ v)) ** (2 * t) for u in unitaries for v in unitaries])
    assert abs(frame_potential(unitaries, t) - want) <= 1e-12 * want


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_frame_potential_is_the_nth_power_of_one_qubit(n, t):
    assert frame_potential(_pauli_stack(2, n), t) == frame_potential(_pauli_stack(2, 1), t) ** n


@pytest.mark.parametrize("name,unitaries", [
    ("cliffords1q", clifford_group_1q()),
    *((f"paulis n={n}", _pauli_stack(2, n)) for n in (1, 2, 3, 4)),
    ("identity only", [np.eye(2, dtype=complex)]),
])
def test_frame_potential_agrees_with_the_random_draw_oracle(name, unitaries):
    """|F_2 - 2| and the group average at random (M, N, O) put each set on the same side of 1e-8."""
    rng = np.random.default_rng(31)
    d = unitaries[0].shape[0]
    sampled = max(unitary_design_check(unitaries, *(random_complex_matrix(rng, d) for _ in range(3)))
                  for _ in range(3))
    assert (abs(frame_potential(unitaries, 2) - 2) <= 1e-8) == (sampled <= 1e-8) == (name == "cliffords1q")


def step1_success_by_masks(label):
    """Oracle: the fraction of the 2^n - 1 non-empty subsets B whose X-bits
    have odd parity, counted one mask at a time."""
    n = label.n
    good = 0
    for mask in range(1, 2**n):
        parity = 0
        for q in range(n):
            if (mask >> q) & 1:
                parity ^= label.xa[q]
        good += parity
    return good / (2**n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_step1_closed_form_matches_the_mask_count(n):
    from qdesigns.twirl import step1_success_probability

    for label in all_labels(2, n):
        assert step1_success_probability(label) == step1_success_by_masks(label)
    with pytest.raises(ValueError, match="defined for qubit labels, got d = 3"):
        step1_success_probability(PauliLabel(3, n, (1,) * n, (0,) * n))


def test_step1_success_probability():
    from qdesigns.twirl import step1_success_probability

    for n in (2, 3):
        x_start = PauliLabel(2, n, (1,) + (0,) * (n - 1), (0,) * n)
        assert abs(step1_success_probability(x_start) - 2 ** (n - 1) / (2**n - 1)) < 1e-15
        z_only = PauliLabel(2, n, (0,) * n, (1,) * n)
        assert step1_success_probability(z_only) == 0.0
    # empirical first-round rate from the Monte-Carlo sampler agrees
    rng = np.random.default_rng(61)
    curve = mc_convergence_curve(3, 1, 100_000, rng)
    want = step1_success_probability(PauliLabel(2, 3, (1, 0, 0), (0, 0, 0)))
    assert abs(curve[0]["step1_success"] - want) < 0.01


def test_pauli_matrix_cap_fails_before_allocating(monkeypatch, no_numpy):
    def no_paulis(d):
        raise AssertionError("built the Pauli factors past the cap")

    n = MATRIX_DIM_CAP.bit_length()  # 2^n = 2 * MATRIX_DIM_CAP
    label = PauliLabel(2, n, (1,) * n, (0,) * n)
    monkeypatch.setattr(qdesigns.twirl, "generalized_paulis", no_paulis)
    no_numpy(qdesigns.twirl)
    with pytest.raises(ValueError, match="matrix dimension exceeds the cap"):
        pauli_matrix(label)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_exact_chain_needs_two_qubits(n):
    message = f"the randomized twirl needs n >= 2 qubits, got n = {n}"
    with pytest.raises(ValueError, match=message):
        markov_transition_matrix(n)
    with pytest.raises(ValueError, match=message):
        ideal_good_case_distribution(n)


def test_exact_chain_cap_fails_before_allocating(no_numpy):
    no_numpy(qdesigns.twirl)
    with pytest.raises(ValueError, match=f"exact chain capped at n <= {EXACT_CHAIN_CAP}"):
        markov_transition_matrix(EXACT_CHAIN_CAP + 1)


def test_mc_samples_cap_fails_before_allocating(no_numpy):
    rng = np.random.default_rng(0)
    no_numpy(qdesigns.twirl)
    with pytest.raises(ValueError, match="capped at --samples <= 10000000, got 10000001"):
        mc_convergence_curve(3, 1, 10_000_001, rng)


def test_rounds_cap_fails_before_allocating(no_numpy):
    rng, ch = np.random.default_rng(0), depolarizing(4, 0.9)
    no_numpy(qdesigns.twirl)
    message = "the twirl is capped at k <= 1000 rounds, got k = 1001"
    with pytest.raises(ValueError, match=message):
        mc_convergence_curve(2, 1001, 10, rng)
    for trials in (0, 10):
        with pytest.raises(ValueError, match=message):
            approx_twirl_channel(ch, 2, 1001, trials=trials, rng=rng)


def test_rounds_cap_admits_a_thousand_rounds():
    assert len(mc_convergence_curve(2, 1000, 10, np.random.default_rng(0))) == 1000
    out, bound = approx_twirl_channel(depolarizing(4, 0.9), 2, 1000)
    assert abs(out.weights.sum() - 1) <= 1e-12 and bound >= 0


def traced_peak_mb(fn, *args) -> float:
    """Peak of the memory traced while fn(*args) runs, numpy arrays included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_mc_round_memory_stays_small():
    # the count round holds the (4^n, 2^n - 1) fan-in split and a few (n, 4^n) count
    # arrays, about 0.3 MB at n = 5 whatever the sample count; per-sample arrays took 200 MB
    mc_convergence_curve(5, 1, 10, np.random.default_rng(0))  # round tables cached untraced
    assert traced_peak_mb(mc_convergence_curve, 5, 2, 10**7, np.random.default_rng(0)) < 2


def test_mc_histogram_memory_at_the_qubit_cap():
    # the floor and each round's l1 hold two 8-byte arrays of 4^11 (67 MB) at a time
    assert traced_peak_mb(mc_convergence_curve, 11, 1, 1000, np.random.default_rng(0)) < 80


def test_conjugate_label_t_cycle_and_cnot():
    x = PauliLabel(2, 1, (1,), (0,))
    y = PauliLabel(2, 1, (1,), (1,))
    z = PauliLabel(2, 1, (0,), (1,))
    t = Gate("T", (0,))
    assert conjugate_label(t, x) == y
    assert conjugate_label(t, y) == z
    assert conjugate_label(t, z) == x
    cnot = Gate("CNOT", (1,), (0,))
    x_on_ctrl = PauliLabel(2, 2, (1, 0), (0, 0))
    assert conjugate_label(cnot, x_on_ctrl) == PauliLabel(2, 2, (1, 1), (0, 0))


def _phase_free_equal(a: np.ndarray, b: np.ndarray) -> bool:
    i = np.argmax(np.abs(b))
    if abs(b.ravel()[i]) < 1e-12:
        return np.abs(a).max() < 1e-12
    phase = a.ravel()[i] / b.ravel()[i]
    return abs(abs(phase) - 1) < 1e-9 and np.abs(a - phase * b).max() < 1e-9


@pytest.mark.parametrize("gate", [
    Gate("H", (0,)), Gate("S", (0,)), Gate("T", (0,)),
    Gate("H", (1,)), Gate("S", (1,)), Gate("T", (1,)),
    Gate("CNOT", (1,), (0,)), Gate("CNOT", (0,), (1,)),
])
def test_conjugate_label_matches_matrix_conjugation(gate):
    c = Circuit(2)
    c.append(gate)
    u = circuit_unitary(c)
    for label in all_labels(2, 2):
        got = pauli_matrix(conjugate_label(gate, label))
        want = u @ pauli_matrix(label) @ dagger(u)
        assert _phase_free_equal(want, got)


@st.composite
def clifford_words(draw):
    """(n, gates, label): a word of H, S, T and CNOT gates on n <= 3 qubits
    and a qubit Pauli label on the same register."""
    n = draw(st.integers(1, 3))
    kinds = ["H", "S", "T"] + (["CNOT"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=10)):
        qubits = draw(st.permutations(range(n)))
        gates.append(Gate(kind, (qubits[0],), (qubits[1],)) if kind == "CNOT" else Gate(kind, (qubits[0],)))
    return n, gates, PauliLabel.from_int(2, n, draw(st.integers(0, 4**n - 1)))


@settings(max_examples=80, deadline=None)
@given(clifford_words())
def test_conjugate_label_matches_matrix_conjugation_property(case):
    n, gates, label = case
    u = circuit_unitary(Circuit(n, 2, gates))  # the S gates run through simulate's diagonal rule
    out = label
    for g in gates:
        out = conjugate_label(g, out)
    assert _phase_free_equal(u @ pauli_matrix(label) @ dagger(u), pauli_matrix(out))


def test_conjugation_is_a_group_action():
    rng = np.random.default_rng(3)
    sample = sample_twirl_circuit(3, rounds=2, rng=rng)
    u = circuit_unitary(sample.circuit)
    for v in range(0, 64, 7):
        label = PauliLabel.from_int(2, 3, v)
        out = label
        for g in sample.circuit:
            out = conjugate_label(g, out)
        want = u @ pauli_matrix(label) @ dagger(u)
        assert _phase_free_equal(want, pauli_matrix(out))


def test_sample_twirl_circuit_counters():
    rng = np.random.default_rng(9)
    empty = sample_twirl_circuit(5, rounds=0, rng=rng)
    assert empty.circuit.gate_count == 0 and empty.random_bits_used == 0
    k = 6
    n = 5
    sample = sample_twirl_circuit(n, rounds=k, rng=rng)
    assert sample.rounds == k
    assert sample.circuit.gate_count <= 12 * n * k
    assert sample.random_bits_used <= 8 * n * k
    assert all(g.kind in {"H", "S", "T", "CNOT"} for g in sample.circuit)


def test_markov_identity_fixed_point():
    dist = np.zeros(16)
    dist[0] = 1
    out = markov_transition_matrix(2) @ dist
    assert np.abs(out - dist).max() < 1e-12


def test_markov_step_is_stochastic_and_keeps_uniform():
    rng = np.random.default_rng(21)
    p = markov_transition_matrix(2)
    assert np.abs(p.sum(axis=0) - 1).max() < 1e-12
    assert p.min() >= -1e-15
    u = np.concatenate(([0.0], np.full(15, 1 / 15)))
    assert np.abs(p @ u - u).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exact_chain_l1_is_the_worst_column_l1_bit_for_bit(n):
    # the stacked l1 makes l1_to_uniform's float operations on every column, for rounds 0..12
    k = 12
    p = markov_transition_matrix(n)
    dists = np.eye(4**n, 4**n - 1, k=-1)
    want = [max(map(l1_to_uniform, dists.T))]
    for _ in range(k):
        dists = p @ dists
        want.append(max(map(l1_to_uniform, dists.T)))
    assert _exact_chain(n, k) == want


def test_ideal_good_case_distribution_n2():
    exact, ideal = ideal_good_case_distribution(2)
    support = exact > 1e-15
    # unreachable: identity on the control with I/Z on the other qubit
    assert not support[0]
    z_on_other = PauliLabel(2, 2, (0, 0), (0, 1)).to_int()
    assert not support[z_on_other]
    assert support.sum() == 16 - 2
    assert abs(l1_to_uniform(ideal) - 2 / 15) < 1e-12


def test_l1_to_uniform_examples():
    assert l1_to_uniform(np.concatenate(([0.0], np.full(15, 1 / 15)))) == 0
    point = np.zeros(4)
    point[1] = 1
    assert abs(l1_to_uniform(point) - 4 / 3) < 1e-12


def test_markov_l1_non_increasing_and_bounded():
    eps0 = epsilon0(2)
    p = markov_transition_matrix(2)
    for v in range(1, 16):
        dist = np.zeros(16)
        dist[v] = 1
        prev = l1_to_uniform(dist)
        for k in range(1, 13):
            dist = p @ dist
            cur = l1_to_uniform(dist)
            assert cur <= prev + 1e-12
            assert cur <= eps0 + 2 * 0.5**k * (eps0 + 1) + 1e-9
            prev = cur


def test_markov_step_matches_sampled_circuit_ensemble():
    # push a point mass through one round of actual gate-level circuits and
    # compare with the exact chain's one-step column
    rng = np.random.default_rng(29)
    n = 2
    start = PauliLabel(2, n, (1, 0), (0, 0))
    counts = np.zeros(16)
    trials = 40_000
    from qdesigns.twirl import _round_gates, _sample_round

    for _ in range(trials):
        rc, _ = _sample_round(n, rng)
        label = start
        for g in _round_gates(n, rc):
            label = conjugate_label(g, label)
        counts[label.to_int()] += 1
    empirical = counts / trials
    exact = markov_transition_matrix(n)[:, start.to_int()]
    assert np.abs(empirical - exact).sum() < 0.03


def _round_ensemble(n):
    """Every (weight, choices) of one round: a uniform subset mask, then each
    _ROUND step's exponent or coin on each of its qubits."""
    def outcomes(law):
        return [(e, 1 / 3) for e in range(3)] if law == _THIRDS else [(True, law), (False, 1 - law)]

    steps = [list(itertools.product(outcomes(law), repeat=n - 1 if "o" in roles else 1)) for _, roles, law in _ROUND]
    for mask in range(1, 2**n):
        for picks in itertools.product(*steps):
            draws = [np.array([v for v, _ in pick]) if "o" in roles else pick[0][0]
                     for pick, (_, roles, _) in zip(picks, _ROUND)]
            yield math.prod(w for pick in picks for _, w in pick) / (2**n - 1), (mask, draws)


def test_gate_ensemble_frame_potential_is_the_chain_gap():
    """Phi = E[V (x) V (x) V* (x) V*] over k rounds of the sampled gates after a Pauli
    twirl has F_2 = ||Phi||_F^2 = 2 + ||P^k - U||_F^2 on the non-identity labels,
    U the uniform matrix: the gates' law is the label chain."""
    n = 2

    def fourfold(u):
        uu = np.kron(u, u)
        return np.kron(uu, uu.conj())

    ensemble = list(_round_ensemble(n))
    assert len(ensemble) == 648 and abs(sum(w for w, _ in ensemble) - 1) < 1e-12
    phi_round = sum(w * fourfold(circuit_unitary(Circuit(n, 2, _round_gates(n, choices)))) for w, choices in ensemble)
    phi = sum(map(fourfold, _pauli_stack(2, n))) / 4**n
    for k in range(1, 4):
        phi = phi_round @ phi
        gap = np.sum((np.linalg.matrix_power(markov_transition_matrix(n), k)[1:, 1:] - 1 / (4**n - 1)) ** 2)
        assert gap > 1e-4 and abs(np.sum(np.abs(phi) ** 2) - 2 - gap) < 1e-12


def test_mc_convergence_matches_exact_chain():
    rng = np.random.default_rng(31)
    n, k = 2, 4
    p = np.linalg.matrix_power(markov_transition_matrix(n), k)
    start = np.zeros(16)
    start[1] = 1
    exact = l1_to_uniform(p @ start)
    est = mc_convergence(n, k, samples=200_000, rng=rng)
    assert abs(est["l1"] - exact) < 0.02


def test_approx_twirl_channel_exact_mode():
    rng = np.random.default_rng(41)
    ch = depolarizing(4, 0.5)
    out, bound = approx_twirl_channel(ch, n=2, k=8)
    # depolarizing weights are already uniform off the identity: fixed point
    tw = pauli_twirl(ch)
    assert np.abs(out.weights - tw.weights).max() < 1e-10
    assert bound >= 0

    mixed = KrausChannel(4, (math.sqrt(0.8) * np.eye(4, dtype=complex),
                             math.sqrt(0.2) * pauli_matrix(PauliLabel(2, 2, (1, 0), (0, 0)))))
    out2, bound2 = approx_twirl_channel(mixed, n=2, k=10)
    eps = epsilon0(2)
    rest = out2.weights[1:] / (1 - out2.weights[0])
    assert np.abs(rest - 1 / 15).sum() <= eps + 2 * 0.5**10 * (eps + 1)
    assert bound2 >= 0


def test_approx_twirl_channel_identity_bound_is_zero():
    _, bound = approx_twirl_channel(unitary_channel(np.eye(4, dtype=complex)), n=2, k=3)
    assert abs(bound) < 1e-12


@pytest.mark.parametrize(
    "n,k,trials,message",
    [
        (2, 1, 10_000_001, "--samples <= 10000000"),
        (2, 1, -5, "samples >= 1"),
        (1, 1, 0, "n >= 2"),
        (1, 1, 100, "n >= 2"),
        (2, -1, 0, "k >= 0"),
        (2, 0, 100, "k >= 1"),
        (12, 1, 100, "n <= 11"),
        (6, 2, 0, "n <= 5"),
        (2, 1001, 0, "k <= 1000"),
        (2, 1001, 100, "k <= 1000"),
    ],
)
def test_approx_twirl_channel_rejects_bad_arguments_before_twirling(monkeypatch, n, k, trials, message):
    def no_twirl(*args, **kwargs):
        raise AssertionError("pauli_twirl ran before the arguments were checked")

    monkeypatch.setattr(qdesigns.twirl, "pauli_twirl", no_twirl)
    with pytest.raises(ValueError, match=message):
        approx_twirl_channel(depolarizing(4, 0.6), n, k, trials=trials, rng=np.random.default_rng(0))


@pytest.mark.parametrize("trials", [0, 100])
def test_approx_twirl_channel_checks_the_channel_size_before_twirling(monkeypatch, trials):
    def no_twirl(*args, **kwargs):
        raise AssertionError("pauli_twirl ran before the channel size was checked")

    monkeypatch.setattr(qdesigns.twirl, "pauli_twirl", no_twirl)
    with pytest.raises(ValueError, match="channel size disagrees with n"):
        approx_twirl_channel(depolarizing(32, 0.9), 2, 1, trials=trials, rng=np.random.default_rng(0))


@pytest.mark.parametrize("trials", [0, 100])
def test_approx_twirl_channel_refuses_a_non_trace_preserving_channel_before_twirling(monkeypatch, trials):
    def no_twirl(*args, **kwargs):
        raise AssertionError("pauli_twirl ran before trace preservation was checked")

    monkeypatch.setattr(qdesigns.twirl, "pauli_twirl", no_twirl)
    leaky = KrausChannel(4, np.array([0.5 * np.eye(4)]))
    with pytest.raises(ValueError, match="the approximate twirl requires a trace-preserving channel"):
        approx_twirl_channel(leaky, 2, 1, trials=trials, rng=np.random.default_rng(0))


def test_markov_transition_matrix_is_built_once_and_read_only(monkeypatch):
    p = markov_transition_matrix(3)

    def no_rebuild(*args):
        raise AssertionError("the transition matrix was built again")

    monkeypatch.setattr(qdesigns.twirl, "_count_round", no_rebuild)
    assert markov_transition_matrix(3) is p
    with pytest.raises(ValueError, match="read-only"):
        p[0, 0] = 1


def test_approx_twirl_channel_mc_mode():
    rng = np.random.default_rng(51)
    mixed = KrausChannel(4, (math.sqrt(0.7) * np.eye(4, dtype=complex),
                             math.sqrt(0.3) * pauli_matrix(PauliLabel(2, 2, (0, 1), (1, 0)))))
    out, bound = approx_twirl_channel(mixed, n=2, k=12, trials=50_000, rng=rng)
    assert abs(out.weights.sum() - 1) < 1e-9
    assert abs(out.weights[0] - 0.7) < 1e-9  # identity weight untouched
    rest = out.weights[1:] / 0.3
    assert np.abs(rest - 1 / 15).sum() < 0.05
    assert bound >= 0


def test_approx_twirl_channel_exact_mode_at_five_qubits():
    n, k = 5, 3
    dim = 2**n
    worst_l1 = _exact_chain(n, k)[-1]
    flip = pauli_matrix(PauliLabel(2, n, (1,) + (0,) * (n - 1), (0,) * n))
    mixed = KrausChannel(dim, np.array([math.sqrt(0.7) * np.eye(dim), math.sqrt(0.3) * flip]))
    for ch, beta0 in ((depolarizing(dim, 0.9), 0.9 + 0.1 / dim**2), (mixed, 0.7)):
        out, _ = approx_twirl_channel(ch, n, k)
        assert abs(out.weights.sum() - 1) <= 1e-12
        assert abs(out.weights[0] - beta0) <= 1e-12
        # a mixture of pushed point masses is no farther from uniform than the worst of them
        rest = out.weights[1:]
        assert np.abs(rest - (1 - beta0) / rest.size).sum() <= (1 - beta0) * worst_l1 + 1e-12


def choi(ch: KrausChannel) -> np.ndarray:
    """The Choi matrix sum_k |A_k>><<A_k| / d, of unit trace for a trace-preserving channel."""
    flat = ch.kraus.reshape(len(ch.kraus), -1)
    return flat.T @ flat.conj() / ch.dim


def test_approx_twirl_channel_returns_the_exact_diamond_distance():
    # the target is the full Clifford twirl, the depolarizing channel with the same identity
    # weight.  The trace norm of the Choi difference is a lower bound on the diamond distance,
    # and equals it for Pauli channels: Lambda = 0.9 id + 0.1 Z on the highest qubit after one
    # round, and seeded rank-3 channels after several
    for n in (2, 3):
        dim = 2**n
        z_top = pauli_matrix(PauliLabel(2, n, (0,) * n, (0,) * (n - 1) + (1,)))
        single = KrausChannel(dim, np.array([math.sqrt(0.9) * np.eye(dim), math.sqrt(0.1) * z_top]))
        rank3 = random_channel(np.random.default_rng(5 + n), dim, k=3)
        for ch, k in [(single, 1)] + [(rank3, k) for k in (1, 2, 3, 5, 8, 12)]:
            out, value = approx_twirl_channel(ch, n, k)
            w0 = out.weights[0]
            target = depolarizing(dim, (w0 * dim**2 - 1) / (dim**2 - 1))
            distance = np.abs(np.linalg.eigvalsh(choi(out.to_kraus()) - choi(target))).sum()
            assert abs(value - distance) <= 1e-12


def test_approx_twirl_channel_exact_mode_builds_no_transition_matrix(monkeypatch):
    def no_chain(*args):
        raise AssertionError("exact mode built the transition matrix")

    monkeypatch.setattr(qdesigns.twirl, "markov_transition_matrix", no_chain)
    monkeypatch.setattr(qdesigns.twirl, "_exact_chain", no_chain)
    out, value = approx_twirl_channel(depolarizing(8, 0.6), 3, 4)
    assert abs(out.weights.sum() - 1) <= 1e-12 and value <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_approx_twirl_channel_mc_distance_is_near_the_exact_one(n):
    # the floor is the l1 of a uniform draw: far from uniform, after one round, it over-corrects
    dim = 2**n
    for seed in range(10):
        ch = random_channel(np.random.default_rng(seed), dim, k=3)
        for k, tol in ((1, 0.025), (2, 0.01), (4, 0.01)):
            exact = approx_twirl_channel(ch, n, k)[1]
            est = approx_twirl_channel(ch, n, k, trials=200_000, rng=np.random.default_rng(seed))[1]
            assert abs(est - exact) <= tol


@pytest.mark.parametrize("n", [5, 6])
def test_approx_twirl_channel_mc_mode_above_sixteen_dimensions(n):
    dim = 2**n
    rng = np.random.default_rng(n)
    out, bound = approx_twirl_channel(depolarizing(dim, 0.9), n, 2, trials=100_000, rng=rng)
    assert abs(out.weights.sum() - 1) <= 1e-12
    assert abs(out.weights[0] - (0.9 + 0.1 / dim**2)) <= 1e-12
    assert bound >= 0


def test_markov_chain_n4_is_stochastic_and_matches_mc():
    n, k = 4, 4
    p = markov_transition_matrix(n)
    assert np.abs(p.sum(axis=0) - 1).max() < 1e-12
    assert p.min() >= -1e-15
    u = np.concatenate(([0.0], np.full(4**n - 1, 1 / (4**n - 1))))
    assert np.abs(p @ u - u).max() < 1e-12
    start = np.zeros(4**n)
    start[1] = 1  # X on qubit 0
    exact = l1_to_uniform(np.linalg.matrix_power(p, k) @ start)
    est = mc_convergence(n, k, samples=200_000, rng=np.random.default_rng(71))
    assert abs(est["l1"] - exact) < 0.02


def test_seeded_twirl_outputs_are_pinned(tmp_path, capsys):
    # the CLI's byte-identical contract depends on the order of the RNG draws
    from qdesigns.cli import main

    out = tmp_path / "c2.csv"
    code = main(["twirl", "--n", "2", "--k", "3", "--samples", "2000", "--seed", "1",
                 "--json", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"bound": 0.5833333333333333, "epsilon0": 0.26666666666666666, "k": 3, '
        '"l1": 0.0, "n": 2}\n'
    )
    assert out.read_text() == (
        "k,l1,bound\n"
        "1,0.193,1.5333333333333332\n"
        "2,0.03266666666666669,0.8999999999999999\n"
        "3,0.0,0.5833333333333333\n"
    )
    sample = sample_twirl_circuit(3, 2, np.random.default_rng(3))
    assert [(g.kind, g.targets, g.controls) for g in sample.circuit] == [
        ("CNOT", (1,), (2,)), ("CNOT", (2,), (1,)), ("S", (1,), ()), ("CNOT", (1,), (0,)),
        ("CNOT", (1,), (2,)), ("CNOT", (0,), (2,)), ("T", (1,), ()), ("T", (1,), ()),
        ("CNOT", (1,), (0,)), ("CNOT", (2,), (0,)), ("T", (2,), ()), ("T", (0,), ()),
    ]


def test_benchmark_exact_twirl_output_is_pinned(tmp_path, capsys):
    # the exact chain at n = 3, as the twirl_convergence benchmark runs it; rows 2-12 and the l1
    # moved in the trailing digits when P became the count round with its draws replaced by their means
    from qdesigns.cli import main

    out = tmp_path / "e3.csv"
    assert main(["twirl", "--n", "3", "--k", "12", "--exact", "--json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        '{"bound": 0.12753441220238096, "epsilon0": 0.12698412698412698, "k": 12, '
        '"l1": 9.128161504654009e-07, "n": 3}\n'
    )
    assert out.read_text() == (
        "k,l1,bound\n"
        "1,0.9365079365079365,1.253968253968254\n"
        "2,0.2612643822961283,0.6904761904761905\n"
        "3,0.07401929964944373,0.4087301587301587\n"
        "4,0.020918015876235613,0.26785714285714285\n"
        "5,0.0059380262602722386,0.1974206349206349\n"
        "6,0.0016885954131300798,0.16220238095238093\n"
        "7,0.00048076749119981346,0.14459325396825395\n"
        "8,0.0001370381316121473,0.13578869047619047\n"
        "9,3.910019200093276e-05,0.13138640873015872\n"
        "10,1.1166944831653841e-05,0.12918526785714285\n"
        "11,3.1918173717705722e-06,0.1280846974206349\n"
        "12,9.128161504654009e-07,0.12753441220238096\n"
    )


def test_benchmark_sized_twirl_stream_is_pinned(tmp_path, capsys):
    # 1e5 samples through 15 rounds at n = 3, as the twirl_convergence benchmark runs it
    from qdesigns.cli import main

    out = tmp_path / "c3.csv"
    code = main(["twirl", "--n", "3", "--k", "15", "--samples", "100000", "--seed", "1",
                 "--json", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"bound": 0.12705291263640872, "epsilon0": 0.12698412698412698, "k": 15, '
        '"l1": 0.0012599999999999903, "n": 3}\n'
    )
    assert out.read_text() == (
        "k,l1,bound\n"
        "1,0.4298022222222222,1.253968253968254\n"
        "2,0.08438412698412696,0.6904761904761905\n"
        "3,0.013319999999999992,0.4087301587301587\n"
        "4,0.00447587301587302,0.26785714285714285\n"
        "5,0.006415873015873017,0.1974206349206349\n"
        "6,0.002899999999999986,0.16220238095238093\n"
        "7,0.0,0.14459325396825395\n"
        "8,0.0026460317460317365,0.13578869047619047\n"
        "9,0.0,0.13138640873015872\n"
        "10,0.0023698412698412684,0.12918526785714285\n"
        "11,0.002507936507936511,0.1280846974206349\n"
        "12,0.0,0.12753441220238096\n"
        "13,0.0006739682539682497,0.12725926959325395\n"
        "14,0.00022984126984127232,0.12712169828869047\n"
        "15,0.0012599999999999903,0.12705291263640872\n"
    )


def test_packed_twirl_stream_is_pinned(tmp_path, capsys):
    # n = 7: the packed int16 masks and the widest int16 labels
    from qdesigns.cli import main

    out = tmp_path / "c7.csv"
    code = main(["twirl", "--n", "7", "--k", "4", "--samples", "20000", "--seed", "1",
                 "--json", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"bound": 0.1337895989745468, "epsilon0": 0.00781297686626381, "k": 4, '
        '"l1": 0.0036259781480803, "n": 7}\n'
    )
    assert out.read_text() == (
        "k,l1,bound\n"
        "1,0.38616970640297876,1.0156259537325276\n"
        "2,0.07439341390465737,0.5117194652993957\n"
        "3,0.003536354757980753,0.25976622108282976\n"
        "4,0.0036259781480803,0.1337895989745468\n"
    )


@pytest.mark.parametrize("n,k,samples", [(2, 0, 100), (2, -1, 100), (2, 3, 0), (1, 3, 100), (0, 3, 100),
                                           (12, 1, 10)])
def test_mc_convergence_curve_rejects_degenerate_runs(n, k, samples):
    with pytest.raises(ValueError):
        mc_convergence_curve(n, k, samples, np.random.default_rng(0))


# --- the loops the stacked Paulis and the shared exact chain replaced, the stack
# product the per-qudit Pauli twirl replaced, and the supermatrix Clifford twirl
# the group average replaced, as oracles

def stack_pauli_twirl(ch, d=2):
    """beta_r as one product of the flattened (d^(2n), D, D) Pauli stack with the flattened operators."""
    n = round(math.log(ch.dim, d))
    dim2 = ch.dim**2
    amps = _pauli_stack(d, n).reshape(-1, dim2).conj() @ ch.kraus.reshape(-1, dim2).T
    return (np.abs(amps) ** 2).sum(axis=1) / dim2


def supermatrix_clifford_twirl(ch):
    """(p, residual) from the supermatrix S twirled as U_hat S U_hat^dag, U_hat = conj(U) (x) U."""
    s = kraus_to_supermatrix(ch).mat
    d = ch.dim
    group = clifford_group_1q()
    twirled = sum(np.kron(u.conj(), u) @ s @ dagger(np.kron(u.conj(), u)) for u in group) / len(group)
    p = float(np.real(_invariant_pq(np.trace(s), d, d)[0]))
    vi = np.eye(d, dtype=complex).flatten(order="F")
    target = p * np.eye(d**2) + ((1 - p) / d) * np.outer(vi, vi.conj())
    return p, float(np.abs(twirled - target).max())


def loop_pauli_twirl(ch, d=2):
    n = round(math.log(ch.dim, d))
    weights = np.zeros((d * d) ** n)
    for v, label in enumerate(all_labels(d, n)):
        p = pauli_matrix(label)
        weights[v] = sum(abs(np.trace(dagger(p) @ a)) ** 2 for a in ch.kraus) / ch.dim**2
    return weights


def renormalized_distance(weights):
    """(1 - w_0) times the l1 gap to uniform of the non-identity weights renormalized."""
    rest = 1 - weights[0]
    return rest * l1_to_uniform(np.concatenate(([0.0], weights[1:] / rest))) if rest > 0 else 0.0


def matrix_power_approx_twirl(ch, n, k):
    """Exact-mode weights and distance with P^k from matrix_power."""
    weights = np.linalg.matrix_power(markov_transition_matrix(n), k) @ loop_pauli_twirl(ch)
    return weights, renormalized_distance(weights)


def loop_exact_csv(n, k):
    """The twirl --exact rows, one matrix product and one column scan per round."""
    p = markov_transition_matrix(n)
    size = 4**n
    dists = np.zeros((size, size - 1))
    for v in range(1, size):
        dists[v, v - 1] = 1
    rows = ["k,l1,bound"]
    for r in range(1, k + 1):
        dists = p @ dists
        d_r = max(l1_to_uniform(dists[:, j]) for j in range(size - 1))
        rows.append(f"{r},{d_r!r},{twirl_bound(n, r)!r}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("d,n,dim", [(2, 1, 2), (2, 2, 4), (3, 1, 3), (2, 3, 8), (2, 4, 16),
                                     (3, 2, 9), (5, 1, 5)])
def test_stacked_pauli_twirl_matches_trace_loop(d, n, dim):
    rng = np.random.default_rng(60 + dim)
    for ch in (random_channel(rng, dim, k=3), depolarizing(dim, 0.7)):
        weights = pauli_twirl(ch, d=d).weights
        assert np.abs(weights - loop_pauli_twirl(ch, d=d)).max() <= 1e-13
        assert np.abs(weights - stack_pauli_twirl(ch, d=d)).max() <= 1e-15


def test_pauli_to_kraus_matches_label_loop():
    rng = np.random.default_rng(61)
    weights = rng.random(16) * (rng.random(16) < 0.6)
    weights /= weights.sum()
    got = PauliChannel(2, 2, weights).to_kraus().kraus
    want = [math.sqrt(w) * pauli_matrix(PauliLabel.from_int(2, 2, v))
            for v, w in enumerate(weights) if w > 1e-14]
    assert np.abs(got - np.array(want)).max() <= 1e-15


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 8), (3, 5)])
def test_approx_twirl_exact_mode_matches_matrix_power_oracle(n, k):
    rng = np.random.default_rng(62 + n)
    for ch in (random_channel(rng, 2**n, k=3), depolarizing(2**n, 0.6), unitary_channel(np.eye(2**n))):
        out, distance = approx_twirl_channel(ch, n=n, k=k)
        want_weights, want_distance = matrix_power_approx_twirl(ch, n, k)
        assert np.abs(out.weights - want_weights).max() <= 1e-14
        assert abs(distance - want_distance) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_twirl_exact_csv_is_the_round_by_round_loop(tmp_path, capsys, n):
    from qdesigns.cli import main

    out = tmp_path / "exact.csv"
    main(["twirl", "--n", str(n), "--k", "6", "--exact", "--out", str(out)])
    assert out.read_text() == loop_exact_csv(n, 6)


# --- the packed-mask Monte-Carlo round and the per-mask fan-in chain step that
# the round tables replaced, as oracles; the count round's moments and law

def packed_mc_round(xa, xb, n, rng):
    """One sampled round on packed (xa, xb) masks, one _move per step and qubit."""
    m = xa.shape[0]
    mask = rng.integers(1, 2**n, size=m)
    control = np.round(np.log2(mask & -mask)).astype(np.int64)
    for q in range(n):
        member = ((mask >> q) & 1).astype(bool) & (control != q)
        xa, xb = _move("CNOT", xa, xb, (q, control), member)
    success_rate = float(((xa >> control) & 1).mean())
    for kind, roles, law in _ROUND:
        for q in range(n) if "o" in roles else [None]:
            times = _draw(law, m, rng)
            if q is not None:
                times = times * (control != q)
            qubits = _place(roles, control, q)
            for rep in range(1, 3 if law == _THIRDS else 2):
                xa, xb = _move(kind, xa, xb, qubits, times >= rep)
    return xa, xb, success_rate


def packed_mc_rounds(n, k, samples, rng, start=None):
    """Label histogram and step-1 success rate after each of k packed-mask rounds."""
    if start is None:
        start = PauliLabel(2, n, (1,) + (0,) * (n - 1), (0,) * n)
    xa, xb = (np.full(samples, m, dtype=np.int64) for m in _from_label_int(start.to_int(), n))
    for _ in range(k):
        xa, xb, success = packed_mc_round(xa, xb, n, rng)
        yield np.bincount(_to_label_int(xa, xb, n), minlength=4**n), success


def null_floor(n, samples, rng):
    """l1_to_uniform of one exact-uniform multinomial draw of `samples` non-identity labels."""
    null_draw = rng.multinomial(samples, np.full(4**n - 1, 1.0 / (4**n - 1))) / samples
    return l1_to_uniform(np.concatenate(([0.0], null_draw)))


def packed_mc_curve(n, k, samples, rng, start=None):
    floor = null_floor(n, samples, rng)
    curve = []
    for step, (counts, success) in enumerate(packed_mc_rounds(n, k, samples, rng, start), start=1):
        raw = l1_to_uniform(counts / samples)
        curve.append({"k": step, "l1_raw": raw, "noise_floor": floor,
                      "l1": max(0.0, raw - floor), "step1_success": success})
    return curve


def packed_approx_twirl_mc(ch, n, k, trials, rng):
    """approx_twirl_channel(trials > 0) with the packed-mask round."""
    beta = pauli_twirl(ch).weights
    weights = np.zeros(4**n)
    weights[0] = beta[0]
    rest = 1 - beta[0]
    picks = np.repeat(np.arange(1, 4**n), rng.multinomial(trials, beta[1:] / rest))  # in label order
    xa, xb = _from_label_int(picks, n)
    for _ in range(k):
        xa, xb, _ = packed_mc_round(xa, xb, n, rng)
    weights[1:] += np.bincount(_to_label_int(xa, xb, n), minlength=4**n)[1:] / trials * rest
    return weights, max(0.0, renormalized_distance(weights) - rest * null_floor(n, trials, rng))


def chi2_bound(dof, z=4.0):
    """Wilson-Hilferty upper quantile of chi-square(dof), z normal sigmas out (tail about 3e-5 at z = 4)."""
    h = 2 / (9 * dof)
    return dof * (1 - h + z * math.sqrt(h)) ** 3


def assert_law(counts, want):
    """counts is one multinomial draw with mean want: nothing off want's support and
    Pearson's chi-square within its bound."""
    support = want > 0
    assert counts.sum() == round(want.sum()) and not counts[~support].any()
    stat = ((counts - want)[support] ** 2 / want[support]).sum()
    assert stat < chi2_bound(max(support.sum() - 1, 1))


def assert_same_law(a, b):
    """a and b are draws of one total from one multinomial: the chi-square of the
    homogeneity test within its bound."""
    assert a.sum() == b.sum()
    seen = a + b > 0
    stat = ((a - b)[seen] ** 2 / (a + b)[seen]).sum()
    assert stat < chi2_bound(max(seen.sum() - 1, 1))


def assert_same_rate(a, b, samples):
    """Two binomial success rates over `samples` trials agree within 5 sigma of their difference."""
    pooled = (a + b) / 2
    assert abs(a - b) <= 5 * math.sqrt(2 * pooled * (1 - pooled) / samples)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_round_moments_are_the_chain(n):
    # the step-1 hits under mean draws, on every label in blocks of 32 sources; the pushed
    # counts are P's columns, checked against the per-mask walk in the oracle test below
    from qdesigns.twirl import step1_success_probability

    samples = 1000.0
    eye = np.eye(4**n)
    hits = np.concatenate([_count_round(samples * eye[:, i:i + 32], n, _MEAN)[1] for i in range(0, 4**n, 32)])
    rates = np.array([step1_success_probability(PauliLabel.from_int(2, n, v)) for v in range(4**n)])
    assert np.abs(hits - samples * rates).max() <= 1e-12 * samples


def test_mean_multinomial_is_a_read_only_view():
    # one mean per label, broadcast over the masks: no 2^n - 1 copies
    counts = np.arange(12.0).reshape(4, 3)
    split = _MEAN.multinomial(counts, np.full(7, 1 / 7))
    assert split.shape == (4, 3, 7)
    assert split.strides[-1] == 0 and not split.flags.writeable
    assert np.array_equal(split, np.multiply.outer(counts, np.full(7, 1 / 7)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_round_law_is_the_chain(n):
    # one and two rounds from point masses at fixed seeds, against the columns of P and P^2
    from qdesigns.twirl import step1_success_probability

    p = markov_transition_matrix(n)
    samples = 20_000
    for seed, v in enumerate((1, 2, 3, 4**n - 1)):  # X, Z, Y on qubit 0; Y on every qubit
        rng = np.random.default_rng(seed)
        counts = np.zeros(4**n, dtype=np.int64)
        counts[v] = samples
        counts, hits = _count_round(counts, n, rng)
        assert_law(counts, samples * p[:, v])
        rate = step1_success_probability(PauliLabel.from_int(2, n, v))
        assert abs(hits - samples * rate) <= 5 * math.sqrt(samples * rate * (1 - rate))
        assert_law(_count_round(counts, n, rng)[0], samples * (p @ p[:, v]))


def pushed_step2(dist, n, control):
    others = [q for q in range(n) if q != control]
    for kind, roles, law in _ROUND:
        for q in others if "o" in roles else [control]:
            perm = _perm_table(n, kind, _place(roles, control, q))
            if law == _THIRDS:
                once = push(dist, perm)
                dist = (dist + once + push(once, perm)) / 3
            else:
                dist = (1 - law) * dist + law * push(dist, perm)
    return dist


def pushed_fan_in(dist, n, mask):
    """A subset's fan-in as one CNOT push per member."""
    control = (mask & -mask).bit_length() - 1
    for q in range(n):
        if (mask >> q) & 1 and q != control:
            dist = push(dist, _perm_table(n, "CNOT", (q, control)))
    return dist


def pushed_chain_step(dist, n):
    """One exact round, each subset mask walked through the steps on its own."""
    out = np.zeros_like(dist)
    for mask in range(1, 2**n):
        out += pushed_step2(pushed_fan_in(dist, n, mask), n, (mask & -mask).bit_length() - 1)
    return out / (2**n - 1)


def pushed_chain_step_by_control(dist, n):
    """pushed_chain_step with the fan-ins of each control summed before its steps."""
    out = np.zeros_like(dist)
    for control in range(n):
        cell = sum(pushed_fan_in(dist, n, mask) for mask in range(1 << control, 2**n, 2 << control))
        out += pushed_step2(cell, n, control)
    return out / (2**n - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 11])
def test_mc_curve_matches_packed_mask_oracle(n):
    # n >= 6 runs the packed path in the library too, bit for bit; n = 8 is the first with
    # int32 labels.  At n <= 5 the count round draws per cell, not per sample: the same law
    # on another stream, so its histograms and step-1 rates are compared in law
    assert (n > EXACT_CHAIN_CAP) == (n >= 6)
    samples = 3000 if n <= 6 else 500
    pure_z = PauliLabel(2, n, (0,) * n, (1,) + (0,) * (n - 1))
    for seed in (0, 1, 2):
        for start in (None, pure_z):
            got = mc_convergence_curve(n, 4, samples, np.random.default_rng(seed), start)
            want = packed_mc_curve(n, 4, samples, np.random.default_rng(seed), start)
            if n > EXACT_CHAIN_CAP:
                assert got == want
                continue
            assert [e["noise_floor"] for e in got] == [e["noise_floor"] for e in want]  # drawn first
            assert all(e["l1"] == max(0.0, e["l1_raw"] - e["noise_floor"]) for e in got)
            labels = np.zeros(4**n, dtype=np.int64)
            labels[(start or PauliLabel(2, n, (1,) + (0,) * (n - 1), (0,) * n)).to_int()] = samples
            rounds = zip(_mc_rounds(labels, n, 4, np.random.default_rng(seed)),
                         packed_mc_rounds(n, 4, samples, np.random.default_rng(seed), start))
            for (counts, success), (want_counts, want_success) in rounds:
                assert_same_law(counts, want_counts)
                assert_same_rate(success, want_success, samples)
    assert got[0]["step1_success"] == 0.0  # a pure-Z start puts no X on the control


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_approx_twirl_mc_mode_matches_packed_mask_oracle(n):
    # bit for bit at n = 6, in law at n <= 5 (see test_mc_curve_matches_packed_mask_oracle)
    rng = np.random.default_rng(80 + n)
    trials = 4000
    for ch in (random_channel(rng, 2**n, k=3), depolarizing(2**n, 0.6)):
        out, distance = approx_twirl_channel(ch, n=n, k=3, trials=trials, rng=np.random.default_rng(n))
        want_weights, want_distance = packed_approx_twirl_mc(ch, n, 3, trials, np.random.default_rng(n))
        if n > EXACT_CHAIN_CAP:
            assert np.array_equal(out.weights, want_weights)
            assert abs(distance - want_distance) <= 1e-12  # summed in another order
            continue
        assert out.weights[0] == want_weights[0]
        rest = 1 - want_weights[0]
        assert_same_law(*(np.rint(w[1:] / rest * trials).astype(np.int64) for w in (out.weights, want_weights)))
        # two independent 4000-trial estimates of one distance (measured apart by at most 0.015)
        assert abs(distance - want_distance) <= 0.03


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_markov_transition_matrix_matches_pushed_chain_oracle(n):
    p = markov_transition_matrix(n)
    cols = np.arange(0, 4**n, 16) if n == 5 else np.arange(4**n)  # columns push independently
    start = np.eye(4**n)[:, cols]
    # P is the count round with mean draws: its stay - part rounds differently from the
    # oracles' (1 - law) dist, in the trailing places only
    assert np.abs(p[:, cols] - pushed_chain_step_by_control(start, n)).max() <= 1e-15
    assert np.abs(p[:, cols] - pushed_chain_step(start, n)).max() <= 1e-15


def fan_in_by_members(xa, xb, mask, control, n):
    """The fan-in as one _move("CNOT") per member: CNOT(q -> control) for each other q in mask."""
    for q in range(n):
        member = ((mask >> q) & 1).astype(bool) & (control != q)
        xa, xb = _move("CNOT", xa, xb, (q, control), member)
    return xa, xb


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fan_in_move_is_the_per_member_cnots_on_every_mask_and_label(n):
    xa, xb = _from_label_int(np.arange(4**n, dtype=np.int16), n)
    masks = np.arange(1, 2**n, dtype=np.int16)[:, None]
    control = _controls(n)[1:, None]
    got = _fan_in_move(xa, xb, masks, control, n)
    want = fan_in_by_members(xa, xb, masks, control, n)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [8, 11])
def test_fan_in_move_is_the_per_member_cnots_on_packed_samples(n):
    # int16 masks and the int8 controls of the packed round, every control drawn, 7 and up included
    rng = np.random.default_rng(n)
    xa, xb = (rng.integers(0, 2**n, size=100_000).astype(np.int16) for _ in range(2))
    mask = np.concatenate((1 << np.arange(n), rng.integers(1, 2**n, size=xa.size - n))).astype(np.int16)
    control = _controls(n)[mask]
    assert set(control.tolist()) == set(range(n))
    got = _fan_in_move(xa, xb, mask, control, n)
    want = fan_in_by_members(xa, xb, mask, control, n)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fan_in_move_is_the_parity_circuit(n):
    for mask in range(1, 2**n):
        control = (mask & -mask).bit_length() - 1
        members = [q for q in range(n) if (mask >> q) & 1 and q != control]
        gates = parallel_prefix_parity(n, members, control).gates
        for v in range(4**n):
            label = PauliLabel.from_int(2, n, v)
            for gate in gates:
                label = conjugate_label(gate, label)
            assert _to_label_int(*_fan_in_move(*_from_label_int(v, n), mask, control, n), n) == label.to_int()
