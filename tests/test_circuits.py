"""Simulation, MUB preparation circuits, amplification, and parity trees."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdesigns.circuits
from qdesigns.circuits import (
    PROJECTED_STACK_QUBIT_CAP,
    SIMULATE_DIM_CAP,
    UNITARY_DIM_CAP,
    Circuit,
    Gate,
    amplitude_amplify,
    amplitude_split,
    build_mub_circuit_prime,
    build_mub_circuit_prime_power,
    circuit_unitary,
    classical_parity_map,
    embedding_prime,
    emit_circuit,
    gate_matrix,
    parallel_prefix_parity,
    projected_mub_prepare,
    projected_mub_states,
    simulate,
    _ARITY,
    _DIAGONAL,
    _QUBIT_ONLY,
    _tournament_rounds,
)
from qdesigns.linalg import basis_state
from qdesigns.mub import mub_prime, mub_prime_power

from helpers import parse_circuit, random_unitary


def overlap(u, v):
    return abs(np.vdot(u, v))


def test_simulate_h_and_cnot():
    c = Circuit(1)
    c.append(Gate("H", (0,)))
    out = simulate(c, basis_state(2, 0))
    assert np.abs(out - np.array([1, 1]) / math.sqrt(2)).max() < 1e-12

    c = Circuit(2)
    c.append(Gate("CNOT", (1,), (0,)))  # control qubit 0, target qubit 1
    out = simulate(c, basis_state(4, 1))  # |x1 x0> = |01>, control set
    assert np.abs(out - basis_state(4, 3)).max() < 1e-12


def test_simulate_matches_dense_product():
    rng = np.random.default_rng(0)
    c = Circuit(3)
    gates = [
        Gate("H", (0,)), Gate("CNOT", (2,), (0,)), Gate("S", (1,)),
        Gate("T_pi8", (2,)), Gate("CNOT", (1,), (2,)), Gate("H", (2,)),
        Gate("PhaseExp", (0,), num=2, den=5), Gate("X", (1,)), Gate("Z", (0,)),
    ]
    for g in gates:
        c.append(g)
    u = circuit_unitary(c)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    assert np.abs(simulate(c, psi) - u @ psi).max() < 1e-12
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-10


def test_circuit_identity_and_hh():
    c = Circuit(2)
    assert np.allclose(circuit_unitary(c), np.eye(4))
    c.append(Gate("H", (0,)))
    c.append(Gate("H", (0,)))
    assert np.abs(circuit_unitary(c) - np.eye(4)).max() < 1e-12


def test_norm_preserved():
    rng = np.random.default_rng(4)
    c = build_mub_circuit_prime(5, 2, a=1, b=3)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    assert abs(np.linalg.norm(simulate(c, psi)) - 1) < 1e-9


def test_inverse_circuit():
    c = build_mub_circuit_prime(5, 2, a=2, b=1)
    u = circuit_unitary(c)
    v = circuit_unitary(c.inverse())
    assert np.abs(v @ u - np.eye(8)).max() < 1e-10


def test_inverse_of_qudit_circuit():
    c = build_mub_circuit_prime_power(3, 2, a=4, b=7)
    u = circuit_unitary(c)
    v = circuit_unitary(c.inverse())
    assert np.abs(v @ u - np.eye(9)).max() < 1e-10


def test_t_gate_cycles_paulis():
    t = gate_matrix(Gate("T", (0,)), 2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    for src, dst in [(x, y), (y, z), (z, x)]:
        got = t @ src @ t.conj().T
        phase = got.ravel()[np.argmax(np.abs(got))] / dst.ravel()[np.argmax(np.abs(got))]
        assert np.abs(got - phase * dst).max() < 1e-12
        assert abs(abs(phase) - 1) < 1e-12


def test_tournament_covers_all_pairs():
    for m in range(2, 9):
        seen = set()
        idles = []
        for pairs, idle in _tournament_rounds(m):
            qubits = set()
            for i, j in pairs:
                assert i < j
                seen.add((i, j))
                qubits |= {i, j}
            assert len(qubits) == 2 * len(pairs)
            if idle is not None:
                assert idle not in qubits
                idles.append(idle)
        assert seen == {(i, j) for i in range(m) for j in range(i + 1, m)}
        if m % 2 == 1:
            assert sorted(idles) == list(range(m))


def test_prime_circuit_computational_branch():
    c = build_mub_circuit_prime(3, 1, a=3, b=2)
    out = simulate(c, basis_state(4, 0))
    assert np.abs(out - basis_state(4, 2)).max() < 1e-12


def test_prime_circuit_flat_state():
    c = build_mub_circuit_prime(3, 1, a=0, b=0)
    out = simulate(c, basis_state(4, 0))
    proj = out[:3] / np.linalg.norm(out[:3])
    assert np.abs(np.abs(proj) - 1 / math.sqrt(3)).max() < 1e-9
    assert overlap(proj, np.ones(3) / math.sqrt(3)) > 1 - 1e-10


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (7, 2)])
def test_prime_circuit_matches_closed_form(p, n):
    fam = mub_prime(p)
    for a in range(p + 1):
        for b in range(p):
            c = build_mub_circuit_prime(p, n, a, b)
            out = simulate(c, basis_state(2 ** (n + 1), 0))
            proj = out[:p]
            proj = proj / np.linalg.norm(proj)
            assert overlap(proj, fam.states[a, b]) >= 1 - 1e-10


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (7, 2), (11, 3)])
def test_prime_circuit_bounds(p, n):
    count_bound = (n + 1) * (n + 2) // 2 + 3 * (n + 1)
    depth_bound = n + 3
    for a in list(range(p + 1)):
        c = build_mub_circuit_prime(p, n, a, min(a, p - 1))
        assert c.gate_count <= count_bound
        assert c.depth <= depth_bound
    generic = build_mub_circuit_prime(p, n, 1, 1)
    assert generic.gate_count == n * (n + 1) // 2 + 3 * (n + 1)


def test_fourier_gate_flat_row():
    c = Circuit(1, d=3)
    c.append(Gate("Fp", (0,)))
    out = simulate(c, basis_state(3, 0))
    assert np.abs(out - np.ones(3) / math.sqrt(3)).max() < 1e-12


def test_prime_power_circuit_single_qudit_matches_prime():
    for a in range(4):
        for b in range(3):
            c1 = build_mub_circuit_prime_power(3, 1, a, b)
            out1 = simulate(c1, basis_state(3, 0))
            fam = mub_prime(3)
            assert overlap(out1, fam.states[a, b]) > 1 - 1e-10


def test_prime_power_circuit_matches_closed_form():
    fam = mub_prime_power(3, 2)
    for a in range(10):
        for b in range(9):
            c = build_mub_circuit_prime_power(3, 2, a, b)
            out = simulate(c, basis_state(9, 0))
            assert overlap(out, fam.states[a, b]) >= 1 - 1e-10


@pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (3, 3), (5, 3)])
def test_prime_power_circuit_matches_closed_form_beyond_gf9(p, k):
    # over GF(3^2) every M_a commutes with the Gram matrix tr(X^(i+j)), which hides a transposed M_a
    fam, d = mub_prime_power(p, k), p**k
    for a, b in [(1, 0), (2, 3), (d - 1, d - 2), (d // 2, 1), (d, 4)]:
        out = simulate(build_mub_circuit_prime_power(p, k, a, b), basis_state(d, 0))
        assert overlap(out, fam.states[a, b]) >= 1 - 1e-10


def test_amplitude_split_returns_theta():
    # good weight 1/4: sin(theta) = 1/2
    assert math.isclose(amplitude_split(np.full(4, 0.5), np.diag([1, 0, 0, 0])), math.pi / 6)


def test_amplitude_split_validates():
    with pytest.raises(ValueError):
        amplitude_split(basis_state(4, 0), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        amplitude_split(basis_state(4, 0), np.eye(4))


def test_grover_sweet_spot():
    # p_good = 1/4 on a uniform 2-qubit state; one round reaches certainty
    c = Circuit(2)
    c.append(Gate("H", (0,)))
    c.append(Gate("H", (1,)))
    proj = np.zeros((4, 4), dtype=complex)
    proj[3, 3] = 1
    out = amplitude_amplify(c, proj, rounds=1)
    assert abs(abs(out[3]) ** 2 - 1) < 1e-12


def test_amplification_rotation_identity():
    rng = np.random.default_rng(23)
    hits = 0
    for _ in range(12):
        n = int(rng.integers(1, 4))
        dim = 2**n
        u = random_unitary(rng, dim)
        c = Circuit(n)  # placeholder register; we wrap the unitary as one dense gate below
        # build a random circuit instead: H/S/CNOT/T_pi8 sampled layers
        c = Circuit(n)
        for _ in range(8):
            q = int(rng.integers(n))
            kind = ["H", "S", "T_pi8", "PhaseExp"][int(rng.integers(4))]
            if kind == "PhaseExp":
                c.append(Gate(kind, (q,), num=int(rng.integers(1, 7)), den=7))
            else:
                c.append(Gate(kind, (q,)))
            if n > 1:
                a, b = rng.choice(n, size=2, replace=False)
                c.append(Gate("CNOT", (int(a),), (int(b),)))
        k_good = int(rng.integers(1, dim))
        picks = rng.choice(dim, size=k_good, replace=False)
        proj = np.zeros((dim, dim), dtype=complex)
        proj[picks, picks] = 1
        psi = simulate(c, basis_state(dim, 0))
        p_good = float(np.real(np.vdot(psi, proj @ psi)))
        if not 1e-6 < p_good < 1 - 1e-6:
            continue
        hits += 1
        theta = math.asin(math.sqrt(p_good))
        good = proj @ psi / math.sqrt(p_good)
        bad = (psi - proj @ psi) / math.sqrt(1 - p_good)
        for k in range(4):
            out = amplitude_amplify(c, proj, rounds=k)
            want = math.sin((2 * k + 1) * theta)
            assert abs(np.vdot(good, out) - want) < 1e-9
            assert abs(np.vdot(bad, out) - math.cos((2 * k + 1) * theta)) < 1e-9
            resid = out - np.vdot(good, out) * good - np.vdot(bad, out) * bad
            assert np.linalg.norm(resid) < 1e-9
    assert hits >= 8


def test_embedding_prime():
    assert embedding_prime(1) == 3
    assert embedding_prime(2) == 5
    assert embedding_prime(3) == 11
    assert embedding_prime(4) == 17
    assert embedding_prime(5) == 37


def test_projected_prepare_matches_projection():
    fam = mub_prime(5)
    for a in range(5 + 1):
        for b in range(4 if a == 5 else 5):
            out = projected_mub_prepare(2, a, b)
            want = fam.states[a, b][:4]
            want = want / np.linalg.norm(want)
            assert overlap(out, want) >= 1 - 1e-8


def test_projected_prepare_initial_angle():
    # the circuit output is flat over all 2^(n+1) levels, so the weight kept
    # by the good subspace is exactly 1/2 for every non-computational state
    n, p = 3, embedding_prime(3)
    for a, b in [(4, 6), (0, 0), (10, 3)]:
        c = build_mub_circuit_prime(p, n, a, b)
        psi = simulate(c, basis_state(2 ** (n + 1), 0))
        assert abs(np.linalg.norm(psi[: 2**n]) - math.sqrt(0.5)) < 1e-12


def test_projected_prepare_three_qubits():
    fam = mub_prime(11)
    for a, b in [(0, 0), (1, 5), (7, 10), (11, 2)]:
        out = projected_mub_prepare(3, a, b)
        want = fam.states[a, b][:8]
        want = want / np.linalg.norm(want)
        assert overlap(out, want) >= 1 - 1e-8


def test_projected_prepare_single_qubit():
    fam = mub_prime(3)
    for a in range(4):
        for b in range(3 if a < 3 else 2):
            out = projected_mub_prepare(1, a, b)
            want = fam.states[a, b][:2]
            want = want / np.linalg.norm(want)
            assert overlap(out, want) >= 1 - 1e-8


def test_projected_prepare_computational_branch():
    for b in range(4):
        out = projected_mub_prepare(2, 5, b)
        assert np.abs(out - basis_state(4, b)).max() < 1e-12
    with pytest.raises(ValueError):
        projected_mub_prepare(2, 5, 4)  # projects to zero


def per_circuit_projected_prepare(n_qubits, a, b, ancilla_tol=1e-6):
    """Oracle: one label at a time through its own preparation circuit, run by
    simulate, with the amplification round spelled out gate by gate."""
    p = embedding_prime(n_qubits)
    d = 2**n_qubits
    prep = build_mub_circuit_prime(p, n_qubits, a, b)
    reg_dim = 2 ** (n_qubits + 1)
    psi = simulate(prep, basis_state(reg_dim, 0))
    if a == p:
        if b >= d:
            raise ValueError(f"computational state {b} projects to zero on {n_qubits} qubits")
        return psi[:d].copy()
    alpha = math.cos(math.pi / 3) / float(np.linalg.norm(psi[:d]))
    if alpha > 1:
        raise ValueError("projection weight below 1/4: single-round amplification impossible")
    rot = np.array([[alpha, -math.sqrt(1 - alpha * alpha)], [math.sqrt(1 - alpha * alpha), alpha]])
    inv = prep.inverse()

    def apply_a(v):  # the rotated ancilla is the major qubit
        return (rot @ simulate(prep, v.reshape(2, reg_dim))).reshape(-1)

    def apply_a_dag(v):
        return simulate(inv, rot.T @ v.reshape(2, reg_dim)).reshape(-1)

    full0 = basis_state(2 * reg_dim, 0)
    state = apply_a(full0)
    state[:d] *= -1
    w = apply_a_dag(state)
    w = 2 * w[0] * full0 - w
    state = apply_a(w)
    good = state[:d]
    residual = math.sqrt(max(0.0, 1 - float(np.linalg.norm(good)) ** 2))
    if residual > ancilla_tol:
        raise RuntimeError(f"ancillas failed to return to |00>: residual {residual:.2e}")
    return good / np.linalg.norm(good)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projected_stack_matches_per_circuit_oracle(n):
    p, d = embedding_prime(n), 2**n
    stack = projected_mub_states(n)
    assert stack.shape == (p * (p + 1), d)
    for a in range(p + 1):
        for b in range(p):
            row = stack[a * p + b]
            if a == p and b >= d:
                assert not row.any()  # projects to zero
                continue
            assert np.abs(row - per_circuit_projected_prepare(n, a, b)).max() <= 1e-14
            assert np.array_equal(projected_mub_prepare(n, a, b), row)
    # the computational rows are the basis states themselves, bit for bit
    assert np.array_equal(stack[p * p:p * p + d], np.eye(d))


@pytest.mark.parametrize("n", [7, 8, 11])
def test_projected_prepare_runs_one_label_past_the_stack_cap(n):
    # n = 7 still applies the layer as one product, n >= 8 runs it through
    # simulate; both agree with the per-circuit oracle up to SIMULATE_DIM_CAP
    p, d = embedding_prime(n), 2**n
    for a, b in [(0, 0), (1, p - 1), (p - 1, d // 3)]:
        out = projected_mub_prepare(n, a, b)
        assert np.abs(out - per_circuit_projected_prepare(n, a, b)).max() <= 1e-13
        # the projection of a flat MUB state: every kept amplitude is 1/sqrt(d)
        assert np.abs(np.abs(out) - d**-0.5).max() <= 1e-13
    with pytest.raises(ValueError, match=f"exceeds the simulation cap {SIMULATE_DIM_CAP}"):
        projected_mub_prepare(12, 0, 0)


def test_mub_circuit_plans_are_the_h_layer_and_the_exponent_table():
    # the stack applies exactly this: H on every qubit, then w_p^(a x^2 + b x)
    for p in (3, 5, 7, 11, 13, 17):
        for n in range(max((p - 1).bit_length() - 1, 1), 5):
            m = n + 1
            x = np.arange(2**m)
            for a in range(p):
                for b in range(p):
                    c = build_mub_circuit_prime(p, n, a, b)
                    assert c.gates[:m] == [Gate("H", (q,)) for q in range(m)]
                    assert all(g.kind in _DIAGONAL for g in c.gates[m:])
                    want = np.exp(2j * np.pi * ((a * x * x + b * x) % p) / p) / 2 ** (m / 2)
                    assert np.abs(simulate(c, basis_state(2**m, 0)) - want).max() <= 1e-14, (p, n, a, b)


def test_projected_residual_check_names_the_failing_label(monkeypatch):
    # a wrong rotation angle leaves amplitude on the ancillas: the real per-row
    # residual check fires, for the whole stack and for one label alike
    monkeypatch.setattr(qdesigns.circuits, "_AMPLIFIED_GOOD", 0.45)
    with pytest.raises(RuntimeError, match=r"^\(a, b\) = \(0, 0\): ancillas failed to return to \|00>: residual"):
        projected_mub_states(2)
    with pytest.raises(RuntimeError, match=r"^\(a, b\) = \(3, 1\): ancillas failed"):
        projected_mub_prepare(2, 3, 1)
    monkeypatch.setattr(qdesigns.circuits, "_ANCILLA_TOL", 1.0)
    assert np.abs(projected_mub_prepare(2, 3, 1)).max() > 0  # loose tolerance passes
    monkeypatch.setattr(qdesigns.circuits, "_AMPLIFIED_GOOD", 0.75)  # above cos(theta) = sqrt(1/2)
    with pytest.raises(ValueError, match=r"^\(a, b\) = \(4, 2\): projection weight below 1/4"):
        projected_mub_prepare(2, 4, 2)


def test_projected_stack_cap_fails_before_allocating(no_numpy):
    no_numpy(qdesigns.circuits)
    for n in (0, PROJECTED_STACK_QUBIT_CAP + 1):
        with pytest.raises(ValueError, match=f"projected stack needs 1 <= n_qubits <= {PROJECTED_STACK_QUBIT_CAP}"):
            projected_mub_states(n)


def test_simulate_cap_fails_before_allocating(no_numpy):
    n = SIMULATE_DIM_CAP.bit_length()  # 2^n = 2 * SIMULATE_DIM_CAP
    c = Circuit(n, 2, [Gate("H", (0,))])
    state = np.zeros(2**n)
    no_numpy(qdesigns.circuits)
    with pytest.raises(ValueError, match=f"register dimension {2**n} exceeds the simulation cap {SIMULATE_DIM_CAP}"):
        simulate(c, state)


def test_unitary_cap_fails_before_allocating(no_numpy):
    n = UNITARY_DIM_CAP.bit_length()
    c = Circuit(n, 2, [Gate("H", (0,))])
    no_numpy(qdesigns.circuits)
    with pytest.raises(ValueError, match=f"dimension {2**n} exceeds the dense-unitary cap {UNITARY_DIM_CAP}"):
        circuit_unitary(c)


def test_parallel_prefix_single_control():
    c = parallel_prefix_parity(3, [1], 0)
    assert c.gate_count == 1
    assert c.gates[0] == Gate("CNOT", (0,), (1,))


def test_parallel_prefix_matches_chain_unitary():
    for n, controls, target in [(5, [0, 1, 2, 3], 4), (6, [0, 2, 3, 5], 1), (4, [1, 2, 3], 0)]:
        tree = parallel_prefix_parity(n, controls, target)
        chain = Circuit(n)
        for q in controls:
            chain.append(Gate("CNOT", (target,), (q,)))
        assert np.abs(circuit_unitary(tree) - circuit_unitary(chain)).max() < 1e-10


def test_parallel_prefix_classical_exhaustive():
    n, controls, target = 9, list(range(8)), 8
    c = parallel_prefix_parity(n, controls, target)
    m = classical_parity_map(c)
    for bits in itertools.product([0, 1], repeat=9):
        out = m @ np.array(bits) % 2
        want = list(bits)
        want[target] ^= sum(bits[q] for q in controls) % 2
        assert list(out) == want


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 16, 31])
def test_parallel_prefix_bounds(r):
    n = r + 1
    c = parallel_prefix_parity(n, list(range(r)), r)
    assert c.gate_count <= 4 * n
    assert c.depth <= 2 * math.ceil(math.log2(max(r, 1))) + 2 if r > 1 else True
    m = classical_parity_map(c)
    want = np.eye(n, dtype=np.int64)
    want[r, :r] = 1
    assert np.array_equal(m, want)


def test_emit_round_trip():
    c = build_mub_circuit_prime(5, 2, a=3, b=4)
    text = emit_circuit(c)
    c2 = parse_circuit(text)
    assert emit_circuit(c2) == text
    assert np.abs(circuit_unitary(c2) - circuit_unitary(c)).max() < 1e-12


def test_emit_round_trip_qudit():
    c = build_mub_circuit_prime_power(3, 2, a=2, b=5)
    text = emit_circuit(c)
    assert emit_circuit(parse_circuit(text)) == text


def test_gate_validation():
    c = Circuit(2)
    with pytest.raises(ValueError):
        c.append(Gate("NOPE", (0,)))
    with pytest.raises(ValueError):
        c.append(Gate("CNOT", (0,), (0,)))
    with pytest.raises(ValueError):
        c.append(Gate("H", (5,)))
    qc = Circuit(2, d=3)
    with pytest.raises(ValueError):
        qc.append(Gate("H", (0,)))


def test_append_checks_gate_shape():
    with pytest.raises(ValueError, match="PhaseVec needs 3"):
        Circuit(2, d=3).append(Gate("PhaseVec", (0,), den=3, phases=(1, 2)))
    for bad in (Gate("CNOT", (1,)), Gate("CPhase", (0,), num=1, den=4), Gate("H", (0, 1))):
        with pytest.raises(ValueError, match="target"):
            Circuit(2).append(bad)


def every_kind_circuit(n, d, rng):
    """A random circuit on n qudits that uses every gate kind the register allows."""
    c = Circuit(n, d)
    single = ["Xd", "Zd", "Fp", "Fpinv", "PhaseVec"]
    if d == 2:
        single += ["H", "X", "Z", "S", "T_pi8", "T", "PhaseExp"]
    for _ in range(2):
        for kind in single:
            q = int(rng.integers(n))
            c.append(Gate(kind, (q,), num=int(rng.integers(1, 7)), den=7,
                          phases=tuple(int(x) for x in rng.integers(0, 5, d)) if kind == "PhaseVec" else ()))
        for kind in ["CPhase", "CNOT", "CADD"] if d == 2 else ["CPhase", "CADD"]:
            a, b = (int(x) for x in rng.choice(n, 2, replace=False))
            if kind == "CPhase":
                c.append(Gate(kind, (a, b), num=int(rng.integers(1, 9)), den=9))
            else:
                c.append(Gate(kind, (a,), (b,), num=int(rng.integers(1, d))))
    return c


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (2, 3), (3, 5)])
def test_batched_simulate_matches_row_by_row(n, d):
    rng = np.random.default_rng(n * 10 + d)
    c = every_kind_circuit(n, d, rng)
    dim = d**n
    stack = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
    rows = np.array([simulate(c, row) for row in stack])
    assert np.abs(simulate(c, stack) - rows).max() < 1e-14
    assert np.abs(stack @ circuit_unitary(c).T - rows).max() < 1e-12


def random_stack(rng, m, dim):
    return rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (2, 3), (3, 5)])
def test_inverse_builds_valid_gates_without_append(n, d, monkeypatch):
    rng = np.random.default_rng(200 + n * 10 + d)
    c = every_kind_circuit(n, d, rng)
    stack = random_stack(rng, 3, d**n)
    monkeypatch.setattr(Circuit, "append", lambda self, gate: pytest.fail("inverse called append"))
    inv = c.inverse()
    twice = inv.inverse()
    monkeypatch.undo()
    # every inverted gate passes the checks that append would have made
    assert Circuit(n, d, inv.gates).gates == inv.gates
    assert np.abs(simulate(inv, simulate(c, stack)) - stack).max() < 1e-12
    assert np.abs(simulate(twice, stack) - simulate(c, stack)).max() < 1e-12


def test_simulate_rejects_bad_shapes():
    c = Circuit(2)
    with pytest.raises(ValueError):
        simulate(c, np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        simulate(c, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        simulate(c, np.zeros(8))


@st.composite
def valid_circuits(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(2, 5))
    kinds = sorted(k for k, (t, c) in _ARITY.items() if t + c <= n and (d == 2 or k not in _QUBIT_ONLY))
    circuit = Circuit(n, d)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        n_targets, n_controls = _ARITY[kind]
        qudits = draw(st.permutations(range(n)))[: n_targets + n_controls]
        ints = st.integers(-3, 40)
        den = draw(st.integers(1, 40))
        if kind == "PhaseVec":
            phases = draw(st.lists(ints, min_size=d, max_size=d))
            gate = Gate(kind, tuple(qudits), den=den, phases=tuple(phases))
        else:
            gate = Gate(kind, tuple(qudits[n_controls:]), tuple(qudits[:n_controls]), num=draw(ints), den=den)
        circuit.append(gate)
    return circuit


@settings(max_examples=80, deadline=None)
@given(valid_circuits())
def test_emit_parse_round_trip_property(circuit):
    text = emit_circuit(circuit)
    parsed = parse_circuit(text)
    assert (parsed.n, parsed.d, parsed.gates) == (circuit.n, circuit.d, circuit.gates)
    assert emit_circuit(parsed) == text
