"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from qdesigns.channels import (
    KrausChannel,
    avg_fidelity_exact,
    avg_from_entanglement,
    choi_to_kraus,
    depolarizing,
    entanglement_fidelity,
    kraus_to_supermatrix,
    supermatrix_to_choi,
    unitary_channel,
)
from qdesigns.circuits import (
    Circuit,
    Gate,
    amplitude_amplify,
    build_mub_circuit_prime,
    build_mub_circuit_prime_power,
    circuit_unitary,
    classical_parity_map,
    parallel_prefix_parity,
    simulate,
)
from qdesigns.estimate import (
    ExperimentConfig,
    ancilla_entanglement_estimate,
    mub_mc_estimate,
    projected_estimate,
)
from qdesigns.linalg import (
    basis_state,
    random_complex_matrix,
    random_density,
    random_kraus_channel_ops,
)
from qdesigns.mub import (
    MubFamily,
    family_for_dimension,
    haar_moment,
    haar_moment_mc,
    mub_galois_ring,
    mub_prime,
    mub_prime_power,
    state_design_sum,
    t_design_angle_check,
    verify_unbiased,
)
from qdesigns.twirl import (
    PauliLabel,
    all_labels,
    char_sum,
    clifford_group_1q,
    clifford_twirl_exact,
    epsilon0,
    ideal_good_case_distribution,
    l1_to_uniform,
    markov_transition_matrix,
    mc_convergence_curve,
    pauli_matrix,
    pauli_twirl,
    pauli_twirl_brute,
    unitary_1design_check,
    unitary_design_check,
)


def _families() -> list[MubFamily]:
    fams = [mub_prime(p) for p in (3, 5, 7, 11, 13)]
    fams += [mub_prime_power(3, 2), mub_prime_power(3, 3), mub_prime_power(5, 2)]
    fams += [mub_galois_ring(n) for n in range(1, 6)]
    return fams


def _random_tp_channel(rng, d, k=None):
    k = k or int(rng.integers(2, min(d * d, 6) + 1))
    return KrausChannel(d, tuple(random_kraus_channel_ops(rng, d, k)))


def test_criterion_01_mub_validity():
    start = time.monotonic()
    for fam in _families():
        report = verify_unbiased(fam, tol=1e-9)
        assert report.ok, (fam.kind, fam.d, report)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"\n[ACCEPTANCE 1] PASS mub validity for 13 families within 1e-9 ({elapsed:.1f}s)")


def test_criterion_02_state_design_identity():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for fam in _families():
        d = fam.d
        for _ in range(20):
            m = random_complex_matrix(rng, d)
            n = random_complex_matrix(rng, d)
            got = state_design_sum(fam, m, n)
            want = np.trace(m @ n) + np.trace(m) * np.trace(n)
            assert abs(got - want) <= 1e-8 * abs(want)
        assert abs(t_design_angle_check(fam, 1) - 1 / d) < 1e-9
        assert abs(t_design_angle_check(fam, 2) - 2 / (d * (d + 1))) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"\n[ACCEPTANCE 2] PASS state 2-design sums and angle sums ({elapsed:.1f}s)")


def test_criterion_03_haar_moment_oracle():
    rng = np.random.default_rng(303)
    for d in (2, 4, 8):
        m = random_complex_matrix(rng, d)
        n = random_complex_matrix(rng, d)
        mean, stderr = haar_moment_mc(m, n, 100_000, rng)
        assert abs(mean - haar_moment(m, n)) < 5 * stderr
    print("\n[ACCEPTANCE 3] PASS Monte-Carlo Fubini-Study average within 5 sigma at d=2,4,8")


def test_criterion_04_circuit_fidelity_and_bounds():
    for p in (3, 5, 7):
        n = 1 if p == 3 else 2
        fam = mub_prime(p)
        count_bound = (n + 1) * (n + 2) // 2 + 3 * (n + 1)
        for a in range(p + 1):
            for b in range(p):
                c = build_mub_circuit_prime(p, n, a, b)
                assert c.gate_count <= count_bound
                assert c.depth <= n + 3
                if a < p:  # generic branch meets the depth bound with equality
                    assert c.depth == n + 3
                out = simulate(c, basis_state(2 ** (n + 1), 0))
                proj = out[:p]
                proj = proj / np.linalg.norm(proj)
                assert abs(np.vdot(proj, fam.states[a, b])) >= 1 - 1e-8
    fam9 = mub_prime_power(3, 2)
    for a in range(10):
        for b in range(9):
            c = build_mub_circuit_prime_power(3, 2, a, b)
            out = simulate(c, basis_state(9, 0))
            assert abs(np.vdot(out, fam9.states[a, b])) >= 1 - 1e-8
    print("\n[ACCEPTANCE 4] PASS prime circuits (p=3,5,7, all a,b) and qudit circuits (3,2)")


def test_criterion_05_amplitude_amplification():
    rng = np.random.default_rng(505)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 4))
        dim = 2**n
        c = Circuit(n)
        for _ in range(10):
            q = int(rng.integers(n))
            kind = ("H", "S", "T_pi8")[int(rng.integers(3))]
            c.append(Gate(kind, (q,)))
            if n > 1:
                x, y = rng.choice(n, size=2, replace=False)
                c.append(Gate("CNOT", (int(x),), (int(y),)))
        k_good = int(rng.integers(1, dim))
        picks = rng.choice(dim, size=k_good, replace=False)
        proj = np.zeros((dim, dim), dtype=complex)
        proj[picks, picks] = 1
        psi = simulate(c, basis_state(dim, 0))
        p_good = float(np.real(np.vdot(psi, proj @ psi)))
        if not 1e-4 < p_good < 1 - 1e-4:
            continue
        done += 1
        theta = math.asin(math.sqrt(p_good))
        good = proj @ psi / math.sqrt(p_good)
        for k in range(4):
            out = amplitude_amplify(c, proj, rounds=k)
            assert abs(np.vdot(good, out) - math.sin((2 * k + 1) * theta)) < 1e-9
    grover = Circuit(2)
    grover.append(Gate("H", (0,)))
    grover.append(Gate("H", (1,)))
    proj = np.zeros((4, 4), dtype=complex)
    proj[2, 2] = 1
    out = amplitude_amplify(grover, proj, rounds=1)
    assert abs(abs(out[2]) ** 2 - 1) < 1e-12
    print("\n[ACCEPTANCE 5] PASS sin((2k+1) theta) over 50 instances; Grover case exact")


def test_criterion_06_fidelity_formulas():
    for d in range(2, 10):
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            ch = depolarizing(d, p)
            assert abs(avg_fidelity_exact(np.eye(d), ch) - (p + (1 - p) / d)) < 1e-12
            assert abs(entanglement_fidelity(ch) - (p + (1 - p) / d**2)) < 1e-12
    rng = np.random.default_rng(606)
    for d in range(2, 10):
        for _ in range(20):
            ch = _random_tp_channel(rng, d)
            lhs = avg_fidelity_exact(np.eye(d), ch)
            rhs = avg_from_entanglement(d, entanglement_fidelity(ch))
            assert abs(lhs - rhs) < 1e-9
    print("\n[ACCEPTANCE 6] PASS depolarizing fidelity formulas (1e-12) and F_avg/F_e relation (1e-9)")


def test_criterion_07_representation_round_trips():
    rng = np.random.default_rng(707)
    for d in (2, 3, 4):
        for _ in range(3):
            ch = _random_tp_channel(rng, d)
            back = choi_to_kraus(supermatrix_to_choi(kraus_to_supermatrix(ch)))
            for _ in range(10):
                rho = random_density(rng, d)
                assert np.abs(back.apply(rho) - ch.apply(rho)).max() < 1e-7
    print("\n[ACCEPTANCE 7] PASS Kraus -> supermatrix -> Choi -> Kraus round trips within 1e-7")


def test_criterion_08_pauli_twirl():
    rng = np.random.default_rng(808)
    for d, n in ((2, 1), (2, 2), (3, 1)):
        dim = d**n
        ch = _random_tp_channel(rng, dim, k=3)
        tw = pauli_twirl(ch, d=d)
        for _ in range(3):
            rho = random_density(rng, dim)
            brute = pauli_twirl_brute(ch, rho, d=d)
            assert np.abs(tw.apply(rho) - brute).max() < 1e-9
    for d, n in ((2, 2), (3, 1)):
        for j in all_labels(d, n):
            want = (d * d) ** n if j.is_identity() else 0.0
            assert abs(char_sum(j) - want) < 1e-9
    print("\n[ACCEPTANCE 8] PASS Pauli twirl closed form vs brute force; character sums vanish")


def test_criterion_09_clifford_2_design():
    rng = np.random.default_rng(909)
    for _ in range(20):
        ch = _random_tp_channel(rng, 2)
        want = float(np.real(np.trace(kraus_to_supermatrix(ch).mat) - 1)) / 3
        p, residual = clifford_twirl_exact(ch)
        assert abs(p - want) < 1e-9
        assert residual < 1e-9
    group = clifford_group_1q()
    for _ in range(50):
        m, n, o = (random_complex_matrix(rng, 2) for _ in range(3))
        assert unitary_design_check(group, m, n, o) < 1e-10
    paulis = [pauli_matrix(PauliLabel.from_int(2, 1, v)) for v in range(4)]
    assert unitary_1design_check(paulis, random_density(rng, 2)) < 1e-10
    m, n, o = (random_complex_matrix(rng, 2) for _ in range(3))
    assert unitary_design_check(paulis, m, n, o) > 1e-3
    print("\n[ACCEPTANCE 9] PASS Clifford twirl depolarizes (p=(tr-1)/3); 24-group 2-design; Paulis 1-design only")


def test_criterion_10_approximate_twirl_convergence():
    start = time.monotonic()
    _, ideal = ideal_good_case_distribution(2)
    assert abs(l1_to_uniform(ideal) - 2 / 15) < 1e-12
    eps = epsilon0(2)
    assert abs(eps - 4 / 15) < 1e-15
    p = markov_transition_matrix(2)
    for v in range(1, 16):
        dist = np.zeros(16)
        dist[v] = 1
        for k in range(1, 13):
            dist = p @ dist
            assert l1_to_uniform(dist) <= eps + 2 * 0.5**k * (eps + 1) + 1e-9
    rng = np.random.default_rng(1010)
    est = mc_convergence_curve(3, 15, 100_000, rng)[-1]
    assert est["l1"] <= epsilon0(3) + 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\n[ACCEPTANCE 10] PASS ||u-q||_1 = 2/15; doubled bound all k; n=3 MC l1={est['l1']:.4f} ({elapsed:.1f}s)")


def test_criterion_11_estimation_protocols():
    rng = np.random.default_rng(1111)
    for d in (2, 3, 4, 5, 8, 9):
        fam = family_for_dimension(d)
        for _ in range(2):
            ch = _random_tp_channel(rng, d)
            res = mub_mc_estimate(ExperimentConfig(ch), fam)
            assert abs(res.p_hat - res.exact) < 1e-8
    ch = depolarizing(4, 0.9)
    fam = family_for_dimension(4)
    hits = 0
    for seed in range(100):
        res = mub_mc_estimate(ExperimentConfig(ch, trials=100_000, seed=seed), fam)
        if abs(res.p_hat - res.exact) <= 3 * res.std_err:
            hits += 1
    assert hits >= 95
    for d in (2, 4):
        noisy = _random_tp_channel(rng, d)
        res = ancilla_entanglement_estimate(ExperimentConfig(noisy, protocol="ancilla"))
        assert abs(res.p_hat - entanglement_fidelity(noisy)) < 1e-9
    res = projected_estimate(ExperimentConfig(_random_tp_channel(rng, 4), protocol="projected"))
    assert abs(res.fidelity - res.exact) < 1e-6
    print(f"\n[ACCEPTANCE 11] PASS deterministic=exact (1e-8); MC 3-sigma coverage {hits}/100; ancilla 1e-9; projected 1e-6")


def test_criterion_12_parallel_prefix():
    rng = np.random.default_rng(1212)
    for n in range(2, 7):
        controls = list(range(n - 1))
        tree = parallel_prefix_parity(n, controls, n - 1)
        chain = Circuit(n)
        for q in controls:
            chain.append(Gate("CNOT", (n - 1,), (q,)))
        assert np.abs(circuit_unitary(tree) - circuit_unitary(chain)).max() < 1e-10
    for n in (2, 3, 5, 8, 13, 16, 21, 32):
        controls = list(range(n - 1))
        tree = parallel_prefix_parity(n, controls, n - 1)
        assert tree.gate_count <= 4 * n
        assert tree.depth <= 2 * math.ceil(math.log2(n)) + 2
        got = classical_parity_map(tree)
        want = np.eye(n, dtype=np.int64)
        want[n - 1, : n - 1] = 1
        assert np.array_equal(got, want)
    print("\n[ACCEPTANCE 12] PASS parity tree equals chain (<=6 qubits); depth/count bounds to n=32")
