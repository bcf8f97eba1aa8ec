"""Fidelity-estimation protocols against their closed-form values."""

import json
import math

import numpy as np
import pytest

import qdesigns.estimate
from qdesigns.channels import (
    KrausChannel,
    avg_fidelity_exact,
    depolarizing,
    entanglement_fidelity,
    unitary_channel,
)
from qdesigns.circuits import simulate
from qdesigns.cli import main
from qdesigns.estimate import (
    ExperimentConfig,
    _bell_prep,
    _bernoulli_mean,
    _pure_outcome_probs,
    ancilla_entanglement_estimate,
    mub_mc_estimate,
    projected_estimate,
    run_protocol,
)
from qdesigns.linalg import random_kraus_channel_ops
from qdesigns.mub import family_for_dimension

from helpers import random_unitary


def random_channel(rng, d, k=3):
    return KrausChannel(d, tuple(random_kraus_channel_ops(rng, d, k)))


def test_identity_channel_gives_one_with_zero_variance():
    cfg = ExperimentConfig(unitary_channel(np.eye(4, dtype=complex)), trials=1000, seed=1)
    res = mub_mc_estimate(cfg, family_for_dimension(4))
    assert res.p_hat == 1.0
    assert res.std_err == 0.0
    assert res.fidelity == 1.0


def test_deterministic_mode_matches_exact():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4, 5, 8, 9):
        fam = family_for_dimension(d)
        for _ in range(3):
            cfg = ExperimentConfig(random_channel(rng, d), trials=0)
            res = mub_mc_estimate(cfg, fam)
            assert abs(res.p_hat - res.exact) < 1e-8


def test_mub_mc_estimate_refuses_a_family_of_another_dimension():
    with pytest.raises(ValueError, match=r"^family dimension 3 != channel dimension 4$"):
        mub_mc_estimate(ExperimentConfig(depolarizing(4, 0.9)), family_for_dimension(3))


def test_mc_depolarizing_hits_formula():
    cfg = ExperimentConfig(depolarizing(4, 0.9), trials=100_000, seed=7)
    res = mub_mc_estimate(cfg, family_for_dimension(4))
    assert abs(res.exact - 0.925) < 1e-12
    assert abs(res.p_hat - 0.925) < 3 * res.std_err + 1e-12
    assert res.std_err <= 1 / math.sqrt(res.trials_used)


def test_mc_is_reproducible_and_worker_invariant_means(capsys):
    ch = depolarizing(2, 0.8)
    fam = family_for_dimension(2)
    a = mub_mc_estimate(ExperimentConfig(ch, trials=5000, seed=3), fam)
    b = mub_mc_estimate(ExperimentConfig(ch, trials=5000, seed=3), fam)
    assert a == b
    # --workers is accepted and ignored: the output depends only on (seed, trials)
    outs = []
    for workers in ("1", "4"):
        argv = ["estimate", "--depolarizing", "0.8", "--d", "2", "--trials", "5000", "--seed", "3"]
        assert main(argv + ["--workers", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def per_trial_bernoulli_mean(probs, weights, trials, seed):
    """Oracle: one uniform state index and one uniform draw per trial."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    idx = rng.integers(0, probs.size, size=trials)
    hits = (rng.random(trials) < probs[idx]).astype(float)
    if weights is not None:
        hits *= weights[idx]
    mean = float(hits.sum()) / trials
    var = max(float((hits**2).sum()) / trials - mean**2, 0.0)
    return mean, math.sqrt(var / trials)


SAMPLERS = pytest.mark.parametrize(
    "sampler", [per_trial_bernoulli_mean, _bernoulli_mean], ids=["per_trial", "counts"]
)


def test_mc_stream_is_pinned(capsys, monkeypatch):
    argv = ["estimate", "--protocol", "mub_mc", "--depolarizing", "0.9", "--d", "4",
            "--trials", "20000", "--seed", "11"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        '{"d": 4, "exact": 0.925, "fidelity": 0.92675, "p_hat": 0.92675, "protocol": "mub_mc", '
        '"seed": 11, "std_err": 0.001842341411085362, "trials": 20000}\n'
    )
    # the per-trial oracle still draws the stream the per-trial sampler drew
    monkeypatch.setattr(qdesigns.estimate, "_bernoulli_mean", per_trial_bernoulli_mean)
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        '{"d": 4, "exact": 0.925, "fidelity": 0.9231, "p_hat": 0.9231, "protocol": "mub_mc", '
        '"seed": 11, "std_err": 0.0018839637735370597, "trials": 20000}\n'
    )


# probabilities a hair outside [0, 1] count as 1 and 0, as a uniform draw u < p does
LAW_PROBS = {
    "states": np.array([0.0, 0.2, 0.45, 0.7, 0.95, 1.0, 1 + 1e-15, -1e-16]),
    "ancilla": np.array([0.5]),
}
CHI2_8DF_0999 = 26.12  # 0.999 quantile of chi-square with 8 degrees of freedom


@SAMPLERS
@pytest.mark.parametrize("case", sorted(LAW_PROBS))
def test_sampler_total_hits_are_binomial(sampler, case):
    # each trial succeeds with the mean clipped probability, independently,
    # so the total over 8 trials is Binomial(8, p_bar)
    probs = LAW_PROBS[case]
    trials, seeds = 8, 4000
    p_bar = float(np.clip(probs, 0, 1).mean())
    totals = [round(sampler(probs, None, trials, seed)[0] * trials) for seed in range(seeds)]
    observed = np.bincount(totals, minlength=trials + 1)
    expected = seeds * np.array(
        [math.comb(trials, k) * p_bar**k * (1 - p_bar) ** (trials - k) for k in range(trials + 1)]
    )
    assert expected.min() >= 5
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_8DF_0999


@SAMPLERS
def test_weighted_sampler_mean_and_variance(sampler):
    # projected-style weights: a zero-weight state is counted correct with weight 0
    probs = np.array([1.0, 0.3, 0.8, 0.55, 1.0])
    weights = np.array([0.0, 0.25, 0.5, 1.0, 0.81])
    trials, seeds = 16, 3000
    first = float((weights * probs).mean())
    second = float((weights**2 * probs).mean())
    var_of_mean = (second - first**2) / trials
    means, errs = np.array([sampler(probs, weights, trials, seed) for seed in range(seeds)]).T
    assert abs(means.mean() - first) < 5 * math.sqrt(var_of_mean / seeds)
    centred = means - means.mean()
    var = float((centred**2).mean())
    var_se = math.sqrt((float((centred**4).mean()) - var**2) / seeds)
    assert abs(var - var_of_mean) < 5 * var_se
    # the reported stderr is the plug-in one: E[trials err^2] = (trials - 1) / trials * var(X)
    reported = errs**2 * trials
    want = (trials - 1) / trials * (second - first**2)
    assert abs(reported.mean() - want) < 5 * float(reported.std()) / math.sqrt(seeds)


def test_trials_bound():
    ExperimentConfig(depolarizing(2, 0.5), trials=2**63 - 1)
    with pytest.raises(ValueError, match=r"2\*\*63"):
        ExperimentConfig(depolarizing(2, 0.5), trials=2**63)


def test_mub_exact_refuses_a_trial_count():
    with pytest.raises(ValueError, match="mub_exact is the exact average and draws no trials: .* got 5000"):
        ExperimentConfig(depolarizing(2, 0.9), protocol="mub_exact", trials=5000, seed=9)
    assert run_protocol(ExperimentConfig(depolarizing(2, 0.9), protocol="mub_exact", seed=9)).trials_used == 0


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="--seed must be >= 0, got -1"):
        ExperimentConfig(depolarizing(2, 0.9), seed=-1)
    assert ExperimentConfig(depolarizing(2, 0.9), seed=0).seed == 0


def einsum_outcome_probs(states, kraus):
    """Oracle: one einsum per Kraus operator."""
    vals = np.zeros(states.shape[0])
    for a in kraus:
        vals += np.abs(np.einsum("si,ij,sj->s", states.conj(), a, states)) ** 2
    return vals


def per_branch_p_zero(noise):
    """Oracle: one simulation of the inverse Bell preparation per Kraus branch."""
    d = noise.dim
    prep = _bell_prep(d.bit_length() - 1)
    phi = simulate(prep, np.eye(d * d, dtype=complex)[0])
    inv = prep.inverse()
    p_zero = 0.0
    for a in noise.kraus:
        branch = (phi.reshape(d, d) @ a.T).reshape(-1)
        p_zero += abs(simulate(inv, branch)[0]) ** 2
    return p_zero


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16])
def test_stacked_kraus_probs_match_einsum_oracle(d):
    rng = np.random.default_rng(100 + d)
    states = family_for_dimension(d).all_states()
    for k in (1, 3, d):
        kraus = random_channel(rng, d, k).kraus
        got = _pure_outcome_probs(states, kraus)
        assert np.abs(got - einsum_outcome_probs(states, kraus)).max() < 1e-14


def test_outcome_prob_chunks_do_not_change_probs(monkeypatch):
    # every state stack of a d <= 16 run (at most 17 * 18 projected states) is one chunk
    assert 17 * 18 <= qdesigns.estimate._STATE_CHUNK
    rng = np.random.default_rng(41)
    states = family_for_dimension(32).all_states()
    kraus = random_channel(rng, 32, 3).kraus
    whole = _pure_outcome_probs(states, kraus)
    assert np.abs(whole - einsum_outcome_probs(states, kraus)).max() < 1e-14
    for chunk in (1, 7, 100, 10**6):  # a chunk of one row takes a matrix-vector kernel: not bit for bit
        monkeypatch.setattr(qdesigns.estimate, "_STATE_CHUNK", chunk)
        assert np.abs(_pure_outcome_probs(states, kraus) - whole).max() < 1e-15


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
def test_batched_ancilla_matches_per_branch_oracle(d):
    # the contraction with Phi^dagger Phi against one inverse simulation per Kraus
    # branch: Kraus rank d^2, seeded random channels, and one target unitary
    rng = np.random.default_rng(200 + d)
    u = random_unitary(rng, d)
    noisy = random_channel(rng, d, 5)
    cases = [ExperimentConfig(random_channel(rng, d, k), protocol="ancilla") for k in (1, 3, d)]
    cases += [ExperimentConfig(depolarizing(d, 0.9), protocol="ancilla"),
              ExperimentConfig(KrausChannel(d, tuple(a @ u for a in noisy.kraus)), protocol="ancilla",
                               target_unitary=u)]
    for cfg in cases:
        res = ancilla_entanglement_estimate(cfg)
        assert abs(res.p_hat - per_branch_p_zero(cfg.noise_channel())) <= 1e-15


def test_target_unitary_is_factored_out():
    rng = np.random.default_rng(5)
    d = 3
    noise = random_channel(rng, d)
    u = random_unitary(rng, d)
    implemented = KrausChannel(d, tuple(a @ u for a in noise.kraus))
    fam = family_for_dimension(d)
    with_u = mub_mc_estimate(ExperimentConfig(implemented, target_unitary=u), fam)
    plain = mub_mc_estimate(ExperimentConfig(noise), fam)
    assert abs(with_u.p_hat - plain.p_hat) < 1e-9
    assert abs(with_u.exact - plain.exact) < 1e-9


def test_mc_unbiased_over_repetitions():
    ch = depolarizing(3, 0.7)
    fam = family_for_dimension(3)
    exact = avg_fidelity_exact(np.eye(3), ch)
    reps = 100
    trials = 2000
    devs = []
    errs = []
    for seed in range(reps):
        res = mub_mc_estimate(ExperimentConfig(ch, trials=trials, seed=seed), fam)
        devs.append(res.p_hat - exact)
        errs.append(res.std_err)
    mean_dev = abs(float(np.mean(devs)))
    assert mean_dev < 4 * float(np.mean(errs)) / math.sqrt(reps)


def test_projected_identity_and_depolarizing():
    res = projected_estimate(ExperimentConfig(unitary_channel(np.eye(4, dtype=complex)), protocol="projected"))
    assert abs(res.fidelity - 1) < 1e-9
    res = projected_estimate(ExperimentConfig(depolarizing(4, 0.8), protocol="projected"))
    assert abs(res.fidelity - 0.85) < 1e-6
    assert abs(res.exact - 0.85) < 1e-12


def test_projected_random_channels_match_exact():
    rng = np.random.default_rng(11)
    for _ in range(3):
        ch = random_channel(rng, 4)
        res = projected_estimate(ExperimentConfig(ch, protocol="projected"))
        assert abs(res.fidelity - res.exact) < 1e-6


def test_projected_mc_mode():
    ch = depolarizing(4, 0.6)
    res = projected_estimate(ExperimentConfig(ch, protocol="projected", trials=200_000, seed=2))
    rescale = 5 * 6 / (4 * 5)
    assert abs(res.fidelity - res.exact) < 4 * res.std_err * rescale + 1e-12


def test_ancilla_identity_and_depolarizing():
    res = ancilla_entanglement_estimate(
        ExperimentConfig(unitary_channel(np.eye(4, dtype=complex)), protocol="ancilla")
    )
    assert abs(res.p_hat - 1) < 1e-12
    res = ancilla_entanglement_estimate(ExperimentConfig(depolarizing(4, 0.9), protocol="ancilla"))
    assert abs(res.p_hat - 0.90625) < 1e-9
    assert abs(res.fidelity - 0.925) < 1e-9


def test_ancilla_matches_formula_for_random_channels():
    rng = np.random.default_rng(13)
    for d in (2, 4):
        for _ in range(3):
            ch = random_channel(rng, d)
            res = ancilla_entanglement_estimate(ExperimentConfig(ch, protocol="ancilla"))
            assert abs(res.p_hat - entanglement_fidelity(ch)) < 1e-9
            assert abs(res.exact - res.p_hat) < 1e-9


def test_run_protocol_dispatch_and_json():
    res = run_protocol(ExperimentConfig(depolarizing(2, 0.5), protocol="ancilla"))
    payload = json.loads(res.to_json())
    assert set(payload) == {"protocol", "d", "trials", "seed", "p_hat", "std_err", "exact", "fidelity"}
    res2 = run_protocol(ExperimentConfig(depolarizing(3, 0.5), protocol="mub_exact"))
    assert abs(res2.p_hat - res2.exact) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(depolarizing(2, 0.5), protocol="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(depolarizing(2, 0.5), trials=-1)
    half = KrausChannel(2, (np.eye(2, dtype=complex) / 2,))
    with pytest.raises(ValueError):
        ExperimentConfig(half)
    with pytest.raises(ValueError):
        projected_estimate(ExperimentConfig(depolarizing(3, 0.5), protocol="projected"))
