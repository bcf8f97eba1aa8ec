"""Simulated average-fidelity estimation protocols.

All protocols factor the target unitary out of the channel first, so the
motion-reversal pair U U^dagger drops out and only the cumulative noise is
sampled.  Monte-Carlo runs are two-stage: the exact outcome probability of
each prepared state is computed once, then the trials are drawn through their
sufficient statistics -- a multinomial count of trials on each state and a
binomial number of successes among them.  This has exactly the law of
per-shot measurement simulation, and its cost depends on the number of
states, not on `trials`.  trials = 0 selects the deterministic average over
every state.

The counts and successes are drawn from one random stream seeded from the
experiment seed, so on a fixed build results depend only on (seed, trials);
the points of a sweep share the seed's per-state counts.  The binomial sampler
takes a variable number of uniforms per draw, so a last-ulp change in any
outcome probability can change every later draw, not just the last digit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .channels import (
    KrausChannel,
    avg_fidelity_exact,
    avg_from_entanglement,
    entanglement_fidelity,
)
from .circuits import Circuit, Gate, embedding_prime, projected_mub_states, simulate
from .mub import MubFamily, family_for_dimension

__all__ = [
    "ExperimentConfig",
    "EstimateResult",
    "mub_mc_estimate",
    "projected_estimate",
    "ancilla_entanglement_estimate",
    "run_protocol",
]

PROTOCOLS = ("mub_mc", "mub_exact", "projected", "ancilla")
_BRANCH_CHUNK = 256  # Kraus branches per simulate call in the ancilla protocol
_STATE_CHUNK = 512  # states per outcome-probability product; every d <= 16 run is one chunk


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One estimation experiment: the channel as implemented, the unitary it
    was meant to realize (identity for a plain channel), and sampling knobs.
    Compared by identity, as KrausChannel is."""

    channel: KrausChannel
    protocol: str = "mub_mc"
    trials: int = 0  # 0 = deterministic average over all states
    seed: int = 0
    target_unitary: np.ndarray | None = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.trials >= 2**63:  # the sampler counts trials in int64
            raise ValueError(f"trials must be < 2**63, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        if self.protocol == "mub_exact" and self.trials:
            raise ValueError(f"protocol mub_exact is the exact average and draws no trials: "
                             f"leave --trials out or give 0, got {self.trials}")
        if not self.channel.trace_preserving:
            raise ValueError("estimation requires a trace-preserving channel")

    def noise_channel(self) -> KrausChannel:
        if self.target_unitary is None:
            return self.channel
        return self.channel.compose_unitary_inverse(self.target_unitary)


@dataclass(frozen=True)
class EstimateResult:
    protocol: str
    d: int
    trials_used: int
    seed: int
    p_hat: float
    std_err: float
    exact: float
    fidelity: float

    def to_json(self) -> str:
        fields = asdict(self)
        fields["trials"] = fields.pop("trials_used")
        return json.dumps(fields, sort_keys=True)


def _pure_outcome_probs(states: np.ndarray, kraus) -> np.ndarray:
    """<psi|E(|psi><psi|)|psi> = sum_k |<psi|A_k|psi>|^2 for stacked states:
    <psi|A|psi> is the inner product of vec(A) with vec(conj(psi) psi^T).
    The states go _STATE_CHUNK at a time, so the (S, d^2) outer products and
    the (K, S) amplitudes stay small for d(d+1) states at large d."""
    d = states.shape[1]
    flat = np.reshape(kraus, (-1, d * d))
    probs = np.empty(len(states))
    for lo in range(0, len(states), _STATE_CHUNK):
        part = states[lo:lo + _STATE_CHUNK]
        outer = (part.conj()[:, :, None] * part[:, None, :]).reshape(len(part), d * d)
        probs[lo:lo + len(part)] = (np.abs(flat @ outer.T) ** 2).sum(axis=0)  # amplitudes (K, chunk)
    return probs


def _bernoulli_mean(
    probs: np.ndarray, weights: np.ndarray | None, trials: int, seed: int
) -> tuple[float, float]:
    """Sample `trials` uniform states and weighted Bernoulli outcomes through
    the per-state trial counts and successes; return (mean, stderr of the
    mean).  One stream seeded from `seed`; cost grows with probs.size only."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    counts = rng.multinomial(trials, np.full(probs.size, 1 / probs.size))
    hits = rng.binomial(counts, np.clip(probs, 0.0, 1.0))
    w = np.ones(probs.size) if weights is None else weights
    mean = float(w @ hits) / trials
    var = max(float(w**2 @ hits) / trials - mean**2, 0.0)
    return mean, math.sqrt(var / trials)


def _result(cfg: ExperimentConfig, d: int, probs: np.ndarray, weights: np.ndarray | None,
            exact: float, to_fidelity) -> EstimateResult:
    """Every protocol's last step: the weighted mean of the per-state outcome
    probabilities, exact when trials = 0 and sampled otherwise; to_fidelity
    maps that mean to F_avg."""
    if cfg.trials == 0:
        trials, err = 0, 0.0
        p_hat = float(probs.mean() if weights is None else (weights * probs).mean())
    else:
        trials = cfg.trials
        p_hat, err = _bernoulli_mean(probs, weights, trials, cfg.seed)
    return EstimateResult(cfg.protocol, d, trials, cfg.seed, p_hat, err, exact, to_fidelity(p_hat))


def mub_mc_estimate(cfg: ExperimentConfig, family: MubFamily) -> EstimateResult:
    """Motion-reversal estimate over a complete MUB family.

    Each trial prepares a uniformly random family state, runs the noise, and
    measures back in the same basis; the success probability averaged over the
    d(d+1) states is exactly the average gate fidelity.
    """
    noise = cfg.noise_channel()
    d = noise.dim
    if family.d != d:
        raise ValueError(f"family dimension {family.d} != channel dimension {d}")
    probs = _pure_outcome_probs(family.all_states(), noise.kraus)
    return _result(cfg, d, probs, None, avg_fidelity_exact(np.eye(d), noise), lambda p: p)


def projected_estimate(cfg: ExperimentConfig) -> EstimateResult:
    """Prime-embedding variant for d = 2^N: states are the renormalized
    projections of the dimension-p MUB states prepared by the amplification
    circuit, outcomes weighted by the squared projection norm (so states that
    project to zero contribute weight zero), and the average rescaled by
    p(p+1)/(d(d+1))."""
    noise = cfg.noise_channel()
    d = noise.dim
    n_qubits = d.bit_length() - 1
    if 2**n_qubits != d:
        raise ValueError(f"projected protocol needs a power-of-two dimension, got {d}")
    p = embedding_prime(n_qubits)
    states = projected_mub_states(n_qubits)
    # squared projection norms: d/p for a < p, 1 for |b> with b < d, 0 beyond
    weights = np.concatenate([np.full(p * p, d / p), (np.arange(p) < d).astype(float)])
    probs = _pure_outcome_probs(states, noise.kraus)
    probs[weights == 0] = 1.0  # zero-projection states count as correct, with weight zero
    rescale = p * (p + 1) / (d * (d + 1))
    exact = avg_fidelity_exact(np.eye(d), noise)
    return _result(cfg, d, probs, weights**2, exact, lambda p_tilde: p_tilde * rescale)


def _bell_prep(n: int) -> Circuit:
    """2n-qubit circuit |0> -> maximally entangled state: ancillas are the n
    high qubits, the channel register the n low qubits."""
    c = Circuit(2 * n, 2)
    for q in range(n):
        c.append(Gate("H", (n + q,)))
        c.append(Gate("CNOT", (q,), (n + q,)))
    return c


def ancilla_entanglement_estimate(cfg: ExperimentConfig) -> EstimateResult:
    """Entanglement-fidelity protocol: Bell pairs with n ancillas, noise on
    the data half, inverse preparation, probability of all-zeros = F_e; the
    fidelity field carries the converted F_avg = (d F_e + 1)/(d + 1)."""
    noise = cfg.noise_channel()
    d = noise.dim
    n = d.bit_length() - 1
    if 2**n != d or n > 5:
        raise ValueError(f"ancilla protocol needs d = 2^n with n <= 5, got {d}")
    prep = _bell_prep(n)
    inv = prep.inverse()
    dim = d * d
    phi = simulate(prep, np.eye(dim, dtype=complex)[0])
    # row k is (I (x) A_k) |phi>; the rows are simulated _BRANCH_CHUNK at a time
    # so the stack of branch states stays small for Kraus rank d^2 at large d
    zero_amps = []
    for lo in range(0, len(noise.kraus), _BRANCH_CHUNK):
        part = noise.kraus[lo:lo + _BRANCH_CHUNK]
        branches = (phi.reshape(d, d) @ part.transpose(0, 2, 1)).reshape(len(part), dim)
        zero_amps.append(simulate(inv, branches)[:, 0])
    p_zero = float((np.abs(np.concatenate(zero_amps)) ** 2).sum())
    exact = entanglement_fidelity(noise)
    return _result(cfg, d, np.array([p_zero]), None, exact, lambda p: avg_from_entanglement(d, p))


def run_protocol(cfg: ExperimentConfig) -> EstimateResult:
    if cfg.protocol in ("mub_mc", "mub_exact"):
        return mub_mc_estimate(cfg, family_for_dimension(cfg.channel.dim))
    if cfg.protocol == "projected":
        return projected_estimate(cfg)
    return ancilla_entanglement_estimate(cfg)
