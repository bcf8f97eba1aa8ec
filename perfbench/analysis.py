"""Arithmetic on measurements: the tail-percentile rule, span self time and
the per-layer totals of a traced pass."""

from __future__ import annotations

from collections import defaultdict

# (name, unit, better).  Self times are seconds per pass; counts are per pass;
# "bytes_computed" marks byte counts computed from array sizes, not measured.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("finite_algebra.GfContext.self_s", "s", "lower"),
    ("finite_algebra.GfContext.calls", "count", "lower"),
    ("finite_algebra.GrContext.self_s", "s", "lower"),
    ("finite_algebra.GrContext.calls", "count", "lower"),
    ("mub.build.self_s", "s", "lower"),
    ("mub.build.states", "count", "lower"),
    ("mub.verify_unbiased.self_s", "s", "lower"),
    ("mub.verify_unbiased.pairs", "count", "lower"),
    ("mub.export_family.self_s", "s", "lower"),
    ("mub.export_family.bytes", "bytes", "lower"),
    ("mub.load_family.self_s", "s", "lower"),
    ("mub.load_family.bytes", "bytes", "lower"),
    ("mub.t_design_angle_check.self_s", "s", "lower"),
    ("mub.t_design_angle_check.gram_bytes", "bytes_computed", "lower"),
    ("mub.state_design_sum.self_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("linalg.calls", "count", "lower"),
    ("channels.depolarizing.self_s", "s", "lower"),
    ("channels.kraus_rank", "count", "lower"),
    ("channels.avg_fidelity_exact.self_s", "s", "lower"),
    ("channels.entanglement_fidelity.self_s", "s", "lower"),
    ("channels.invariant_decompose.self_s", "s", "lower"),
    ("channels.json.self_s", "s", "lower"),
    ("channels.json.bytes", "bytes", "lower"),
    ("circuits.simulate.self_s", "s", "lower"),
    ("circuits.simulate.calls", "count", "lower"),
    ("circuits.gates_applied", "count", "lower"),
    ("circuits.simulate.amp_bytes", "bytes_computed", "lower"),
    ("circuits.build_mub_circuit_prime.self_s", "s", "lower"),
    ("circuits.projected_mub_prepare.self_s", "s", "lower"),
    ("circuits.projected_mub_prepare.calls", "count", "lower"),
    ("circuits.projected.prep_yield", "ratio", "higher"),
    ("estimate.mub_mc_estimate.self_s", "s", "lower"),
    ("estimate.projected_estimate.self_s", "s", "lower"),
    ("estimate.ancilla_entanglement_estimate.self_s", "s", "lower"),
    ("estimate.state_kraus_pairs", "count", "lower"),
    ("estimate.trials", "count", "lower"),
    ("twirl.mc_convergence_curve.self_s", "s", "lower"),
    ("twirl.mc.sample_rounds", "count", "lower"),
    ("twirl.step1_success", "ratio", "higher"),
    ("twirl.markov_transition_matrix.self_s", "s", "lower"),
    ("twirl.design_check.self_s", "s", "lower"),
    ("twirl.clifford_group_1q.self_s", "s", "lower"),
    ("twirl.pauli_matrix.calls", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)

# Ratios of two per-pass totals: name -> (numerator, denominator).
RATIOS = {
    "circuits.projected.prep_yield": ("circuits.projected_mub_prepare.calls", "circuits.projected.prep_states"),
    "twirl.step1_success": ("twirl.mc.step1_successes", "twirl.mc.sample_rounds"),
}


def tail_percentile(samples, beyond: int = 10):
    """The highest percentile with at least `beyond` samples above it, as
    (percentile, value), or None when there are too few samples."""
    n = len(samples)
    if n <= beyond:
        return None
    rank = n - beyond  # 1-based rank of the value with `beyond` samples above it
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus the time its child spans
    cover.  A span is (name, start, end, parent index or None, counts)."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def op_totals(spans, wall: float) -> dict:
    """Per-span-name self time and calls, the summed counts, and the op wall
    time not covered by a top-level span, for one traced op."""
    totals = defaultdict(float)
    for (name, _, _, _, counts), own in zip(spans, self_times(spans)):
        totals[f"{name}.self_s"] += own
        totals[f"{name}.calls"] += 1
        for key, value in counts.items():
            totals[key] += value
    roots = sum(end - start for _, start, end, parent, _ in spans if parent is None)
    totals["unattributed_s"] += wall - roots
    return totals


def layer_metrics(totals: dict) -> dict:
    """The PER_LAYER values (except trace_overhead_s) from one pass's totals."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0
        elif name == "cli.import_s":
            out[name] = totals.get("cli.import.self_s", 0.0)
        elif name != "trace_overhead_s":
            out[name] = totals.get(name, 0.0)
    return out
