"""Tests of the benchmark's own logic: the per-op checker, seeded inputs,
self-time arithmetic, the tail-percentile rule and BENCHMARK.json."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import analysis
import run
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# Outputs as the CLI prints them for the estimate_dense ops.
EXACT_OUT = ('{"d": 16, "exact": 0.9062499999999999, "fidelity": 0.90625, "p_hat": 0.90625, '
             '"protocol": "mub_exact", "seed": 0, "std_err": 0.0, "trials": 0}\n')


def _op(workload: str, prefix: str) -> workloads.Op:
    ops = workloads.build(workload, 0).ops
    return next(op for op in ops if " ".join(op.argv).startswith(prefix))


def _mc_out(seed: int) -> str:
    return ('{"d": 16, "exact": 0.9062499999999999, "fidelity": 0.90715, "p_hat": 0.90715, '
            f'"protocol": "mub_mc", "seed": {seed}, "std_err": 0.0009177629187322833, "trials": 100000}}\n')


def test_checker_accepts_correct_outputs():
    exact = _op("estimate_dense", "estimate --channel-json dep16.json")
    assert workloads.check_op(exact, 0, EXACT_OUT, None) == []
    mc = _op("estimate_dense", "estimate --protocol mub_mc")
    seed = int(mc.argv[mc.argv.index("--seed") + 1])
    assert workloads.check_op(mc, 0, _mc_out(seed), None) == []


@pytest.mark.parametrize("corrupted", ["0.90615", "0.90635", "0.91625", "0.80625"])
def test_checker_flags_one_changed_digit_of_fidelity(corrupted):
    exact = _op("estimate_dense", "estimate --channel-json dep16.json")
    bad = EXACT_OUT.replace('"fidelity": 0.90625', f'"fidelity": {corrupted}')
    assert bad != EXACT_OUT
    problems = workloads.check_op(exact, 0, bad, None)
    assert any("fidelity" in p for p in problems)


def test_checker_flags_an_mc_estimate_beyond_six_standard_errors():
    mc = _op("estimate_dense", "estimate --protocol mub_mc")
    seed = int(mc.argv[mc.argv.index("--seed") + 1])
    bad = _mc_out(seed).replace('"fidelity": 0.90715', '"fidelity": 0.91715')
    assert any("fidelity" in p for p in workloads.check_op(mc, 0, bad, None))


def test_checker_flags_a_wrong_exit_code():
    exact = _op("estimate_dense", "estimate --channel-json dep16.json")
    assert any("exit code" in p for p in workloads.check_op(exact, 1, EXACT_OUT, None))
    paulis = _op("twirl_convergence", "design unitary --paulis")
    out = "FAIL set=paulis max_2design_deviation=8.599e+00 max_1design_deviation=9.714e-17\n"
    assert workloads.check_op(paulis, 1, out, None) == []
    assert any("exit code" in p for p in workloads.check_op(paulis, 0, out, None))


def test_checker_flags_a_missing_or_short_out_file():
    twirl = _op("twirl_convergence", "twirl --n 3 --k 12 --exact")
    stdout = '{"bound": 0.12753441220238096, "epsilon0": 0.12698412698412698, "k": 12, "l1": 1e-06, "n": 3}\n'
    assert any("not written" in p for p in workloads.check_op(twirl, 0, stdout, None))
    rows = ["k,l1,bound"] + [f"{k},1e-06,0.2" for k in range(1, 12)]
    assert any("expected 1..12" in p for p in workloads.check_op(twirl, 0, stdout, "\n".join(rows).encode()))


def test_checker_reports_unparseable_output():
    exact = _op("estimate_dense", "estimate --channel-json dep16.json")
    assert any("unparseable" in p for p in workloads.check_op(exact, 0, "Traceback ...", None))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_are_derived_from_the_seed(name):
    a, b, other = workloads.build(name, 5), workloads.build(name, 5), workloads.build(name, 6)
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
    assert a.files == b.files
    if any("--seed" in op.argv for op in a.ops):
        assert [op.argv for op in a.ops] != [op.argv for op in other.ops]


def test_random_channel_is_a_seeded_trace_preserving_rank_16_channel():
    text, kraus = workloads.random_channel(np.random.SeedSequence(3), 16, 16)
    assert text == workloads.random_channel(np.random.SeedSequence(3), 16, 16)[0]
    assert len(kraus) == 16
    total = sum(a.conj().T @ a for a in kraus)
    assert np.abs(total - np.eye(16)).max() < 1e-12
    fid = workloads.Fidelities.of_kraus(kraus)
    assert math.isclose(fid.avg, (16 * fid.ent + 1) / 17, rel_tol=1e-12)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, {}],
        ["a", 1.0, 4.0, 0, {}],
        ["b", 3.0, 6.0, 0, {}],  # overlaps a: the union is counted once
        ["a.child", 2.0, 3.0, 1, {}],
        ["late", 8.0, 12.0, 0, {}],  # runs past its parent: clipped to it
        ["other_root", 20.0, 21.5, None, {}],
    ]
    assert analysis.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.5])


def test_op_totals_sums_self_time_counts_and_unattributed_time():
    spans = [
        ["cli.import", 0.0, 0.2, None, {}],
        ["cli.main", 0.3, 1.3, None, {}],
        ["circuits.simulate", 0.4, 0.6, 1, {"circuits.gates_applied": 5}],
        ["circuits.simulate", 0.7, 0.8, 1, {"circuits.gates_applied": 7}],
    ]
    totals = analysis.op_totals(spans, wall=1.5)
    assert totals["cli.main.self_s"] == pytest.approx(0.7)
    assert totals["circuits.simulate.self_s"] == pytest.approx(0.3)
    assert totals["circuits.simulate.calls"] == 2
    assert totals["circuits.gates_applied"] == 12
    assert totals["unattributed_s"] == pytest.approx(0.3)
    metrics = analysis.layer_metrics(totals)
    assert metrics["cli.import_s"] == pytest.approx(0.2)
    assert metrics["twirl.step1_success"] == 0.0  # no denominator on this pass


def test_tail_percentile_rule():
    rng = np.random.default_rng(0)
    samples = list(rng.permutation(np.arange(1, 101)))
    assert analysis.tail_percentile(samples) == (90.0, 90)
    assert analysis.tail_percentile(list(range(10))) is None
    pct, value = analysis.tail_percentile([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11])
    assert (round(pct, 2), value) == (9.09, 1)
    assert analysis.tail_percentile(list(range(40)), beyond=10) == (75.0, 29)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(analysis.PER_LAYER)
