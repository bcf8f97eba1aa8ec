"""CLI subcommands: exit codes, determinism, and output formats."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdesigns.channels
import qdesigns.circuits
import qdesigns.cli
import qdesigns.finite_algebra
import qdesigns.mub
import qdesigns.twirl
from qdesigns.channels import avg_fidelity_exact, channel_to_json, depolarizing, standard_noise
from qdesigns.cli import _CONFIG_KEYS, _load_config, main
from qdesigns.circuits import simulate
from qdesigns.linalg import basis_state
from qdesigns.mub import load_family

from helpers import parse_circuit, sampled_state_design_deviation


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error that argparse raised
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mub_prime_pass(tmp_path, capsys):
    out = tmp_path / "f.mub"
    code, stdout, _ = run(capsys, ["mub", "--prime", "5", "--out", str(out)])
    assert code == 0
    assert stdout.startswith("PASS")
    fam = load_family(str(out))
    assert fam.d == 5


def test_mub_qubits_matches_published_family(tmp_path, capsys):
    out = tmp_path / "q2.mub"
    code, stdout, _ = run(capsys, ["mub", "--qubits", "2", "--out", str(out), "--json"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ok"] and payload["d"] == 4
    fam = load_family(str(out))
    assert np.abs(fam.states[1, 0] - np.array([1, -1, -1j, -1j]) / 2).max() < 1e-12


def test_mub_rejects_composite(capsys):
    code, _, err = run(capsys, ["mub", "--prime", "4"])
    assert code == 2
    assert "error" in err


def test_verify_subcommand_and_corruption(tmp_path, capsys):
    out = tmp_path / "f.mub"
    run(capsys, ["mub", "--prime", "3", "--out", str(out)])
    code, stdout, _ = run(capsys, ["verify", "--family", str(out)])
    assert code == 0 and stdout.startswith("PASS")
    lines = out.read_text().splitlines()
    broken = lines[1].split()
    broken[2:] = ["1.0", "0.0", "0.0", "0.0", "0.0", "0.0"]
    lines[1] = " ".join(broken)
    out.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, ["verify", "--family", str(out)])
    assert code == 1 and stdout.startswith("FAIL")


def _q2_export(tmp_path, capsys):
    out = tmp_path / "q2.mub"
    run(capsys, ["mub", "--qubits", "2", "--out", str(out)])
    return out, out.read_text().splitlines()


def test_verify_rejects_nan_amplitude_file(tmp_path, capsys):
    out, lines = _q2_export(tmp_path, capsys)
    parts = lines[3].split()
    parts[4] = "nan"
    lines[3] = " ".join(parts)
    out.write_text("\n".join(lines) + "\n")
    code, stdout, err = run(capsys, ["verify", "--family", str(out)])
    assert code == 2 and stdout == ""
    assert err.startswith("error: line 4:") and "all finite" in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_verify_fails_on_overflowing_overlaps(tmp_path, capsys):
    # finite amplitudes whose self-overlap is inf - inf = nan must not pass
    out, lines = _q2_export(tmp_path, capsys)
    lines[1] = "0 0 " + " ".join(["1e308"] * 8)
    out.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, ["verify", "--family", str(out)])
    assert code == 1
    assert stdout.startswith("FAIL") and "max_orth_err=inf" in stdout


@pytest.mark.parametrize("edit", [
    lambda ls: ls.__setitem__(1, "9" + ls[1][1:]),
    lambda ls: ls.__setitem__(5, "-1" + ls[5][1:]),
    lambda ls: ls.__setitem__(2, ls[1]),
    lambda ls: ls.__setitem__(0, "MUB d=0 kind=galois_ring"),
], ids=["a_too_large", "a_negative", "duplicate_pair", "d_zero"])
def test_verify_malformed_family_exit_code(tmp_path, capsys, edit):
    out, lines = _q2_export(tmp_path, capsys)
    edit(lines)
    out.write_text("\n".join(lines) + "\n")
    code, stdout, err = run(capsys, ["verify", "--family", str(out)])
    assert code == 2 and stdout == ""
    assert err.startswith("error: line ") and "Traceback" not in err


def test_design_state_pass(capsys):
    code, stdout, _ = run(capsys, ["design", "state", "--d", "9"])
    assert code == 0
    assert stdout.startswith("PASS")


@pytest.mark.parametrize("flags,line", [
    # max(|d S_1 - 1|, |d (d+1)/2 S_2 - 1|) of the angle sums S_k; --rounds and --seed are not read
    ("--d 49 --rounds 5 --seed 7",
     "PASS max_relative_deviation=4.441e-16 angle_sum_error_k1=3.469e-18 angle_sum_error_k2=3.253e-19"),
    ("--d 9", "PASS max_relative_deviation=8.882e-16 angle_sum_error_k1=2.776e-17 angle_sum_error_k2=2.082e-17"),
    ("--d 5", "PASS max_relative_deviation=6.661e-16 angle_sum_error_k1=5.551e-17 angle_sum_error_k2=4.163e-17"),
    ("--d 2 --json", '{"angle_sum_error_k1": 2.220446049250313e-16, "angle_sum_error_k2": 1.6653345369377348e-16, '
                     '"max_relative_deviation": 5.551115123125783e-16, "ok": true}'),
    ("--d 27 --rounds 2 --json", '{"angle_sum_error_k1": 0.0, "angle_sum_error_k2": 4.336808689942018e-19, '
                                 '"max_relative_deviation": 0.0, "ok": true}'),
    ("--d 61 --rounds 3 --json", '{"angle_sum_error_k1": 4.85722573273506e-17, "angle_sum_error_k2": 4.228388472693467e-18, '
                                 '"max_relative_deviation": 7.993605777301127e-15, "ok": true}'),
])
def test_design_state_outputs_are_pinned(capsys, flags, line):
    assert run(capsys, ["design", "state", *flags.split()]) == (0, line + "\n", "")


@pytest.mark.parametrize("d,rounds,seed,deviation", [
    # the deviations `design state --json` printed while it judged by this rule
    (49, 5, 7, 1.2842432336129498e-15), (9, 20, 0, 7.18636002117026e-15), (5, 20, 0, 1.262413009823643e-15),
    (2, 20, 0, 7.850462293418876e-16), (27, 2, 0, 7.534519590607032e-15), (61, 3, 0, 4.182872955364099e-15),
])
def test_sampled_state_design_oracle_is_the_old_rule(d, rounds, seed, deviation):
    assert sampled_state_design_deviation(qdesigns.mub.family_for_dimension(d), rounds, seed) == deviation


def _prime_powers(top):
    return [d for d in range(2, top + 1)
            if len({p for p in range(2, d + 1) if d % p == 0 and qdesigns.finite_algebra.is_prime(p)}) == 1]


# every prime power to 89, and the largest family: the angle walk takes 1-3 s at each d in 97..127
@pytest.mark.parametrize("d", [*_prime_powers(89), 128])
def test_design_state_verdict_is_the_sampled_oracles(capsys, d):
    code, stdout, _ = run(capsys, ["design", "state", "--d", str(d), "--json"])
    result = json.loads(stdout)
    sampled = sampled_state_design_deviation(qdesigns.mub.family_for_dimension(d), 5, 0)
    assert code == 0 and result["ok"] == (sampled <= 1e-8)
    assert result["max_relative_deviation"] <= 1e-13


def _perturbed_family(d, delta):
    """The family with state (3, 5) moved by delta g and renormalized, g a seeded complex Gaussian."""
    family = qdesigns.mub.family_for_dimension(d)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(d)
    g = g + 1j * rng.standard_normal(d)
    states = family.states.copy()
    states[3, 5] += delta * g
    states[3, 5] /= np.linalg.norm(states[3, 5])
    return qdesigns.mub.MubFamily(d=d, kind=family.kind, states=states)


@pytest.mark.parametrize("delta,code,deviation,sampled_ok", [
    (1e-3, 1, 7.281e-08, False),
    # the frame potential is least at a design, so it moves with delta^2: the sampled rule, linear in delta, fails
    (1e-4, 0, 7.275e-10, False),
    (0.0, 0, 4.441e-16, True),
])
def test_design_state_judges_a_perturbed_family_by_its_frame_potential(capsys, monkeypatch, delta, code,
                                                                      deviation, sampled_ok):
    family = _perturbed_family(49, delta)
    monkeypatch.setattr(qdesigns.mub, "family_for_dimension", lambda d: family)
    got, stdout, _ = run(capsys, ["design", "state", "--d", "49", "--json"])
    assert (got, f"{json.loads(stdout)['max_relative_deviation']:.3e}") == (code, f"{deviation:.3e}")
    assert (sampled_state_design_deviation(family, 5, 3) <= 1e-8) == sampled_ok


def test_design_state_leaves_numpy_random_unloaded():
    code = ("import runpy, sys\n"
            "sys.argv = ['qdesigns', 'design', 'state', '--d', '9']\n"
            "try:\n"
            "    runpy.run_module('qdesigns.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print('numpy.random' in sys.modules)\n")
    assert _blas_env_probe({}, code).endswith("\nFalse\n")


@pytest.mark.parametrize("argv", [
    "design state --d 5",
    "design state --d 4 --rounds 2 --json",
    "design unitary --cliffords1q --json",
    "verify --family {family}",
    "verify --family {family} --json",
])
def test_design_and_verify_write_their_report_to_out(tmp_path, capsys, argv):
    family = tmp_path / "q2.mub"
    run(capsys, ["mub", "--qubits", "2", "--out", str(family)])
    argv = argv.format(family=family).split()
    code, stdout, err = run(capsys, argv)
    assert code == 0 and stdout.count("\n") == 1
    report = tmp_path / "report.txt"
    assert run(capsys, [*argv, "--out", str(report)]) == (code, "", err)
    assert report.read_text() == stdout


@pytest.mark.parametrize("argv", [
    "mub --prime 5 --out {tmp}/f.mub",
    "mub --qubits 2",
    "verify --family {tmp}/q2.mub",
    "design state --d 9",
    "design unitary --cliffords1q",
    "design unitary --paulis --n 2",  # exits 1: a 1-design, not a 2-design
])
def test_check_text_line_says_what_its_json_says(tmp_path, capsys, argv):
    # PASS exactly when "ok", exit 0 exactly when "ok", and each text value its JSON
    # value: floats as %.3e, worst_pair as a tuple, two names shortened in the text
    run(capsys, ["mub", "--qubits", "2", "--out", str(tmp_path / "q2.mub")])
    argv = argv.format(tmp=tmp_path).split()
    text_code, text, _ = run(capsys, argv)
    json_code, payload, _ = run(capsys, [*argv, "--json"])
    report = json.loads(payload)
    ok = report.pop("ok")
    assert text_code == json_code == (0 if ok else 1)
    status, *pairs = re.split(r" (?=\w+=)", text.removesuffix("\n"))
    assert status == ("PASS" if ok else "FAIL")
    short = {"max_orthonormality_error": "max_orth_err", "max_unbiasedness_error": "max_unbias_err"}
    want = {short.get(k, k): f"{v:.3e}" if isinstance(v, float) else str(tuple(map(tuple, v)))
            if isinstance(v, list) else str(v) for k, v in report.items()}
    assert dict(pair.split("=", 1) for pair in pairs) == want


def test_design_unitary_cliffords_pass(capsys):
    code, stdout, _ = run(capsys, ["design", "unitary", "--cliffords1q", "--tol", "1e-10"])
    assert code == 0


def test_design_unitary_paulis_fail_but_1design(capsys):
    code, stdout, _ = run(capsys, ["design", "unitary", "--paulis", "--n", "1", "--json"])
    assert code == 1
    payload = json.loads(stdout)
    assert payload["max_2design_deviation"] == 2.0  # |F_2 - 2| with F_2 = 4
    assert payload["max_1design_deviation"] == 0.0


_CLIFFORDS_JSON = ('{"max_1design_deviation": 4.440892098500626e-16, "max_2design_deviation": 1.5543122344752192e-15, '
                   '"ok": true, "set": "cliffords1q"}')


@pytest.mark.parametrize("flags,code,line", [
    # |F_1^n - 1| and |F_2^n - 2| of the frame potential; --seed is accepted and not read
    ("--cliffords1q", 0, "PASS set=cliffords1q max_2design_deviation=1.554e-15 max_1design_deviation=4.441e-16"),
    ("--cliffords1q --json", 0, _CLIFFORDS_JSON),
    ("--cliffords1q --json --seed 5", 0, _CLIFFORDS_JSON),
    ("--cliffords1q --json --seed -1", 0, _CLIFFORDS_JSON),
    *((f"--paulis --n {n} --json", 1, f'{{"max_1design_deviation": 0.0, "max_2design_deviation": {dev2}, '
                                      '"ok": false, "set": "paulis"}')
      for n, dev2 in ((1, "2.0"), (3, "62.0"), (6, "4094.0"), (7, "16382.0"))),
])
def test_design_unitary_outputs_are_pinned(capsys, flags, code, line):
    assert run(capsys, ["design", "unitary", *flags.split()]) == (code, line + "\n", "")


def test_design_unitary_failed_clifford_closure_exits_1(monkeypatch, capsys):
    import qdesigns.twirl

    class PhaseGateIsIdentity:  # S = diag(1, 1j) built as I: the closure of {H} has 2 classes
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def diag(v):
            return np.eye(len(v))

    monkeypatch.setattr(qdesigns.twirl, "np", PhaseGateIsIdentity())
    code, stdout, err = run(capsys, ["design", "unitary", "--cliffords1q"])
    assert code == 1 and stdout == ""
    assert err == "error: closure of {H, S} gave 2 classes, expected 24\n"


@pytest.mark.parametrize("argv,message", [
    ("unitary --paulis --n 0", "Pauli stack needs n >= 1 qudits, got 0"),
    ("unitary --paulis --n 512", "Pauli stack needs n <= 511 qudits, got 512"),  # F_2 = 4^n overflows a double
    ("state --d 5 --rounds 0", "--rounds must be >= 1, got 0"),
])
def test_design_usage_errors_exit_2(capsys, monkeypatch, argv, message):
    def no_draws(*args):
        raise AssertionError("made a random generator before rejecting the flags")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    code, stdout, err = run(capsys, ["design", *argv.split()])
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


def test_channel_info_and_generation(tmp_path, capsys):
    out = tmp_path / "ch.json"
    code, stdout, _ = run(
        capsys, ["channel", "--depolarizing", "0.9", "--d", "2", "--json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(stdout)
    assert abs(payload["avg_fidelity"] - 0.95) < 1e-12
    assert abs(payload["entanglement_fidelity"] - 0.925) < 1e-12
    assert out.read_text() == channel_to_json(depolarizing(2, 0.9))
    code, stdout, _ = run(capsys, ["channel", "--channel-json", str(out), "--json"])
    assert code == 0
    assert abs(json.loads(stdout)["invariant_p"] - 0.9) < 1e-9


def test_depolarizing_outputs_are_pinned(tmp_path, capsys):
    # the Paulis come from an exponent table and the average fidelity from one
    # matrix-vector product; each printed value is within 3e-16 of its closed form
    out = tmp_path / "dep2.json"
    assert run(capsys, ["channel", "--depolarizing", "0.9", "--d", "2", "--out", str(out)])[0] == 0
    assert out.read_text() == (
        '{"dim": 2, "kraus": [[[0.9617692030835673, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.9617692030835673, 0.0]], [[0.15811388300841894, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[-0.15811388300841894, 1.9363366072701933e-17]], [[0.0, 0.0], [0.15811388300841894, 0.0], '
        '[0.15811388300841894, 0.0], [0.0, 0.0]], [[0.0, 0.0], '
        '[-0.15811388300841894, 1.9363366072701933e-17], [0.15811388300841894, 0.0], [0.0, 0.0]]]}'
    )
    assert run(capsys, ["channel", "--depolarizing", "0.9", "--d", "16", "--json"])[1] == (
        '{"avg_fidelity": 0.9062499999999997, "dim": 16, "entanglement_fidelity": 0.9003906249999999, '
        '"invariant_p": 0.8999999999999999, "invariant_q": 0.09999999999999987, "kraus_count": 256, '
        '"trace_preserving": true}\n'
    )
    assert run(capsys, ["channel", "--depolarizing", "0.5", "--d", "3", "--json"])[1] == (
        '{"avg_fidelity": 0.6666666666666666, "dim": 3, "entanglement_fidelity": 0.5555555555555557, '
        '"invariant_p": 0.5000000000000001, "invariant_q": 0.5000000000000001, "kraus_count": 9, '
        '"trace_preserving": true}\n'
    )
    argv = ["estimate", "--protocol", "mub_exact", "--depolarizing", "0.9", "--d", "16"]
    assert run(capsys, argv)[1] == (
        '{"d": 16, "exact": 0.9062499999999997, "fidelity": 0.90625, "p_hat": 0.90625, '
        '"protocol": "mub_exact", "seed": 0, "std_err": 0.0, "trials": 0}\n'
    )
    argv = ["estimate", "--protocol", "ancilla", "--depolarizing", "0.9", "--d", "4"]
    assert run(capsys, argv) == (0, (
        '{"d": 4, "exact": 0.9062500000000001, "fidelity": 0.9249999999999993, "p_hat": 0.9062499999999992, '
        '"protocol": "ancilla", "seed": 0, "std_err": 0.0, "trials": 0}\n'
    ), "")
    assert run(capsys, [*argv, "--trials", "20000", "--seed", "11"]) == (0, (
        '{"d": 4, "exact": 0.9062500000000001, "fidelity": 0.9226800000000001, "p_hat": 0.90335, '
        '"protocol": "ancilla", "seed": 11, "std_err": 0.002089363270233302, "trials": 20000}\n'
    ), "")
    out = tmp_path / "sweep.csv"
    argv = ["estimate", "--d", "2", "--protocol", "mub_mc", "--sweep", "0.5,0.7,0.9", "--trials", "3000",
            "--seed", "2", "--out", str(out)]
    assert run(capsys, argv) == (0, "", "")
    assert out.read_text() == (
        "depolarizing_p,p_hat,std_err,exact,fidelity\n"
        "0.5,0.7546666666666667,0.007855887153145912,0.75,0.7546666666666667\n"
        "0.7,0.8493333333333334,0.006531110733053559,0.85,0.8493333333333334\n"
        "0.9,0.9543333333333334,0.0038114398951149754,0.9500000000000001,0.9543333333333334\n"
    )


# the stacked preparation moved the last digits of the deterministic values;
# in Monte-Carlo mode an ulp-level change of one outcome probability can change
# how many uniforms a binomial draw consumes, so the later draws differ too
@pytest.mark.parametrize("flags,line", [
    ("--d 2",
     '{"d": 2, "exact": 0.9500000000000001, "fidelity": 0.9500000000000003, "p_hat": 0.47500000000000014, "protocol": "projected", "seed": 0, "std_err": 0.0, "trials": 0}'),
    ("--d 2 --trials 100000 --seed 3",
     '{"d": 2, "exact": 0.9500000000000001, "fidelity": 0.9506711111111109, "p_hat": 0.47533555555555546, "protocol": "projected", "seed": 3, "std_err": 0.0008528040082538473, "trials": 100000}'),
    ("--d 4",
     '{"d": 4, "exact": 0.925, "fidelity": 0.9250000000000004, "p_hat": 0.6166666666666669, "protocol": "projected", "seed": 0, "std_err": 0.0, "trials": 0}'),
    ("--d 4 --trials 100000 --seed 3",
     '{"d": 4, "exact": 0.925, "fidelity": 0.9244338000000001, "p_hat": 0.6162892000000001, "protocol": "projected", "seed": 3, "std_err": 0.0007643841309404582, "trials": 100000}'),
    ("--d 8",
     '{"d": 8, "exact": 0.9125000000000001, "fidelity": 0.9125000000000002, "p_hat": 0.49772727272727285, "protocol": "projected", "seed": 0, "std_err": 0.0, "trials": 0}'),
    ("--d 8 --trials 100000 --seed 3",
     '{"d": 8, "exact": 0.9125000000000001, "fidelity": 0.9114166666666667, "p_hat": 0.49713636363636365, "protocol": "projected", "seed": 3, "std_err": 0.000647383482782125, "trials": 100000}'),
    ("--d 16",
     '{"d": 16, "exact": 0.9062499999999997, "fidelity": 0.9062499999999998, "p_hat": 0.8055555555555554, "protocol": "projected", "seed": 0, "std_err": 0.0, "trials": 0}'),
    ("--d 16 --trials 100000 --seed 3",
     '{"d": 16, "exact": 0.9062499999999997, "fidelity": 0.9051730925605536, "p_hat": 0.8045983044982699, "protocol": "projected", "seed": 3, "std_err": 0.0008406808333866954, "trials": 100000}'),
    ("--d 32",
     '{"d": 32, "exact": 0.9031250000000006, "fidelity": 0.9031250000000005, "p_hat": 0.6783072546230444, "protocol": "projected", "seed": 0, "std_err": 0.0, "trials": 0}'),
    ("--d 32 --trials 100000 --seed 3",
     '{"d": 32, "exact": 0.9031250000000006, "fidelity": 0.9010543622031123, "p_hat": 0.6767520672023375, "protocol": "projected", "seed": 3, "std_err": 0.000730253597454277, "trials": 100000}'),
])
def test_projected_outputs_are_pinned(capsys, flags, line):
    argv = ["estimate", "--protocol", "projected", "--depolarizing", "0.9", *flags.split()]
    assert run(capsys, argv) == (0, line + "\n", "")


@pytest.mark.parametrize("text,message", [
    ('{"dim": 1, "kraus": [[[1, 0]], [[1, "x"]]]}', "Kraus entry 1 is not 1 pairs [re, im] of finite numbers"),
    ('{"dim": 2, "kraus": [[[1, 0], [0, 0], [0, 0]]]}', "Kraus entry 0 is not 4 pairs [re, im] of finite numbers"),
    ('{"dim": 1, "kraus": [[[1, NaN]]]}', "Kraus entry 0 is not 1 pairs [re, im] of finite numbers"),
    ('{"dim": 1}', 'channel JSON must be an object with keys "dim" and "kraus"'),
    ('{"kraus": [[[1, 0]]]}', 'channel JSON must be an object with keys "dim" and "kraus"'),
    ('{"dim": 65, "kraus": [[[1, 0]]]}', "channel dimension 65 outside 1..64 (d^2 is capped at 4096)"),
    ('{"dim": 2, "kraus": [[[1.0000001, 0], [0, 0], [0, 0], [1.0000001, 0]]]}',
     "Kraus operators fail the completeness check"),
])
def test_channel_malformed_json_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (["channel"], ["estimate", "--protocol", "mub_exact"]):
        code, stdout, err = run(capsys, [*argv, "--channel-json", str(path)])
        assert (code, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("d", ["300", "65", "0"])
def test_channel_dimension_cap_exits_2(capsys, monkeypatch, d):
    def no_paulis(d):
        raise AssertionError(f"built {d * d} Pauli operators past the cap")

    monkeypatch.setattr(qdesigns.channels, "generalized_paulis", no_paulis)
    code, stdout, err = run(capsys, ["channel", "--depolarizing", "0.9", "--d", d])
    assert (code, stdout) == (2, "")
    assert err == f"error: channel dimension {d} outside 1..64 (d^2 is capped at 4096)\n"


@pytest.mark.parametrize("argv,message", [
    ("mub --prime 131", "p = 131 exceeds the supported cap 127"),
    ("design state --d 131", "p = 131 exceeds the supported cap 127"),
    ("mub --prime-power 3 5", "p^k = 243 outside the supported range (k >= 1, p^k <= 128)"),
    ("design state --d 243", "p^k = 243 outside the supported range (k >= 1, p^k <= 128)"),
    ("mub --qubits 8", "qubit count n = 8 outside 1..7"),
    ("design state --d 256", "qubit count n = 8 outside 1..7"),
])
def test_family_caps_exit_2(capsys, no_numpy, argv, message):
    no_numpy(qdesigns.mub)
    code, stdout, err = run(capsys, argv.split())
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


def _refused(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} ran before the cap check")
    return fail


@pytest.mark.parametrize("argv,message", [
    ("mub --prime 2305843009213693951", "p = 2305843009213693951 exceeds the supported cap 127"),
    ("mub --prime-power 3 100000000", "p^k = 3^100000000 outside the supported range (k >= 1, p^k <= 128)"),
    ("mub --prime-power 2305843009213693951 1",
     "p^k = 2305843009213693951 outside the supported range (k >= 1, p^k <= 128)"),
    ("design state --d 100000000", "dimension 100000000 exceeds the 2^16 size cap"),
    ("emit --mub-circuit --prime-power 2305843009213693951 1", "p^k = 2305843009213693951 exceeds the 2^16 size cap"),
    ("emit --mub-circuit --prime-power 3 100000000", "p^k = 3^100000000 exceeds the 2^16 size cap"),
    ("emit --mub-circuit --p 2305843009213693951", "p = 2305843009213693951 exceeds the 2^16 size cap"),
    ("emit --mub-circuit --p 999999999989", "p = 999999999989 exceeds the 2^16 size cap"),
    ("emit --mub-circuit --p 5 --n 100000", "a register of 100001 qubits exceeds the emit cap 64"),
    ("emit --mub-circuit --p 5 --n 64", "a register of 65 qubits exceeds the emit cap 64"),
    ("emit --parity 0,99999999", "a register of 100000000 qubits exceeds the emit cap 64"),
    ("emit --parity 64,0", "a register of 65 qubits exceeds the emit cap 64"),
])
def test_size_and_register_caps_exit_2_before_any_primality_test_or_gate(capsys, monkeypatch, no_numpy, argv,
                                                                         message):
    for module in (qdesigns.mub, qdesigns.circuits, qdesigns.finite_algebra):
        monkeypatch.setattr(module, "is_prime", _refused("a primality test"))
        no_numpy(module)
    # circuits factors only through is_prime, whose trial division is finite_algebra's
    for module in (qdesigns.mub, qdesigns.finite_algebra):
        monkeypatch.setattr(module, "_prime_factors", _refused("a factorization"))
    monkeypatch.setattr(qdesigns.circuits, "Circuit", _refused("a circuit"))
    code, stdout, err = run(capsys, argv.split())
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,gates", [("emit --mub-circuit --p 5 --n 63", 2208), ("emit --parity 63,0", 1)])
def test_a_register_at_the_emit_cap_is_written(capsys, argv, gates):
    code, stdout, err = run(capsys, argv.split())
    circuit = parse_circuit(stdout)
    assert (code, err, circuit.n, circuit.gate_count) == (0, "", 64, gates)


# sha256 of `emit --mub-circuit --prime-power P K --a 1 --b 1` stdout, fixed when field products
# were tuple-polynomial loops; the companion-matrix rule must reproduce every byte
EMIT_PRIME_POWER_SHA256 = {
    (3, 9): "108221fa3b03c4dcdfa685c44831730cde5748239e432669d1d5b397dde54553",
    (7, 5): "ee2e11509cfe5bba713ad1dc348a1d2ef865f5fc2dcd138eecd34b1b7d814c3b",
    (251, 2): "853f642fd6f68993a066070b019924c128ceb2b769d30b3da0339e93efbd3508",
}


@pytest.mark.parametrize("p,k", EMIT_PRIME_POWER_SHA256)
def test_emit_prime_power_circuit_bytes_are_pinned(capsys, p, k):
    code, stdout, err = run(capsys, ["emit", "--mub-circuit", "--prime-power", str(p), str(k), "--a", "1", "--b", "1"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(stdout.encode()).hexdigest() == EMIT_PRIME_POWER_SHA256[p, k]


def test_exact_chain_cap_exits_2(capsys, no_numpy):
    no_numpy(qdesigns.twirl)
    code, stdout, err = run(capsys, ["twirl", "--n", "6", "--k", "2", "--exact"])
    assert (code, stdout, err) == (2, "", "error: exact chain capped at n <= 5\n")


def test_mc_samples_cap_exits_2(capsys, no_numpy):
    no_numpy(qdesigns.twirl)
    code, stdout, err = run(capsys, ["twirl", "--n", "3", "--k", "1", "--samples", "100000000000"])
    assert (code, stdout, err) == (
        2, "", "error: the Monte-Carlo twirl is capped at --samples <= 10000000, got 100000000000\n")


@pytest.mark.parametrize("mode", [["--samples", "10"], ["--exact"]])
def test_rounds_cap_exits_2(capsys, no_numpy, mode):
    no_numpy(qdesigns.twirl)
    code, stdout, err = run(capsys, ["twirl", "--n", "2", "--k", "1001", *mode])
    assert (code, stdout, err) == (2, "", "error: the twirl is capped at k <= 1000 rounds, got k = 1001\n")


@pytest.mark.parametrize("mode", [["--samples", "10"], ["--exact"]])
def test_rounds_cap_admits_a_thousand_rounds(tmp_path, capsys, mode):
    out = tmp_path / "c.csv"
    code, _, err = run(capsys, ["twirl", "--n", "2", "--k", "1000", *mode, "--out", str(out)])
    assert code in (0, 1) and err == ""
    assert len(out.read_text().splitlines()) == 1001


def test_channel_json_round_trip_through_the_cli(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, ["channel", "--depolarizing", "0.9", "--d", "4", "--out", str(a)])[0] == 0
    assert run(capsys, ["channel", "--channel-json", str(a), "--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_twirl_exact_csv(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code, stdout, _ = run(
        capsys, ["twirl", "--n", "2", "--k", "12", "--exact", "--out", str(out), "--json"]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "k,l1,bound"
    assert len(rows) == 13
    last = rows[-1].split(",")
    assert float(last[1]) <= float(last[2])
    payload = json.loads(stdout)
    assert payload["n"] == 2 and payload["k"] == 12
    assert abs(payload["epsilon0"] - 4 / 15) < 1e-12


@pytest.mark.xfail(strict=True, reason="the exact chain fails its own bound at n = 4: l1 1.241 > bound 1.125 "
                                      "at k = 1, from Z on the top qubit, which has no X part to fan in")
def test_twirl_exact_n4_meets_its_own_bound(capsys):
    assert run(capsys, ["twirl", "--n", "4", "--k", "1", "--exact"])[0] == 0


def test_twirl_mc_smoke(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, _, _ = run(
        capsys,
        ["twirl", "--n", "2", "--k", "6", "--samples", "20000", "--seed", "5", "--out", str(out)],
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 7


@pytest.mark.parametrize("flags", [
    "--n 2 --k 0 --samples 100",
    "--n 2 --k -1 --samples 100",
    "--n 2 --k 3 --samples 0",
    "--n 1 --k 3 --samples 100",
    "--n 0 --k 3 --samples 100",
    "--n 2 --k 0 --exact",
    "--n 1 --k 3 --exact",
    "--n 12 --k 1 --samples 10",
    "--n 2 --k 1001 --samples 10",
    "--n 2 --k 1001 --exact",
])
def test_twirl_usage_errors_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "c.csv"
    code, stdout, err = run(capsys, ["twirl", *flags.split(), "--json", "--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    ("estimate --protocol mub_exact --depolarizing 0.9 --d 2 --seed -1", "--seed must be >= 0, got -1"),
    ("estimate --protocol mub_mc --depolarizing 0.9 --d 2 --trials 5 --seed -1", "--seed must be >= 0, got -1"),
    ("estimate --config seed.cfg", "--seed must be >= 0, got -3"),
    ("twirl --n 2 --k 1 --seed -5", "argument --seed: must be >= 0, got -5"),
    ("design state --seed -1", "argument --seed: must be >= 0, got -1"),
])
def test_negative_seed_is_one_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.cfg").write_text("depolarizing = 0.9\nd = 2\nseed = -3\n")
    assert run(capsys, argv.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", ["mub --prime 3", "verify --family q2.mub", "design state --d 2 --rounds 1",
                                  "design unitary --cliffords1q"])
def test_tol_must_be_a_number_at_least_zero(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    run(capsys, ["mub", "--qubits", "1", "--out", "q2.mub"])
    for tol in ("nan", "-1", "-0.5"):
        assert run(capsys, [*argv.split(), "--tol", tol]) == (2, "", f"error: argument --tol: must be >= 0, got {tol}\n")
    assert run(capsys, [*argv.split(), "--tol", "x"]) == (2, "", "error: argument --tol: invalid float value: 'x'\n")
    assert run(capsys, [*argv.split(), "--tol", "0"])[0] in (0, 1)


def test_estimate_json_and_determinism(capsys):
    argv = ["estimate", "--protocol", "mub_mc", "--depolarizing", "0.9", "--d", "4",
            "--trials", "20000", "--seed", "11"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert abs(payload["exact"] - 0.925) < 1e-12
    assert abs(payload["p_hat"] - 0.925) < 5 * payload["std_err"]


def test_estimate_trials_beyond_int64_is_usage_error(capsys):
    code, stdout, err = run(capsys, ["estimate", "--protocol", "mub_mc", "--depolarizing", "0.9",
                                     "--d", "4", "--trials", str(10**19), "--seed", "1"])
    assert code == 2 and stdout == ""
    assert err == f"error: trials must be < 2**63, got {10**19}\n"


@pytest.mark.parametrize("d", [1, 3, 64])
def test_ancilla_dimension_outside_two_to_the_one_to_five_is_usage_error(capsys, d):
    code, stdout, err = run(capsys, ["estimate", "--protocol", "ancilla", "--depolarizing", "0.9", "--d", str(d)])
    assert (code, stdout, err) == (2, "", f"error: ancilla protocol needs d = 2^n with 1 <= n <= 5, got {d}\n")


def test_estimate_trillion_trials(capsys):
    # cost is independent of the trial count, so 1e12 trials run in memory of O(states)
    code, stdout, _ = run(capsys, ["estimate", "--protocol", "mub_mc", "--depolarizing", "0.9",
                                   "--d", "4", "--trials", str(10**12), "--seed", "1"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["trials"] == 10**12
    assert 0 < payload["std_err"] < 1e-6
    assert abs(payload["p_hat"] - payload["exact"]) < 6 * payload["std_err"]


def test_estimate_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("protocol = ancilla\ndepolarizing = 0.9\nd = 4\ntrials = 0\nseed = 3\n")
    code, out, _ = run(capsys, ["estimate", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(out)
    assert payload["protocol"] == "ancilla"
    assert abs(payload["p_hat"] - 0.90625) < 1e-9
    code, out, _ = run(capsys, ["estimate", "--config", str(cfg), "--protocol", "mub_exact"])
    payload = json.loads(out)
    assert payload["protocol"] == "mub_exact"
    # the file with two flags over it is the same run as its settings given as flags only
    merged = run(capsys, ["estimate", "--config", str(cfg), "--trials", "20000", "--d", "2"])
    flags = ["--protocol", "ancilla", "--depolarizing", "0.9", "--d", "2", "--trials", "20000", "--seed", "3"]
    assert merged == run(capsys, ["estimate", *flags])
    assert merged[0] == 0 and json.loads(merged[1])["trials"] == 20000


def test_estimate_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        ["estimate", "--d", "2", "--sweep", "0.5,0.9", "--protocol", "mub_exact", "--out", str(out)],
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("depolarizing_p")
    assert len(rows) == 3
    assert abs(float(rows[1].split(",")[4]) - 0.75) < 1e-9  # 0.5 + 0.5/2


@pytest.mark.parametrize("argv,named", [
    (["--channel-json", "rand.json", "--d", "2", "--sweep", "0.5,0.9"], ("--channel-json", "--sweep")),
    (["--noise", "bit_flip", "--p", "0.8", "--depolarizing", "0.5", "--d", "2"], ("--depolarizing", "--noise")),
    (["--channel-json", "rand.json", "--noise", "phase_flip", "--p", "0.3"], ("--channel-json", "--noise")),
])
def test_estimate_rejects_two_channel_sources(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rand.json").write_text(channel_to_json(depolarizing(2, 0.7)))
    code, out, err = run(capsys, ["estimate", *argv])
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in named)


def test_estimate_config_source_conflicts_with_flag_source(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("depolarizing = 0.9\nd = 2\nworkers = 4\n")
    assert run(capsys, ["estimate", "--config", str(cfg)])[0] == 0  # workers is accepted and ignored
    code, _, err = run(capsys, ["estimate", "--config", str(cfg), "--noise", "bit_flip", "--p", "0.8"])
    assert code == 2
    assert "--depolarizing" in err and "--noise" in err
    argv = ["channel", "--depolarizing", "0.9", "--d", "2", "--noise", "bit_flip", "--p", "0.8"]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "--depolarizing" in err and "--noise" in err


def test_estimate_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense line without equals\n")
    code, _, err = run(capsys, ["estimate", "--config", str(cfg)])
    assert code == 2
    assert "error" in err
    cfg.write_text("d = 2\ntrials = many\n")
    assert run(capsys, ["estimate", "--config", str(cfg)]) == (2, "", "error: config line 2: trials needs int, got 'many'\n")


def test_estimate_sweep_token_that_is_not_a_number_exits_2(capsys):
    code, stdout, err = run(capsys, ["estimate", "--sweep", "0.5,x", "--d", "2"])
    assert (code, stdout) == (2, "")
    assert err == "error: --sweep takes comma-separated numbers: could not convert string to float: 'x'\n"


_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126))  # printable ASCII, no line breaks
_CONFIG_VALUES = {
    str: _TEXT.filter(lambda v: v == v.strip()),
    int: st.integers(-(2**70), 2**70),
    float: st.floats(allow_nan=False),
}


@st.composite
def config_files(draw):
    """(settings dict, file text): every key once, in any order, as `key = value`
    with optional dashes and spacing, between comment and blank lines."""
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_KEYS)), unique=True))
    values = {key: draw(_CONFIG_VALUES[_CONFIG_KEYS[key]]) for key in keys}
    lines = []
    for key, value in values.items():
        lines += draw(st.lists(st.sampled_from(["", "   ", "# a comment", "  #x = 1", "\t"]), max_size=2))
        name = key.replace("_", "-") if draw(st.booleans()) else key
        pad = draw(st.sampled_from(["", " ", "  ", "\t"]))
        lines.append(f"{pad}{name}{pad}={pad}{value}{pad}")  # str of a float is its repr
    return values, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _untypable(key_type):
    def fails(text):
        try:
            key_type(text.strip())
        except ValueError:
            return True
        return False

    return _TEXT.filter(fails)


_NO_EQUALS = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="="))
_BAD_LINES = st.one_of(
    _NO_EQUALS.filter(lambda line: line.strip() and not line.strip().startswith("#")),
    st.tuples(_NO_EQUALS.filter(lambda k: not k.strip().startswith("#")), _TEXT)
    .filter(lambda kv: kv[0].strip().replace("-", "_") not in _CONFIG_KEYS)
    .map(lambda kv: f"{kv[0]}={kv[1]}"),
    st.sampled_from(sorted(k for k, t in _CONFIG_KEYS.items() if t is not str))
    .flatmap(lambda key: _untypable(_CONFIG_KEYS[key]).map(lambda v: f"{key} = {v}")),
)


@settings(max_examples=80, deadline=None)
@given(config_files())
def test_config_round_trip(case):
    values, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        assert _load_config(path) == values


@settings(max_examples=80, deadline=None)
@given(config_files(), _BAD_LINES, st.integers(0, 20))
def test_malformed_config_line_exits_2(case, bad_line, at):
    lines = case[1].splitlines()
    at = min(at, len(lines))
    lines.insert(at, bad_line)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
            code = main(["estimate", "--config", path])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(f"error: config line {at + 1}: ") and err.getvalue().count("\n") == 1


def test_emit_mub_circuit(tmp_path, capsys):
    out = tmp_path / "c.txt"
    code, _, _ = run(capsys, ["emit", "--mub-circuit", "--p", "5", "--n", "2",
                              "--a", "1", "--b", "2", "--out", str(out)])
    assert code == 0
    circuit = parse_circuit(out.read_text())
    state = simulate(circuit, basis_state(8, 0))
    from qdesigns.mub import mub_prime

    want = mub_prime(5).states[1, 2]
    proj = state[:5] / np.linalg.norm(state[:5])
    assert abs(np.vdot(proj, want)) > 1 - 1e-10


def test_emit_parity(capsys):
    code, stdout, _ = run(capsys, ["emit", "--parity", "0,1,2,3"])
    assert code == 0
    circuit = parse_circuit(stdout)
    assert all(g.kind == "CNOT" for g in circuit)


@pytest.mark.parametrize("qubits", ["0,,1", "0,x", ""])
def test_emit_parity_names_itself_on_a_bad_list(capsys, qubits):
    message = f"error: --parity takes comma-separated qubit indices, got {qubits!r}\n"
    assert run(capsys, ["emit", "--parity", qubits]) == (2, "", message)


@pytest.mark.parametrize("argv,message", [
    # argparse's mutually exclusive groups
    ("mub --prime 3 --prime-power 3 2", "argument --prime-power: not allowed with argument --prime"),
    ("mub --qubits 2 --prime 5", "argument --prime: not allowed with argument --qubits"),
    ("mub --prime 0 --qubits 2", "argument --qubits: not allowed with argument --prime"),
    ("design unitary --cliffords1q --paulis --n 2", "argument --paulis: not allowed with argument --cliffords1q"),
    ("emit --mub-circuit --p 5 --prime-power 3 2", "argument --prime-power: not allowed with argument --p"),
    ("emit --mub-circuit --p 5 --parity 0,1", "argument --parity: not allowed with argument --mub-circuit"),
    # the channel-source check, which also sees the keys of an `estimate --config` file
    ("channel --depolarizing 0.0 --d 2 --noise bit_flip --p 0.8",
     "conflicting channel sources --depolarizing and --noise: choose one"),
])
def test_conflicting_choices_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "artifact"
    assert run(capsys, [*argv.split(), "--out", str(out)]) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    ("estimate --noise bit_flip", "--noise needs --p"),
    ("estimate --depolarizing 0.9", "--depolarizing needs --d"),
    ("estimate --protocol mub_mc", "specify a channel: --channel-json, --depolarizing, or --noise"),
    ("emit --mub-circuit", "--mub-circuit needs --p (or --prime-power)"),
    ("emit --mub-circuit --p 5 --a 6", "basis label a = 6 outside 0..5"),
    ("emit --mub-circuit --prime-power 3 2 --b 9", "state label b = 9 outside 0..8"),
    ("design state --d 6", "no MUB construction for dimension 6 (not a prime power)"),
])
def test_missing_or_out_of_range_input_exits_2(capsys, argv, message):
    assert run(capsys, argv.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("kind", ["bit_flip", "phase_flip", "bit_phase_flip"])
def test_noise_source_is_the_standard_channel(tmp_path, capsys, kind):
    out = tmp_path / "noise.json"
    code, _, err = run(capsys, ["channel", "--noise", kind, "--p", "0.8", "--out", str(out)])
    assert (code, err) == (0, "")
    assert out.read_text() == channel_to_json(standard_noise(kind, 0.8))
    code, stdout, err = run(capsys, ["estimate", "--protocol", "mub_exact", "--noise", kind, "--p", "0.8"])
    assert (code, err) == (0, "")
    assert json.loads(stdout)["exact"] == avg_fidelity_exact(np.eye(2), standard_noise(kind, 0.8))


@pytest.mark.parametrize("argv,option", [
    ("design state --d 5 --paulis", "--paulis"),
    ("design unitary --cliffords1q --d 9", "--d"),
    ("design unitary --cliffords1q --rounds 2", "--rounds"),
    ("design unitary --cliffords1q --n 2", "--n"),
    ("emit --parity 0,1 --p 5", "--p"),
    ("emit --parity 0,1 --a 0", "--a"),
    ("emit --parity 0,1 --json", "--json"),
    ("emit --mub-circuit --prime-power 3 2 --n 4", "--n"),
    ("emit --mub-circuit --p 5 --seed 1", "--seed"),
    ("twirl --n 2 --k 2 --exact --samples 5", "--samples"),
    ("twirl --n 2 --k 2 --exact --seed 5", "--seed"),
    ("channel --depolarizing 0.9 --d 2 --tol 0 --seed 3", "--tol"),
    ("channel --noise bit_flip --p 0.8 --d 2", "--d"),
    ("estimate --protocol mub_exact --depolarizing 0.9 --d 2 --tol 0 --workers 9", "--tol"),
    ("estimate --depolarizing 0.9 --d 2 --json", "--json"),
    ("estimate --channel-json rand.json --p 0.5", "--p"),
    ("estimate --config noise.cfg", "--d"),  # a config key counts as given
    ("mub --prime 3 --seed 5", "--seed"),
    ("estimate --protocol mub_exact --depolarizing 0.9 --d 2 --trials 5000 --seed 9", "--trials"),
    ("estimate --config sampled.cfg --protocol mub_exact", "--trials"),  # checked after the file is merged
])
def test_unread_option_exits_2(tmp_path, capsys, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rand.json").write_text(channel_to_json(depolarizing(2, 0.7)))
    (tmp_path / "noise.cfg").write_text("noise = bit_flip\np = 0.8\nd = 2\n")
    (tmp_path / "sampled.cfg").write_text("depolarizing = 0.9\nd = 2\ntrials = 100\n")
    code, stdout, err = run(capsys, argv.split())
    assert (code, stdout, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: ") and option in err.split()  # the option itself, not a longer one


@pytest.mark.parametrize("argv", [
    "mub --bogus", "mub --prime x", "twirl --k 3", "estimate --protocol nope --d 2", "design sideways", "",
])
def test_argparse_errors_are_one_error_line(capsys, argv):
    code, stdout, err = run(capsys, argv.split())
    assert (code, stdout, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: ") and "usage" not in err


@pytest.mark.parametrize("argv", ["mub --bogus", "emit --bogus", "design unitary --bogus", "twirl --k 3 --bogus"])
def test_unrecognized_option_is_named_before_a_missing_one(capsys, argv):
    assert run(capsys, argv.split()) == (2, "", "error: unrecognized arguments: --bogus\n")


def test_every_name_the_benchmark_tracer_wraps_exists():
    """perfbench/trace_child.py looks each name up before the traced command runs;
    one missing name fails every op of a traced pass."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child", path)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    wanted = {(layer, name) for layer, names in trace_child.WRAPPED.items() for name in names}
    wanted |= {("circuits", "embedding_prime"), ("finite_algebra", "GfContext"), ("finite_algebra", "GrContext")}
    missing = [f"qdesigns.{layer}.{name}" for layer, name in sorted(wanted)
               if not callable(getattr(importlib.import_module(f"qdesigns.{layer}"), name, None))]
    assert missing == []


def _blas_env_probe(env_extra, code):
    """Run `code` in a fresh interpreter whose environment holds neither OpenBLAS
    timeout variable (importing the CLI here sets one) except those in `env_extra`."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")}
    src = os.path.dirname(os.path.dirname(qdesigns.cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**env, **env_extra},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_leaves_numpy_unloaded():
    assert _blas_env_probe({}, "import sys, qdesigns; print('numpy' in sys.modules)") == "False\n"


_AT_NUMPY_LOAD = """
import os, sys

class Probe:  # reports the variable at numpy's first import
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, Probe())
import qdesigns.cli
print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""


@pytest.mark.parametrize("env_extra,seen", [
    ({}, "20"),
    ({"OPENBLAS_THREAD_TIMEOUT": "7"}, "7"),
    ({"GOTO_THREAD_TIMEOUT": "7"}, "None"),
])
def test_cli_caps_openblas_spin_before_numpy_loads(env_extra, seen):
    assert _blas_env_probe(env_extra, _AT_NUMPY_LOAD) == f"{seen}\n{seen}\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mub", "--prime"])
    assert exc.value.code == 2


def test_check_failure_exit_code(monkeypatch, capsys):
    import qdesigns.estimate

    def fail(*args, **kwargs):
        raise RuntimeError("ancillas failed to return to |00>: residual 1.00e+00")

    monkeypatch.setattr(qdesigns.estimate, "projected_mub_states", fail)
    code, _, err = run(capsys, ["estimate", "--protocol", "projected", "--depolarizing", "0.9",
                                "--d", "2", "--trials", "0"])
    assert code == 1
    assert err.startswith("error:")
