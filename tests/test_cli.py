"""CLI subcommands: exit codes, determinism, and output formats."""

import json

import numpy as np
import pytest

from qdesigns.channels import channel_to_json, depolarizing
from qdesigns.cli import main
from qdesigns.circuits import parse_circuit, simulate
from qdesigns.linalg import basis_state
from qdesigns.mub import load_family


def run(capsys, argv):
    code = main(argv)
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


def test_design_unitary_cliffords_pass(capsys):
    code, stdout, _ = run(capsys, ["design", "unitary", "--cliffords1q", "--tol", "1e-10"])
    assert code == 0


def test_design_unitary_paulis_fail_but_1design(capsys):
    code, stdout, _ = run(capsys, ["design", "unitary", "--paulis", "--n", "1", "--json"])
    assert code == 1
    payload = json.loads(stdout)
    assert payload["max_2design_deviation"] > 1e-3
    assert payload["max_1design_deviation"] < 1e-10


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


def test_twirl_mc_smoke(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, _, _ = run(
        capsys,
        ["twirl", "--n", "2", "--k", "6", "--samples", "20000", "--seed", "5", "--out", str(out)],
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 7


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


def test_estimate_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense line without equals\n")
    code, _, err = run(capsys, ["estimate", "--config", str(cfg)])
    assert code == 2
    assert "error" in err


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mub", "--prime"])
    assert exc.value.code == 2


def test_check_failure_exit_code(monkeypatch, capsys):
    import qdesigns.estimate

    def fail(*args, **kwargs):
        raise RuntimeError("ancillas failed to return to |00>: residual 1.00e+00")

    monkeypatch.setattr(qdesigns.estimate, "projected_mub_prepare", fail)
    code, _, err = run(capsys, ["estimate", "--protocol", "projected", "--depolarizing", "0.9",
                                "--d", "2", "--trials", "0"])
    assert code == 1
    assert err.startswith("error:")
