"""The benchmark's workloads: fixed lists of `qdesigns` CLI invocations (ops),
the input files they read, and the check each op's output must pass.

Every `--seed` an op receives and the random channel file are derived from the
workload seed, so the same seed gives the same inputs.  WORKLOADS.md records
why each workload was chosen and which layers it loads.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EXACT_TOL = 1e-9  # |estimate - closed form| for the deterministic protocols
MC_SIGMAS = 6.0  # an MC estimate may miss its closed form by this many std_err
DESIGN_TOL = 1e-8  # the CLI's default --tol for `design`
MUB_TOL = 1e-9  # the CLI's default --tol for `mub` and `verify`

Check = Callable[[str, "bytes | None"], list]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its arguments, the file it writes with --out (if
    any), its expected exit code, and the check on (stdout, --out bytes)."""

    argv: tuple
    check: Check
    out: str | None = None
    exit_code: int = 0


@dataclass(frozen=True)
class Workload:
    ops: tuple
    files: dict = field(default_factory=dict)  # input file name -> text, written before the first pass


def check_op(op: Op, exit_code: int, stdout: str, out_bytes: bytes | None) -> list:
    """Problems with one op's result; an empty list means the op passed."""
    problems = []
    if exit_code != op.exit_code:
        problems.append(f"exit code {exit_code}, expected {op.exit_code}")
    if op.out is not None and out_bytes is None:
        problems.append(f"--out file {op.out} was not written")
        return problems
    try:
        problems.extend(op.check(stdout, out_bytes))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    return problems


# --- output parsers ----------------------------------------------------------

_FIELD = re.compile(r"(\w+)=(\S+)")


def _status_line(stdout: str) -> tuple:
    """('PASS' | 'FAIL', {key: value}) from the CLI's one-line text report."""
    line = stdout.strip()
    return line.split(" ", 1)[0], dict(_FIELD.findall(line))


def _close(name: str, got: float, want: float, tol: float) -> list:
    if not abs(got - want) <= tol:
        return [f"{name} = {got!r}, expected {want!r} within {tol:g}"]
    return []


def _at_most(name: str, got: float, bound: float) -> list:
    if not got <= bound:
        return [f"{name} = {got!r} above {bound!r}"]
    return []


# --- closed forms ------------------------------------------------------------

@dataclass(frozen=True)
class Fidelities:
    """Closed-form average gate fidelity and entanglement fidelity of a channel."""

    avg: float
    ent: float

    @staticmethod
    def depolarizing(d: int, p: float) -> "Fidelities":
        return Fidelities(p + (1 - p) / d, p + (1 - p) / d**2)

    @staticmethod
    def of_kraus(kraus) -> "Fidelities":
        d = kraus[0].shape[0]
        tr2 = float(sum(abs(np.trace(a)) ** 2 for a in kraus))
        return Fidelities((tr2 + d) / (d * d + d), tr2 / d**2)


def random_channel(seed_seq: np.random.SeedSequence, d: int, rank: int) -> tuple:
    """A rank-`rank` channel from a Haar-like Stinespring isometry (QR of a
    complex Gaussian matrix); returns (channel JSON text, Kraus operators as
    read back from that text)."""
    rng = np.random.default_rng(seed_seq)
    g = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    v, _ = np.linalg.qr(g)
    text = json.dumps({
        "dim": d,
        "kraus": [[[float(z.real), float(z.imag)] for z in v[i * d:(i + 1) * d].ravel()]
                  for i in range(rank)],
    })
    kraus = [np.array([x + 1j * y for x, y in flat]).reshape(d, d)
             for flat in json.loads(text)["kraus"]]
    return text, kraus


# --- per-op checks -----------------------------------------------------------

def mub_check(d: int, kind: str | None = None) -> Check:
    """`mub` or `verify`: PASS for dimension d with both errors within tolerance;
    with `kind`, an --out export is checked for its header and line count."""

    def check(stdout, out):
        status, f = _status_line(stdout)
        problems = [] if status == "PASS" else [f"status {status}"]
        problems += _close("d", int(f["d"]), d, 0)
        problems += _at_most("max_orth_err", float(f["max_orth_err"]), MUB_TOL)
        problems += _at_most("max_unbias_err", float(f["max_unbias_err"]), MUB_TOL)
        if kind is not None and "kind" in f and f["kind"] != kind:
            problems.append(f"kind {f['kind']}, expected {kind}")
        if out is not None:
            lines = out.decode().splitlines()
            if lines[0] != f"MUB d={d} kind={kind}":
                problems.append(f"export header {lines[0]!r}")
            if len(lines) != 1 + d * (d + 1):
                problems.append(f"export has {len(lines) - 1} state lines, expected {d * (d + 1)}")
        return problems

    return check


def state_design_check(stdout, out):
    status, f = _status_line(stdout)
    problems = [] if status == "PASS" else [f"status {status}"]
    problems += _at_most("max_relative_deviation", float(f["max_relative_deviation"]), DESIGN_TOL)
    for k in (1, 2):
        problems += _at_most(f"angle_sum_error_k{k}", float(f[f"angle_sum_error_k{k}"]), EXACT_TOL)
    return problems


def unitary_design_check(is_2design: bool) -> Check:
    """Both sets are 1-designs; only the Cliffords are a 2-design."""

    def check(stdout, out):
        status, f = _status_line(stdout)
        problems = []
        if status != ("PASS" if is_2design else "FAIL"):
            problems.append(f"status {status}")
        dev2 = float(f["max_2design_deviation"])
        if (dev2 <= DESIGN_TOL) != is_2design:
            problems.append(f"max_2design_deviation = {dev2!r} on the wrong side of {DESIGN_TOL:g}")
        problems += _at_most("max_1design_deviation", float(f["max_1design_deviation"]), DESIGN_TOL)
        return problems

    return check


def channel_check(d: int, rank: int, want: Fidelities) -> Check:
    """`channel --json`: dimension, Kraus count, trace preservation and both
    fidelities against the closed form; an --out file must hold the channel."""

    def check(stdout, out):
        got = json.loads(stdout)
        problems = []
        problems += _close("dim", got["dim"], d, 0)
        problems += _close("kraus_count", got["kraus_count"], rank, 0)
        if got["trace_preserving"] is not True:
            problems.append("channel not trace preserving")
        problems += _close("avg_fidelity", got["avg_fidelity"], want.avg, EXACT_TOL)
        problems += _close("entanglement_fidelity", got["entanglement_fidelity"], want.ent, EXACT_TOL)
        if out is not None:
            written = json.loads(out)
            if written["dim"] != d or len(written["kraus"]) != rank:
                problems.append("channel JSON does not hold the channel")
        return problems

    return check


def estimate_check(protocol: str, d: int, want: Fidelities, trials: int = 0, seed: int | None = None) -> Check:
    """`estimate`: an exact run (trials 0) must hit its closed form within
    EXACT_TOL, an MC run within MC_SIGMAS standard errors.  The ancilla
    protocol estimates the entanglement fidelity in p_hat."""
    exact = want.ent if protocol == "ancilla" else want.avg
    key = "p_hat" if protocol == "ancilla" else "fidelity"

    def check(stdout, out):
        got = json.loads(stdout)
        problems = []
        problems += _close("d", got["d"], d, 0)
        problems += _close("trials", got["trials"], trials, 0)
        if got["protocol"] != protocol:
            problems.append(f"protocol {got['protocol']}")
        if seed is not None:
            problems += _close("seed", got["seed"], seed, 0)
        problems += _close("exact", got["exact"], exact, EXACT_TOL)
        if trials == 0:
            problems += _close(key, got[key], got["exact"], EXACT_TOL)
        else:
            if not got["std_err"] > 0:
                problems.append(f"std_err {got['std_err']!r} not positive")
            problems += _close(key, got[key], got["exact"], MC_SIGMAS * got["std_err"])
        return problems

    return check


def sweep_check(d: int, values: tuple) -> Check:
    """`estimate --sweep --out`: one CSV row per value, each within MC_SIGMAS
    standard errors of the depolarizing closed form."""

    def check(stdout, out):
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        problems = [] if not stdout.strip() else ["stdout not empty with --out"]
        if len(rows) != len(values):
            return problems + [f"{len(rows)} sweep rows, expected {len(values)}"]
        for value, row in zip(values, rows):
            problems += _close("depolarizing_p", float(row["depolarizing_p"]), value, 0)
            want = Fidelities.depolarizing(d, value).avg
            problems += _close(f"exact[{value}]", float(row["exact"]), want, EXACT_TOL)
            problems += _close(f"fidelity[{value}]", float(row["fidelity"]), want,
                               MC_SIGMAS * float(row["std_err"]))
        return problems

    return check


def twirl_check(n: int, k: int) -> Check:
    """`twirl --json --out`: final l1 within its bound, and a CSV with exactly k
    rows, each l1 within its row's bound."""

    def check(stdout, out):
        got = json.loads(stdout)
        problems = []
        problems += _close("n", got["n"], n, 0)
        problems += _close("k", got["k"], k, 0)
        problems += _at_most("l1", got["l1"], got["bound"])
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        if [int(r["k"]) for r in rows] != list(range(1, k + 1)):
            return problems + [f"CSV has rounds {[r['k'] for r in rows]}, expected 1..{k}"]
        for r in rows:
            problems += _at_most(f"l1[k={r['k']}]", float(r["l1"]), float(r["bound"]) + 1e-9)
        problems += _close("final l1", float(rows[-1]["l1"]), got["l1"], 0)
        return problems

    return check


# --- the workloads -----------------------------------------------------------

def _op(argv: str, check: Check, out: str | None = None, exit_code: int = 0) -> Op:
    return Op(tuple(argv.split()), check, out, exit_code)


def _mub_families(seeds, channel_seq) -> Workload:
    return Workload((
        _op("mub --qubits 6 --out q6.mub", mub_check(64, "galois_ring"), out="q6.mub"),
        _op("verify --family q6.mub", mub_check(64)),
        _op("mub --prime 61", mub_check(61, "prime")),
        _op("mub --prime-power 7 2", mub_check(49, "prime_power")),
        _op(f"design state --d 49 --rounds 5 --seed {seeds[0]}", state_design_check),
    ))


def _estimate_dense(seeds, channel_seq) -> Workload:
    dep = Fidelities.depolarizing(16, 0.9)
    text, kraus = random_channel(channel_seq, 16, 16)
    rand = Fidelities.of_kraus(kraus)
    return Workload((
        _op("channel --depolarizing 0.9 --d 16 --json --out dep16.json",
            channel_check(16, 256, dep), out="dep16.json"),
        _op("estimate --channel-json dep16.json --protocol mub_exact",
            estimate_check("mub_exact", 16, dep)),
        _op("channel --channel-json rand16.json --json", channel_check(16, 16, rand)),
        _op("estimate --channel-json rand16.json --protocol mub_exact",
            estimate_check("mub_exact", 16, rand)),
        _op("estimate --protocol projected --depolarizing 0.9 --d 16",
            estimate_check("projected", 16, dep)),
        _op("estimate --protocol ancilla --depolarizing 0.9 --d 16",
            estimate_check("ancilla", 16, dep)),
        _op(f"estimate --protocol mub_mc --depolarizing 0.9 --d 16 --trials 100000 --seed {seeds[0]}",
            estimate_check("mub_mc", 16, dep, 100000, seeds[0])),
    ), files={"rand16.json": text})


def _estimate_sampling(seeds, channel_seq) -> Workload:
    dep4 = Fidelities.depolarizing(4, 0.9)
    sweep = (0.5, 0.7, 0.9)
    return Workload((
        _op(f"estimate --protocol mub_mc --depolarizing 0.9 --d 4 --trials 10000000 --seed {seeds[0]}",
            estimate_check("mub_mc", 4, dep4, 10_000_000, seeds[0])),
        _op(f"estimate --protocol ancilla --depolarizing 0.9 --d 4 --trials 10000000 --seed {seeds[1]}",
            estimate_check("ancilla", 4, dep4, 10_000_000, seeds[1])),
        _op(f"estimate --d 2 --protocol mub_mc --sweep {','.join(map(str, sweep))} --trials 3000000 "
            f"--seed {seeds[2]} --out sweep.csv", sweep_check(2, sweep), out="sweep.csv"),
        _op(f"estimate --protocol mub_mc --noise bit_flip --p 0.8 --trials 10000000 --workers 2 --seed {seeds[3]}",
            estimate_check("mub_mc", 2, Fidelities((2 * 0.8 + 1) / 3, 0.8), 10_000_000, seeds[3])),
    ))


def _twirl_convergence(seeds, channel_seq) -> Workload:
    return Workload((
        _op(f"twirl --n 3 --k 15 --samples 100000 --seed {seeds[0]} --json --out c3.csv",
            twirl_check(3, 15), out="c3.csv"),
        _op("twirl --n 3 --k 12 --exact --json --out e3.csv", twirl_check(3, 12), out="e3.csv"),
        _op(f"design unitary --cliffords1q --seed {seeds[1]}", unitary_design_check(True)),
        # the Pauli group is a 1-design but not a 2-design: the check must fail
        _op(f"design unitary --paulis --n 3 --seed {seeds[2]}", unitary_design_check(False), exit_code=1),
    ))


_CONSTRUCTORS = {
    "mub_families": _mub_families,
    "estimate_dense": _estimate_dense,
    "estimate_sampling": _estimate_sampling,
    "twirl_convergence": _twirl_convergence,
}
NAMES = tuple(_CONSTRUCTORS)


def build(name: str, seed: int) -> Workload:
    """The workload `name` with every op seed and input file derived from `seed`."""
    op_seq, channel_seq = np.random.SeedSequence(seed).spawn(2)
    seeds = [int(s) for s in op_seq.generate_state(4) % 2**31]
    return _CONSTRUCTORS[name](seeds, channel_seq)
