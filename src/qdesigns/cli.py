"""Command-line front end: reproducible experiments with structured output.

Exit codes: 0 pass, 1 check failure, 2 usage/config error.  Every run with
the same flags and seed produces byte-identical output.  Config files (the
`estimate` subcommand) are flat `key=value` text; flags override file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Read once when OpenBLAS loads: idle workers sleep after ~2^20 cycles of spin, not ~2^28 (0.1 s of a core each).
if "GOTO_THREAD_TIMEOUT" not in os.environ:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

import numpy as np

from . import channels, circuits, estimate, mub, twirl
from .linalg import random_complex_matrix

__all__ = ["main"]


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _at_most_one(args, what: str, keys) -> None:
    """Reject a command line that gives more than one of the options `keys` (argparse dests)."""
    given = [f"--{key.replace('_', '-')}" for key in keys
             if (value := getattr(args, key, None)) is not None and value is not False]
    if len(given) > 1:
        raise ValueError(f"conflicting {what} {' and '.join(given)}: choose one")


def cmd_mub(args) -> int:
    _at_most_one(args, "families", ("prime", "prime_power", "qubits"))
    if args.prime is not None:
        family = mub.mub_prime(args.prime)
    elif args.prime_power is not None:
        p, k = args.prime_power
        family = mub.mub_prime_power(p, k)
    elif args.qubits is not None:
        family = mub.mub_galois_ring(args.qubits)
    else:
        raise ValueError("choose one of --prime, --prime-power, --qubits")
    report = mub.verify_unbiased(family, tol=args.tol)
    if args.out:
        mub.export_family(family, args.out)
    if args.json:
        print(_json_dump({
            "d": family.d,
            "kind": family.kind,
            "ok": report.ok,
            "max_orthonormality_error": report.max_orthonormality_error,
            "max_unbiasedness_error": report.max_unbiasedness_error,
        }))
    else:
        status = "PASS" if report.ok else "FAIL"
        print(f"{status} d={family.d} kind={family.kind} "
              f"max_orth_err={report.max_orthonormality_error:.3e} "
              f"max_unbias_err={report.max_unbiasedness_error:.3e}")
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    family = mub.load_family(args.family)
    report = mub.verify_unbiased(family, tol=args.tol)
    worst = report.worst_unbiasedness_pair if report.max_unbiasedness_error >= report.max_orthonormality_error else report.worst_orthonormality_pair
    if args.json:
        text = _json_dump({
            "d": family.d,
            "ok": report.ok,
            "max_orthonormality_error": report.max_orthonormality_error,
            "max_unbiasedness_error": report.max_unbiasedness_error,
            "worst_pair": list(map(list, worst)),
        })
    else:
        status = "PASS" if report.ok else "FAIL"
        text = (f"{status} d={family.d} max_orth_err={report.max_orthonormality_error:.3e} "
                f"max_unbias_err={report.max_unbiasedness_error:.3e} worst_pair={worst}")
    _write(text + "\n", args.out)
    return 0 if report.ok else 1


def cmd_design(args) -> int:
    if args.rounds < 1:
        raise ValueError(f"--rounds must be >= 1, got {args.rounds}")
    results = {}
    if args.which == "state":
        rng = np.random.default_rng(args.seed)
        family = mub.family_for_dimension(args.d)
        worst = 0.0
        for _ in range(args.rounds):
            m = random_complex_matrix(rng, family.d)
            n = random_complex_matrix(rng, family.d)
            got = mub.state_design_sum(family, m, n)
            want = np.trace(m @ n) + np.trace(m) * np.trace(n)
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
        results["max_relative_deviation"] = worst
        for k in (1, 2):
            want = 1 / family.d if k == 1 else 2 / (family.d * (family.d + 1))
            results[f"angle_sum_error_k{k}"] = abs(mub.t_design_angle_check(family, k) - want)
        ok = worst <= args.tol and all(
            results[f"angle_sum_error_k{k}"] <= 1e-9 for k in (1, 2)
        )
    else:
        _at_most_one(args, "unitary sets", ("cliffords1q", "paulis"))
        if args.cliffords1q:
            unitaries, power, label = twirl.clifford_group_1q(), 1, "cliffords1q"
        elif args.paulis:  # the n-qubit Paulis are the n-fold tensor power of the one-qubit set
            twirl._check_pauli_qudits(2, args.n)
            unitaries, power, label = twirl._pauli_stack(2, 1), args.n, "paulis"
        else:
            raise ValueError("choose --cliffords1q or --paulis")
        results["set"] = label
        # a t-design's frame potential is exactly its Haar value, 1 at t = 1 and 2 at t = 2
        results["max_2design_deviation"] = abs(twirl.frame_potential(unitaries, 2) ** power - 2)
        results["max_1design_deviation"] = abs(twirl.frame_potential(unitaries, 1) ** power - 1)
        ok = results["max_2design_deviation"] <= args.tol
    results["ok"] = ok
    if args.json:
        text = _json_dump(results)
    else:
        detail = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in results.items() if k != "ok")
        text = f"{'PASS' if ok else 'FAIL'} {detail}"
    _write(text + "\n", args.out)
    return 0 if ok else 1


def _make_channel(args) -> channels.KrausChannel:
    _at_most_one(args, "channel sources", ("channel_json", "depolarizing", "sweep", "noise"))
    if getattr(args, "channel_json", None) is not None:
        with open(args.channel_json) as fh:
            return channels.channel_from_json(fh.read())
    p_dep = getattr(args, "depolarizing", None)
    if p_dep is None:
        p_dep = getattr(args, "sweep", None)
    if p_dep is not None:
        if args.d is None:
            raise ValueError("--depolarizing needs --d")
        return channels.depolarizing(args.d, p_dep)
    if getattr(args, "noise", None):
        if args.p is None:
            raise ValueError("--noise needs --p")
        return channels.standard_noise(args.noise, args.p)
    raise ValueError("specify a channel: --channel-json, --depolarizing, or --noise")


def cmd_channel(args) -> int:
    ch = _make_channel(args)
    p, q = channels.invariant_decompose(ch)
    payload = {
        "dim": ch.dim,
        "kraus_count": len(ch.kraus),
        "trace_preserving": ch.trace_preserving,
        "avg_fidelity": channels.avg_fidelity_exact(np.eye(ch.dim), ch),
        "entanglement_fidelity": channels.entanglement_fidelity(ch),
        "invariant_p": float(np.real(p)),
        "invariant_q": float(np.real(q)),
    }
    if args.out:
        _write(channels.channel_to_json(ch), args.out)
    if args.json:
        print(_json_dump(payload))
    else:
        print(" ".join(f"{k}={v}" for k, v in payload.items()))
    return 0


def cmd_twirl(args) -> int:
    twirl._check_rounds(args.n, args.k)
    eps0 = twirl.epsilon0(args.n)
    rows = ["k,l1,bound"]
    ok = True
    if args.exact:
        for k, d_k in enumerate(twirl._exact_chain(args.n, args.k)[0][1:], start=1):
            bound = twirl.twirl_bound(args.n, k)
            rows.append(f"{k},{d_k!r},{bound!r}")
            ok = ok and d_k <= bound + 1e-9
            final_l1 = d_k
    else:
        rng = np.random.default_rng(args.seed)
        curve = twirl.mc_convergence_curve(args.n, args.k, args.samples, rng)
        for entry in curve:
            bound = twirl.twirl_bound(args.n, entry["k"])
            rows.append(f"{entry['k']},{entry['l1']!r},{bound!r}")
        final_l1 = curve[-1]["l1"]
        ok = final_l1 <= eps0 + 0.02
    _write("\n".join(rows) + "\n", args.out)
    if args.json:
        print(twirl.twirl_result_json(args.n, args.k, final_l1, twirl.twirl_bound(args.n, args.k)))
    return 0 if ok else 1


_CONFIG_KEYS = {
    "protocol": str,
    "trials": int,
    "seed": int,
    "workers": int,  # accepted for old config files and ignored
    "d": int,
    "depolarizing": float,
    "noise": str,
    "p": float,
    "channel_json": str,
}


def _load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {line_no}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"config line {line_no}: unknown key {key!r}")
            try:
                out[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ValueError(f"config line {line_no}: {key} needs {_CONFIG_KEYS[key].__name__}, "
                                 f"got {value!r}") from None
    return out


def cmd_estimate(args) -> int:
    if args.config:  # a flag overrides the file; ExperimentConfig holds the defaults
        for key, value in _load_config(args.config).items():
            if getattr(args, key) is None:
                setattr(args, key, value)
    sweep = None
    if args.sweep:
        if args.d is None:
            raise ValueError("--sweep needs --d")
        try:
            sweep = [float(tok) for tok in args.sweep.split(",")]
        except ValueError as exc:
            raise ValueError(f"--sweep takes comma-separated numbers: {exc}") from None
    sampling = {key: getattr(args, key) for key in ("protocol", "trials", "seed")
                if getattr(args, key) is not None}

    results = []
    for value in sweep or [None]:
        args.sweep = value  # each point is a depolarizing source of its own
        results.append(estimate.run_protocol(estimate.ExperimentConfig(_make_channel(args), **sampling)))
    if sweep:
        rows = [f"{v!r},{r.p_hat!r},{r.std_err!r},{r.exact!r},{r.fidelity!r}" for v, r in zip(sweep, results)]
        _write("\n".join(["depolarizing_p,p_hat,std_err,exact,fidelity", *rows]) + "\n", args.out)
    else:
        _write(results[0].to_json(), args.out)
    return 0


def cmd_emit(args) -> int:
    _at_most_one(args, "circuits", ("mub_circuit", "parity"))
    _at_most_one(args, "prime dimensions", ("p", "prime_power"))
    if args.mub_circuit:
        if args.prime_power is not None:
            p, k = args.prime_power
            circuit = circuits.build_mub_circuit_prime_power(p, k, args.a, args.b)
        else:
            if args.p is None:
                raise ValueError("--mub-circuit needs --p (or --prime-power)")
            n = args.n if args.n is not None else max((args.p - 1).bit_length() - 1, 1)
            circuit = circuits.build_mub_circuit_prime(args.p, n, args.a, args.b)
    elif args.parity is not None:
        qubits = [int(t) for t in args.parity.split(",")]
        circuit = circuits.parallel_prefix_parity(max(qubits) + 1, qubits[:-1], qubits[-1])
    else:
        raise ValueError("choose --mub-circuit or --parity")
    _write(circuits.emit_circuit(circuit), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdesigns",
        description="MUB state designs, Clifford twirling, and fidelity estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default=1e-8):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write primary artifact to this path")
        p.add_argument("--tol", type=float, default=tol_default)

    p = sub.add_parser("mub", help="build a MUB family and verify it")
    p.add_argument("--prime", type=int)
    p.add_argument("--prime-power", type=int, nargs=2, metavar=("P", "K"))
    p.add_argument("--qubits", type=int)
    common(p, tol_default=1e-9)
    p.set_defaults(func=cmd_mub)

    p = sub.add_parser("verify", help="verify a MUB family file")
    p.add_argument("--family", required=True)
    common(p, tol_default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("design", help="state/unitary 2-design checks")
    p.add_argument("which", choices=["state", "unitary"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--cliffords1q", action="store_true")
    p.add_argument("--paulis", action="store_true")
    common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("channel", help="inspect or generate a channel")
    p.add_argument("--channel-json")
    p.add_argument("--depolarizing", type=float,
                   help="identity weight p in rho -> p rho + (1-p) I/d; the "
                        "random-Pauli-rate convention is q = 1 - p")
    p.add_argument("--d", type=int)
    p.add_argument("--noise", choices=["bit_flip", "phase_flip", "bit_phase_flip"])
    p.add_argument("--p", type=float)
    common(p)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("twirl", help="approximate-twirl convergence study")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--samples", type=int, default=100_000)
    common(p)
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("estimate", help="run a fidelity-estimation protocol")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--protocol", choices=list(estimate.PROTOCOLS))
    p.add_argument("--trials", type=int)
    p.add_argument("--workers", type=int,
                   help="accepted and ignored: results depend only on (seed, trials)")
    p.add_argument("--channel-json")
    p.add_argument("--depolarizing", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--noise", choices=["bit_flip", "phase_flip", "bit_phase_flip"])
    p.add_argument("--p", type=float)
    p.add_argument("--sweep", help="comma-separated depolarizing parameters; CSV output")
    common(p)
    p.set_defaults(func=cmd_estimate, seed=None)

    p = sub.add_parser("emit", help="write a named circuit construction")
    p.add_argument("--mub-circuit", action="store_true")
    p.add_argument("--parity", help="comma-separated qubits, last one the target")
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=int, help="qubit count minus one (defaults to the minimal register for p)")
    p.add_argument("--prime-power", type=int, nargs=2, metavar=("P", "K"))
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_emit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RuntimeError) else 2  # RuntimeError: a numerical check failed


if __name__ == "__main__":
    sys.exit(main())
