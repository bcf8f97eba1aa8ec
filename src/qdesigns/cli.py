"""Command-line front end: reproducible experiments with structured output.

Exit codes: 0 pass, 1 check failure, 2 usage/config error, each error one
`error:` line on stderr.  Each subcommand and mode accepts only the options it
reads.  Every run with the same flags and seed produces byte-identical output.
Config files (the `estimate` subcommand) are flat `key=value` text; flags
override file values.
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

__all__ = ["main"]

PAULI_QUBIT_CAP = 511  # F_2 of the n-qubit Paulis is 4^n, a finite double up to n = 511
EMIT_QUBIT_CAP = 64  # the register of `emit --parity` and of `emit --mub-circuit --p`


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _not_read(args, mode: str, keys) -> None:
    """Reject any option in `keys` (argparse dests, None unless given) that `mode` does not read."""
    for key in keys:
        if getattr(args, key) is not None:
            raise ValueError(f"--{key.replace('_', '-')} is not read with {mode}")


def cmd_mub(args) -> int:
    if args.prime is not None:
        family = mub.mub_prime(args.prime)
    elif args.prime_power is not None:
        family = mub.mub_prime_power(*args.prime_power)
    else:
        family = mub.mub_galois_ring(args.qubits)
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
    results = {}
    if args.which == "state":
        if args.rounds < 1:
            raise ValueError(f"--rounds must be >= 1, got {args.rounds}")
        family = mub.family_for_dimension(args.d)
        d = family.d
        sums = mub.t_design_angle_check(family, (1, 2))
        # the state frame potentials are exactly 1/d and 2/(d (d+1)) for a 2-design; np.max keeps a NaN
        results["max_relative_deviation"] = float(np.max(np.abs(np.multiply(sums, (d, d * (d + 1) / 2)) - 1)))
        for k, got, want in zip((1, 2), sums, (1 / d, 2 / (d * (d + 1)))):
            results[f"angle_sum_error_k{k}"] = abs(got - want)
        ok = results["max_relative_deviation"] <= args.tol
    else:
        if args.cliffords1q:
            _not_read(args, "--cliffords1q", ("n",))
            unitaries, power, label = twirl.clifford_group_1q(), 1, "cliffords1q"
        else:  # the n-qubit Paulis are the n-fold tensor power of the one-qubit set
            n = 1 if args.n is None else args.n
            if not 1 <= n <= PAULI_QUBIT_CAP:
                bound = "n >= 1" if n < 1 else f"n <= {PAULI_QUBIT_CAP}"
                raise ValueError(f"Pauli stack needs {bound} qudits, got {n}")
            unitaries, power, label = twirl._pauli_stack(2, 1), n, "paulis"
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


def _make_channel(args, sweep=None) -> channels.KrausChannel:
    """The channel of the one source given, as a flag or an `estimate --config` key;
    `sweep` is the current point of `estimate --sweep`, a depolarizing source of its own."""
    sources = {"--channel-json": args.channel_json, "--depolarizing": args.depolarizing,
               "--sweep": sweep, "--noise": args.noise}
    given = [flag for flag, value in sources.items() if value is not None]
    if len(given) > 1:
        raise ValueError(f"conflicting channel sources {' and '.join(given)}: choose one")
    if not given:
        raise ValueError("specify a channel: --channel-json, --depolarizing, or --noise")
    if args.channel_json is not None:
        _not_read(args, "--channel-json", ("d", "p"))
        with open(args.channel_json) as fh:
            return channels.channel_from_json(fh.read())
    if args.noise is not None:
        _not_read(args, "--noise", ("d",))
        if args.p is None:
            raise ValueError("--noise needs --p")
        return channels.standard_noise(args.noise, args.p)
    _not_read(args, given[0], ("p",))
    if args.d is None:
        raise ValueError(f"{given[0]} needs --d")
    return channels.depolarizing(args.d, sources[given[0]])


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
    if args.exact:
        _not_read(args, "--exact", ("samples", "seed"))
        l1 = twirl._exact_chain(args.n, args.k)[1:]
    else:
        samples = 100_000 if args.samples is None else args.samples
        curve = twirl.mc_convergence_curve(args.n, args.k, samples, np.random.default_rng(args.seed or 0))
        l1 = [entry["l1"] for entry in curve]
    bounds = [twirl.twirl_bound(args.n, k) for k in range(1, args.k + 1)]
    rows = [f"{k},{d_k!r},{bound!r}" for k, (d_k, bound) in enumerate(zip(l1, bounds), start=1)]
    _write("\n".join(["k,l1,bound", *rows]) + "\n", args.out)
    eps0 = twirl.epsilon0(args.n)
    # exact: every round within its bound; Monte Carlo: the last round within 0.02 of epsilon0
    ok = all(d_k <= bound + 1e-9 for d_k, bound in zip(l1, bounds)) if args.exact else l1[-1] <= eps0 + 0.02
    if args.json:
        print(_json_dump({"n": args.n, "k": args.k, "l1": l1[-1], "epsilon0": eps0, "bound": bounds[-1]}))
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
        try:
            sweep = [float(tok) for tok in args.sweep.split(",")]
        except ValueError as exc:
            raise ValueError(f"--sweep takes comma-separated numbers: {exc}") from None
    sampling = {key: getattr(args, key) for key in ("protocol", "trials", "seed")
                if getattr(args, key) is not None}

    results = [estimate.run_protocol(estimate.ExperimentConfig(_make_channel(args, value), **sampling))
               for value in sweep or [None]]
    if sweep:
        rows = [f"{v!r},{r.p_hat!r},{r.std_err!r},{r.exact!r},{r.fidelity!r}" for v, r in zip(sweep, results)]
        _write("\n".join(["depolarizing_p,p_hat,std_err,exact,fidelity", *rows]) + "\n", args.out)
    else:
        _write(results[0].to_json(), args.out)
    return 0


def _check_register(qubits: int) -> None:
    """Refuse a register past EMIT_QUBIT_CAP before any gate is built (the prime circuit has O(n^2) gates)."""
    if qubits > EMIT_QUBIT_CAP:
        raise ValueError(f"a register of {qubits} qubits exceeds the emit cap {EMIT_QUBIT_CAP}")


def cmd_emit(args) -> int:
    if args.parity is not None:
        _not_read(args, "--parity", ("p", "prime_power", "n", "a", "b"))
        try:
            qubits = [int(t) for t in args.parity.split(",")]
        except ValueError:
            raise ValueError(f"--parity takes comma-separated qubit indices, got {args.parity!r}") from None
        _check_register(max(qubits) + 1)
        circuit = circuits.parallel_prefix_parity(max(qubits) + 1, qubits[:-1], qubits[-1])
    elif args.prime_power is not None:
        _not_read(args, "--prime-power", ("n",))
        circuit = circuits.build_mub_circuit_prime_power(*args.prime_power, args.a or 0, args.b or 0)
    elif args.p is None:
        raise ValueError("--mub-circuit needs --p (or --prime-power)")
    else:
        n = args.n if args.n is not None else max((args.p - 1).bit_length() - 1, 1)
        _check_register(n + 1)
        circuit = circuits.build_mub_circuit_prime(args.p, n, args.a or 0, args.b or 0)
    _write(circuits.emit_circuit(circuit), args.out)
    return 0


class _UsageError(Exception):
    pass


def _at_least_zero(kind):
    """argparse type of an option whose value is a `kind` >= 0 (a NaN is not)."""
    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError here as "invalid <kind> value"
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reported by _parse as one line, as every other usage error: no usage block
        raise _UsageError(message)


def build_parser(required: bool = True) -> argparse.ArgumentParser:
    """One parser per subcommand and mode, declaring exactly the options its code reads.
    required=False makes every required option, group and subcommand optional."""
    parser = _Parser(prog="qdesigns", description="MUB state designs, Clifford twirling, and fidelity estimation")
    sub = parser.add_subparsers(dest="command", required=required)

    def add(subparsers, name, help, func, json=True, tol=None):
        p = subparsers.add_parser(name, help=help)
        p.add_argument("--out", help="write the primary artifact to this path")
        if json:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        if tol is not None:
            p.add_argument("--tol", type=_at_least_zero(float), default=tol)
        p.set_defaults(func=func)
        return p

    p = add(sub, "mub", "build a MUB family and verify it", cmd_mub, tol=1e-9)
    family = p.add_mutually_exclusive_group(required=required)
    family.add_argument("--prime", type=int)
    family.add_argument("--prime-power", type=int, nargs=2, metavar=("P", "K"))
    family.add_argument("--qubits", type=int)

    p = add(sub, "verify", "verify a MUB family file", cmd_verify, tol=1e-9)
    p.add_argument("--family", required=required)

    design = sub.add_parser("design", help="state/unitary 2-design checks").add_subparsers(dest="which", required=required)
    p = add(design, "state", "the MUB family as a state 2-design", cmd_design, tol=1e-8)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--rounds", type=int, default=20,
                   help="accepted for old command lines and not read, if >= 1: the check is exact")
    p.add_argument("--seed", type=_at_least_zero(int), default=0,
                   help="accepted for old command lines and not read, if >= 0: the check is exact")
    p = add(design, "unitary", "exact unitary 2-design check by frame potential", cmd_design, tol=1e-8)
    unitaries = p.add_mutually_exclusive_group(required=required)
    unitaries.add_argument("--cliffords1q", action="store_true")
    unitaries.add_argument("--paulis", action="store_true")
    p.add_argument("--n", type=int, help="qubits of --paulis (default 1)")
    p.add_argument("--seed", type=int, help="accepted for old command lines and not read: the check is exact")

    # channel and estimate share the channel-source options; estimate's own follow the loop
    for name, func, help in (("channel", cmd_channel, "inspect or generate a channel"),
                             ("estimate", cmd_estimate, "run a fidelity-estimation protocol")):
        p = add(sub, name, help, func, json=name == "channel")
        p.add_argument("--channel-json")
        p.add_argument("--depolarizing", type=float,
                       help="identity weight p in rho -> p rho + (1-p) I/d; the "
                            "random-Pauli-rate convention is q = 1 - p")
        p.add_argument("--d", type=int)
        p.add_argument("--noise", choices=["bit_flip", "phase_flip", "bit_phase_flip"])
        p.add_argument("--p", type=float)
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--protocol", choices=list(estimate.PROTOCOLS))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int,
                   help="accepted for old command lines and not read: results depend only on (seed, trials)")
    p.add_argument("--sweep", help="comma-separated depolarizing parameters; CSV output")

    p = add(sub, "twirl", "approximate-twirl convergence study", cmd_twirl)
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--samples", type=int, help="Monte-Carlo mode only (default 100000)")
    p.add_argument("--seed", type=_at_least_zero(int), help="Monte-Carlo mode only (default 0)")

    p = add(sub, "emit", "write a named circuit construction", cmd_emit, json=False)
    circuit = p.add_mutually_exclusive_group(required=required)
    circuit.add_argument("--mub-circuit", action="store_true")
    circuit.add_argument("--parity", help="comma-separated qubits, last one the target")
    prime = p.add_mutually_exclusive_group()
    prime.add_argument("--p", type=int)
    prime.add_argument("--prime-power", type=int, nargs=2, metavar=("P", "K"))
    p.add_argument("--n", type=int, help="with --p: qubit count minus one (defaults to the minimal register for p)")
    p.add_argument("--a", type=int, help="--mub-circuit only (default 0)")
    p.add_argument("--b", type=int, help="--mub-circuit only (default 0)")
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parsed arguments, or exit 2 with one error: line.  argparse checks
    required options before it reports unrecognized ones, so a failed parse is
    retried with nothing required, and an unrecognized option it finds is named."""
    try:
        return build_parser().parse_args(argv)
    except _UsageError as exc:
        message = str(exc)
    try:
        build_parser(required=False).parse_args(argv)
    except _UsageError as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RuntimeError) else 2  # RuntimeError: a numerical check failed


if __name__ == "__main__":
    sys.exit(main())
