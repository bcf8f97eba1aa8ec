"""Run one `qdesigns` CLI invocation with a span recorded around each call into
a layer, from outside the program.

Usage: python3 trace_child.py SPANS_JSON CLI_ARG...

Each wrapped function is replaced under every name through which a qdesigns
module looks it up (for example `simulate` both in `qdesigns.circuits` and as
imported into `qdesigns.estimate`).  A span is [name, start, end, parent index,
counts]; counts are computed from the call's arguments or return value.  Spans
stay in memory and are written to SPANS_JSON as JSON when the CLI returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time


class Recorder:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, start: float, end: float) -> None:
        with self._lock:
            self.spans.append([name, start, end, None, {}])

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span `name`; `count(result, *args, **kwargs)` gives
        the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = [name, start, end, parent, {}]
            if count is not None:
                self.spans[index][4] = count(result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# --- counts ------------------------------------------------------------------

def _states(family, *args, **kwargs):
    return {"mub.build.states": family.d * (family.d + 1)}


def _verify_pairs(report, family, *args, **kwargs):
    d = family.d
    return {"mub.verify_unbiased.pairs": (d + 1) * (d + 2) // 2 * d * d}


def _export_bytes(result, family, path, *args, **kwargs):
    return {"mub.export_family.bytes": os.path.getsize(path)}


def _load_bytes(family, path, *args, **kwargs):
    return {"mub.load_family.bytes": os.path.getsize(path)}


def _gram_bytes(result, family, *args, **kwargs):
    # computed: one complex128 N x N Gram matrix, N = d(d+1) states
    n = family.d * (family.d + 1)
    return {"mub.t_design_angle_check.gram_bytes": 16 * n * n}


def _kraus_rank(channel, *args, **kwargs):
    return {"channels.kraus_rank": len(channel.kraus)}


def _json_out_bytes(text, *args, **kwargs):
    return {"channels.json.bytes": len(text)}


def _json_in_bytes(channel, text, *args, **kwargs):
    return {"channels.json.bytes": len(text), "channels.kraus_rank": len(channel.kraus)}


def _gates(result, circuit, *args, **kwargs):
    gates = len(circuit.gates)
    # computed: each gate reads and writes the complex128 statevector once
    return {"circuits.gates_applied": gates,
            "circuits.simulate.amp_bytes": 2 * 16 * circuit.d**circuit.n * gates}


def _mub_mc_pairs(result, cfg, family, *args, **kwargs):
    return {"estimate.trials": result.trials_used,
            "estimate.state_kraus_pairs": family.d * (family.d + 1) * len(cfg.channel.kraus)}


def _projected_pairs(result, cfg, *args, **kwargs):
    from qdesigns.circuits import embedding_prime

    p = embedding_prime(cfg.channel.dim.bit_length() - 1)
    return {"estimate.trials": result.trials_used,
            "estimate.state_kraus_pairs": p * (p + 1) * len(cfg.channel.kraus),
            "circuits.projected.prep_states": p * (p + 1)}


def _trials(result, *args, **kwargs):
    return {"estimate.trials": result.trials_used}


def _mc_rounds(curve, n, k, samples, *args, **kwargs):
    return {"twirl.mc.sample_rounds": k * samples,
            "twirl.mc.step1_successes": samples * sum(e["step1_success"] for e in curve)}


# layer module -> {function name: (span name, count or None)}; every public
# function of qdesigns.linalg is wrapped as well, under the span name "linalg".
WRAPPED = {
    "mub": {
        "mub_prime": ("mub.build", _states),
        "mub_prime_power": ("mub.build", _states),
        "mub_galois_ring": ("mub.build", _states),
        "family_for_dimension": ("mub.build", None),
        "verify_unbiased": ("mub.verify_unbiased", _verify_pairs),
        "export_family": ("mub.export_family", _export_bytes),
        "load_family": ("mub.load_family", _load_bytes),
        "t_design_angle_check": ("mub.t_design_angle_check", _gram_bytes),
        "state_design_sum": ("mub.state_design_sum", None),
    },
    "channels": {
        "depolarizing": ("channels.depolarizing", _kraus_rank),
        "standard_noise": ("channels.standard_noise", _kraus_rank),
        "avg_fidelity_exact": ("channels.avg_fidelity_exact", None),
        "entanglement_fidelity": ("channels.entanglement_fidelity", None),
        "invariant_decompose": ("channels.invariant_decompose", None),
        "channel_to_json": ("channels.json", _json_out_bytes),
        "channel_from_json": ("channels.json", _json_in_bytes),
    },
    "circuits": {
        "simulate": ("circuits.simulate", _gates),
        "build_mub_circuit_prime": ("circuits.build_mub_circuit_prime", None),
        "projected_mub_prepare": ("circuits.projected_mub_prepare", None),
    },
    "estimate": {
        "mub_mc_estimate": ("estimate.mub_mc_estimate", _mub_mc_pairs),
        "projected_estimate": ("estimate.projected_estimate", _projected_pairs),
        "ancilla_entanglement_estimate": ("estimate.ancilla_entanglement_estimate", _trials),
    },
    "twirl": {
        "mc_convergence_curve": ("twirl.mc_convergence_curve", _mc_rounds),
        "markov_transition_matrix": ("twirl.markov_transition_matrix", None),
        "unitary_design_check": ("twirl.design_check", None),
        "unitary_1design_check": ("twirl.design_check", None),
        "clifford_group_1q": ("twirl.clifford_group_1q", None),
        "pauli_matrix": ("twirl.pauli_matrix", None),
    },
}


def install(recorder: Recorder) -> None:
    """Wrap each layer's boundary functions in every qdesigns namespace that
    binds them, and the finite-algebra context constructors on their classes."""
    from qdesigns import finite_algebra, linalg

    modules = [m for name, m in sys.modules.items() if name.startswith("qdesigns")]
    table = dict(WRAPPED)
    table["linalg"] = {
        name: ("linalg", None)
        for name, fn in vars(linalg).items()
        if inspect.isfunction(fn) and fn.__module__ == linalg.__name__ and not name.startswith("_")
    }
    for layer, functions in table.items():
        layer_module = importlib.import_module(f"qdesigns.{layer}")
        for fname, (span, count) in functions.items():
            original = getattr(layer_module, fname)
            traced = recorder.wrap(span, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
    for cls in (finite_algebra.GfContext, finite_algebra.GrContext):
        cls.__init__ = recorder.wrap(f"finite_algebra.{cls.__name__}", cls.__init__)


def main(argv: list) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    start = time.perf_counter()
    from qdesigns import cli

    recorder.add("cli.import", start, time.perf_counter())
    install(recorder)
    try:
        return recorder.wrap("cli.main", cli.main)(cli_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
