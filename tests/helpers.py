"""Random draws and the reader of `emit_circuit`'s text, shared by the tests.

A module of its own, not conftest.py: perfbench/tests has a conftest.py too,
and `from conftest import ...` would find that one when both trees are collected
in one run.
"""

import numpy as np

from qdesigns.circuits import Circuit, Gate
from qdesigns.linalg import hermitian_eig, random_complex_matrix


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = random_complex_matrix(rng, d)
    return (g + g.conj().T) / 2


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random unitary from the eigenvectors of a random Hermitian matrix,
    with random eigenphases."""
    _, v = hermitian_eig(random_hermitian(rng, d))
    phases = np.exp(2j * np.pi * rng.random(d))
    return v * phases


def parse_circuit(text: str) -> Circuit:
    """Read back the text of `emit_circuit`: a `CIRCUIT n=<n> d=<d>` header,
    then `GATE <kind> targets=.. controls=.. param=<num>/<den>` lines."""
    header, *lines = text.splitlines()
    word, n, d = header.split()
    assert word == "CIRCUIT", header
    circuit = Circuit(n=int(n.removeprefix("n=")), d=int(d.removeprefix("d=")))
    for line in lines:
        word, kind, *tokens = line.split()
        assert word == "GATE" and [t.split("=")[0] for t in tokens] == ["targets", "controls", "param"], line
        targets, controls = (tuple(int(i) for i in t.split("=")[1].split(",") if i) for t in tokens[:2])
        num, den = tokens[2].removeprefix("param=").rsplit("/", 1)
        if kind == "PhaseVec":
            gate = Gate(kind, targets, controls, den=int(den), phases=tuple(int(x) for x in num.split(",")))
        else:
            gate = Gate(kind, targets, controls, num=int(num), den=int(den))
        circuit.append(gate)
    return circuit
