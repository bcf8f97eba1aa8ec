"""Mutually-unbiased bases, 2-designs, twirling, and fidelity estimation.

Submodules:
    finite_algebra  -- GF(p^k) and GR(4^m) arithmetic, traces, character sums
    linalg          -- dense complex vectors/matrices, random draws, eigensolver
    mub             -- complete MUB families and state 2-design checks
    circuits        -- gate-level circuits, statevector simulation, MUB preparation
    channels        -- Kraus/supermatrix/Choi channels and fidelity formulas
    twirl           -- Pauli/Clifford twirling and the randomized approximate twirl
    estimate        -- simulated fidelity-estimation protocols
    cli             -- command-line front end
"""

__version__ = "0.1.0"
