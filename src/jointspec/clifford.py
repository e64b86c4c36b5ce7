"""Irreducible Clifford representations Gamma_1..Gamma_d.

Built by the standard tensor-product recursion from the Pauli matrices:
d=1 -> {[[1]]}, d=2 -> {sx, sy}, d=3 -> {sx, sy, sz}, and
d -> d+2 via Gamma_j <- Gamma_j (x) sz, plus I (x) sx and I (x) sy.
The generator ordering is fixed so serialized results are reproducible.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedDimension

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

MAX_D = 8
VERIFY_TOL = 1e-14

__all__ = ["CliffordRep", "build_clifford", "verify_clifford", "flip_last_unitary",
           "PAULI_X", "PAULI_Y", "PAULI_Z"]


@dataclass(frozen=True)
class CliffordRep:
    """d Hermitian matrices with Gamma_j^2 = I and pairwise anticommutation."""

    d: int
    gammas: tuple = field(repr=False)

    @property
    def rep_dim(self) -> int:
        return self.gammas[0].shape[0]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(np.asarray(g, dtype=complex)
                                                 for g in self.gammas))


def build_clifford(d: int) -> CliffordRep:
    """Irreducible representation of dimension 2^ceil(d/2) for 1 <= d <= 8."""
    if not isinstance(d, (int, np.integer)) or not 1 <= d <= MAX_D:
        raise UnsupportedDimension(f"d must be an integer in [1, {MAX_D}], got {d!r}")
    if d == 1:
        gammas = [np.array([[1.0 + 0j]])]
    elif d == 2:
        gammas = [PAULI_X, PAULI_Y]
    elif d == 3:
        gammas = [PAULI_X, PAULI_Y, PAULI_Z]
    else:
        base = build_clifford(d - 2).gammas
        eye = np.eye(base[0].shape[0], dtype=complex)
        gammas = [np.kron(g, PAULI_Z) for g in base]
        gammas.append(np.kron(eye, PAULI_X))
        gammas.append(np.kron(eye, PAULI_Y))
    return CliffordRep(d=d, gammas=tuple(gammas))


def verify_clifford(rep: CliffordRep) -> bool:
    """True iff Hermiticity, squares and anticommutators all hold <= 1e-14."""
    gs = rep.gammas
    n = gs[0].shape[0]
    eye = np.eye(n)
    for g in gs:
        if (g.shape != (n, n) or np.abs(g - g.conj().T).max() > VERIFY_TOL
                or np.abs(g @ g - eye).max() > VERIFY_TOL):
            return False
    return not any(np.abs(a @ b + b @ a).max() > VERIFY_TOL
                   for a, b in itertools.combinations(gs, 2))


def flip_last_unitary(rep: CliffordRep) -> np.ndarray:
    """Unitary R with R Gamma_d R^dag = -Gamma_d and R Gamma_j R^dag = Gamma_j.

    Exists only for even d in the irreducible representation: R is the product
    Gamma_1 ... Gamma_{d-1} (an odd number of factors, each anticommuting with
    Gamma_d), phase-normalized so that R^2 = I.  For odd d the flipped family
    generates the inequivalent irreducible representation and no such unitary
    exists (the central element Gamma_1...Gamma_d changes sign).
    """
    if rep.d % 2 != 0:
        raise UnsupportedDimension(
            "flip-last unitary exists only for even d in the irreducible rep")
    r = functools.reduce(np.matmul, rep.gammas[:-1])
    # (G1...G_{d-1})^2 = +-I; rotate the phase so R^2 = I exactly
    return r / np.sqrt((r @ r)[0, 0])
