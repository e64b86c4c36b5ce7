"""Extraction and characterization of localized states.

The minimizing eigenvector of the quadratic composite at a probe (x..., E) is
an approximate joint eigenvector of the positions and the Hamiltonian.  This
module reports how it is distributed over lattice sites and over the energy
spectrum, and sweeps the position scale kappa to trade position localization
against energy localization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators
from .composites import (ObservableTuple, ProbePoint, _checked_probe,
                         minimizing_state)
from .errors import NumericalFailure
from .models import ScaledTuple, write_json
from .operators import (HermitianOperator, StateVector, expectation,
                        variance_sq)

__all__ = [
    "LocalizedStateReport",
    "extract_state",
    "check_identity",
    "kappa_sweep",
]

MARGINAL_TOL = 1e-10
IDENTITY_RTOL = 1e-8


@dataclass
class LocalizedStateReport:
    """Spatial and spectral portrait of one extracted state."""

    lam: ProbePoint
    kappa: float
    state: StateVector
    site_probabilities: np.ndarray
    energy_weights: list
    position_expectations: np.ndarray
    position_variances: np.ndarray
    energy_expectation: float
    energy_variance: float
    mu_q: float
    degenerate: bool
    energy_weights_exact: bool = True
    site_shape: Optional[tuple] = None

    def to_json(self, path) -> None:
        write_json({
            "lambda": self.lam.coords.tolist(),
            "kappa": self.kappa,
            "mu_q": self.mu_q,
            "degenerate": self.degenerate,
            "position_expectations": self.position_expectations.tolist(),
            "position_variances": self.position_variances.tolist(),
            "energy_expectation": self.energy_expectation,
            "energy_variance": self.energy_variance,
            "site_probabilities": self.site_probabilities.tolist(),
            "site_shape": list(self.site_shape) if self.site_shape else None,
            "energy_weights_exact": self.energy_weights_exact,
            "energy_weights": [[e, w] for e, w in self.energy_weights],
            "state_re": self.state.vec.real.tolist(),
            "state_im": self.state.vec.imag.tolist(),
        }, path)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k]) if v[k] != 0 else 1.0
    return v / phase


def _site_marginal(v: np.ndarray, orbitals: int) -> np.ndarray:
    p = (np.abs(v) ** 2).reshape(-1, orbitals).sum(axis=1)
    if abs(p.sum() - 1.0) > MARGINAL_TOL:
        raise NumericalFailure("site probabilities do not sum to 1",
                               details={"sum": float(p.sum())})
    return p


def _energy_weights(h: HermitianOperator, v: np.ndarray):
    """(eigenvalue, weight) pairs against the eigenbasis of H.

    Exact for H up to ``operators.DENSE_EIGEN_CUTOFF``; larger models get no
    pairs, and the report's ``energy_weights_exact`` flag is cleared (their
    energy mean and variance are still reported)."""
    if h.dim > operators.DENSE_EIGEN_CUTOFF:
        return [], False
    evals, evecs = np.linalg.eigh(h.dense())
    w = np.abs(evecs.conj().T @ v) ** 2
    if abs(w.sum() - 1.0) > MARGINAL_TOL:
        raise NumericalFailure("energy weights do not sum to 1",
                               details={"sum": float(w.sum())})
    return [(float(e), float(x)) for e, x in zip(evals, w)], True


def extract_state(t, lam, accuracy: float = 1e-9) -> LocalizedStateReport:
    """Minimizing state of the quadratic composite, with marginals.

    ``t`` is a ScaledTuple (probe given in unscaled position units) or a plain
    ObservableTuple, read at kappa = 1; either holds positions, then one H.
    Expectations and variances of the positions are reported in unscaled
    units.
    """
    t = t if isinstance(t, ScaledTuple) else ScaledTuple(t, 1.0)
    base, lam = t.base, _checked_probe(t.base, lam)
    h = base.hamiltonian
    state, degenerate, mu = minimizing_state(
        t.build(), t.scale_probe(lam.coords), accuracy=accuracy)
    v = _fix_phase(state.vec)
    state = StateVector(v, normalize=True)

    pos_exp = np.array([expectation(x, state) for x in base.positions])
    pos_var = np.array([variance_sq(x, state) for x in base.positions])
    e_exp = expectation(h, state)
    e_var = variance_sq(h, state)

    orbitals = int(base.meta.get("orbitals", 1))
    weights, exact = _energy_weights(h, v)
    shape = base.meta.get("shape")
    return LocalizedStateReport(
        lam=lam, kappa=t.kappa, state=state,
        site_probabilities=_site_marginal(v, orbitals),
        energy_weights=weights,
        position_expectations=pos_exp, position_variances=pos_var,
        energy_expectation=float(e_exp), energy_variance=float(e_var),
        mu_q=mu, degenerate=degenerate, energy_weights_exact=exact,
        site_shape=tuple(shape) if shape else None)


def check_identity(report: LocalizedStateReport, rtol: float = IDENTITY_RTOL) -> float:
    """Residual of the decomposition of mu_q^2 at the extracted state:

    sum_j kappa^2 (var_j + (exp_j - lam_j)^2) + var_E + (exp_E - E)^2 = mu_q^2.

    Returns the relative residual and raises NumericalFailure beyond rtol.
    """
    k2 = report.kappa ** 2
    lam = report.lam.coords
    d_pos = report.position_expectations.size
    total = report.energy_variance + (report.energy_expectation - lam[-1]) ** 2
    for j in range(d_pos):
        total += k2 * (report.position_variances[j]
                       + (report.position_expectations[j] - lam[j]) ** 2)
    ref = max(report.mu_q ** 2, 1e-300)
    resid = abs(total - report.mu_q ** 2) / ref
    if resid > rtol:
        raise NumericalFailure("extracted-state identity violated",
                               details={"residual": resid})
    return resid


def kappa_sweep(t: ObservableTuple, lam, kappas,
                accuracy: float = 1e-9) -> list:
    """One LocalizedStateReport per kappa, positions-only scaling.

    Each report is checked against the gap-decomposition identity before it
    is returned.
    """
    reports = []
    for kappa in np.atleast_1d(np.asarray(kappas, dtype=float)):
        rep = extract_state(ScaledTuple(t, float(kappa)), lam,
                            accuracy=accuracy)
        check_identity(rep)
        reports.append(rep)
    return reports
