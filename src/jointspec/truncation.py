"""Spatial truncation with certified error bounds.

Everything here works at probe zero: the caller shifts X_j by lambda_j (and H
by the energy coordinate) first, e.g. via ``shift_to_origin``.  The distance
operator Z = sqrt(sum X_j^2) measures how far each lattice site sits from the
probe; modifying the Hamiltonian far away perturbs the quadratic gap by at
most the factor (1 +- C)^(1/2), where C is a norm of the modification scaled
by Z^(-1) on both sides.  Zeroing the Hamiltonian outside a radius-rho ball
and compressing everything to the ball then gives a cheap gap evaluation with
a two-sided certificate for the full-system value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .composites import ObservableTuple, quadratic_gap, shifted_observables
from .errors import (CTooLarge, DimensionMismatch, EmptyBall,
                     ParameterOutOfRange, ZNotInvertible)
from .models import write_json
from .operators import (HermitianOperator, _is_sparse, operator_norm,
                        solves_densely)

__all__ = [
    "TruncationCertificate",
    "shift_to_origin",
    "distance_operator",
    "perturbation_constant",
    "modified_gap_bounds",
    "compress_to_ball",
    "truncated_gap",
]

Z_MIN = 1e-12


@dataclass
class TruncationCertificate:
    """Two-sided bound tying a modified/truncated gap to the full-system gap:
    ``lower`` = (1 - C)^(1/2) mu_full <= mu_truncated <= (1 + C)^(1/2) mu_full
    = ``upper``.  The upper bound holds for every C; the lower one is
    reported as 0 for C >= 1, and the two are 0 and inf without mu_full.
    """

    rho: Optional[float]
    C: float
    mu_truncated: float
    mu_full: Optional[float] = None

    @property
    def valid(self) -> bool:
        return self.C < 1.0

    @property
    def lower(self) -> float:
        return float(np.sqrt(max(0.0, 1.0 - self.C)) * (self.mu_full or 0.0))

    @property
    def upper(self) -> float:
        if self.mu_full is None:
            return np.inf
        return float(np.sqrt(1.0 + self.C) * self.mu_full)

    def full_gap_interval(self) -> tuple:
        """Certified interval for the untruncated gap, from the truncated value:
        mu_truncated / (1+C)^(1/2) <= mu_full <= mu_truncated / (1-C)^(1/2)."""
        lo = self.mu_truncated / np.sqrt(1.0 + self.C)
        hi = self.mu_truncated / np.sqrt(1.0 - self.C) if self.valid else np.inf
        return (float(lo), float(hi))

    def to_json(self, path) -> None:
        lo, hi = self.full_gap_interval()
        write_json({"rho": self.rho, "C": self.C, "valid": self.valid,
                    "mu_truncated": self.mu_truncated, "mu_full": self.mu_full,
                    "lower": self.lower,
                    "upper": None if np.isinf(self.upper) else self.upper,
                    "full_gap_interval": [lo, None if np.isinf(hi) else hi]},
                   path)


def shift_to_origin(t: ObservableTuple, lam) -> ObservableTuple:
    """Subtract lam_j from every observable, moving the probe to zero."""
    return ObservableTuple(shifted_observables(t, lam),
                           commuting_prefix=t.commuting_prefix, meta=t.meta)


def _position_block(t: ObservableTuple):
    if t.commuting_prefix < 1:
        raise ParameterOutOfRange("tuple has no commuting position block")
    return t.ops[:t.commuting_prefix]


def _diagonal_distances(t: ObservableTuple) -> np.ndarray:
    """Per-basis-vector Euclidean distance when the position block is diagonal."""
    total = np.zeros(t.dim)
    for o in _position_block(t):
        if not o.is_diagonal:
            raise ParameterOutOfRange(
                "ball compression requires diagonal position operators")
        total += o.diagonal().real ** 2
    return np.sqrt(total)


def distance_operator(t: ObservableTuple) -> HermitianOperator:
    """Z = sqrt(sum of squared position operators), checked invertible.

    The probe is assumed already shifted to the origin.  A vanishing diagonal
    entry means a site sits exactly on the probe; nudge the probe off-lattice
    (the gap moves by no more than the nudge) and retry.
    """
    ops = _position_block(t)
    if all(o.is_diagonal for o in ops):
        z = _diagonal_distances(t)
        if z.min() <= Z_MIN:
            raise ZNotInvertible(
                "a lattice site coincides with the probe; shift the probe by a "
                "small offset (the gap is 1-Lipschitz in the probe) and retry")
        diag = sp.diags(z).tocsr() if any(o.is_sparse for o in ops) else np.diag(z)
        return HermitianOperator(diag)
    acc = np.zeros((t.dim, t.dim), dtype=complex)
    for o in ops:
        m = o.dense()
        acc += m @ m
    vals, vecs = np.linalg.eigh(acc)
    if vals.min() <= Z_MIN ** 2:
        raise ZNotInvertible("the squared-distance operator is singular")
    return HermitianOperator((vecs * np.sqrt(vals)) @ vecs.conj().T)


def perturbation_constant(t: ObservableTuple, h: HermitianOperator,
                          h0: HermitianOperator) -> float:
    """C = || Z^(-1) (H H0 + H0 H + H0^2) Z^(-1) ||.

    Measures how large a Hamiltonian modification H0 is relative to the
    distance from the probe; C < 1 keeps the quadratic gap within the
    (1 +- C)^(1/2) sandwich.
    """
    if h.dim != t.dim or h0.dim != t.dim:
        raise DimensionMismatch("H and H0 must match the observable dimension")
    z = distance_operator(t)
    hm, h0m = h.mat, h0.mat
    mid = hm @ h0m + h0m @ hm + h0m @ h0m
    if z.is_diagonal:
        zinv = 1.0 / z.diagonal().real
        if _is_sparse(mid):
            mid = sp.diags(zinv) @ mid @ sp.diags(zinv)
        else:
            mid = mid * np.outer(zinv, zinv)
    else:
        zinv_mat = np.linalg.inv(z.dense())
        mid = zinv_mat @ (mid.toarray() if _is_sparse(mid) else mid) @ zinv_mat
    return float(operator_norm(mid))


def modified_gap_bounds(t: ObservableTuple, h0: HermitianOperator,
                        accuracy: float = 1e-9) -> TruncationCertificate:
    """Sandwich for the gap after adding H0 to the trailing Hamiltonian.

    With mu the unmodified quadratic gap at zero and C the perturbation
    constant: (1-C)^(1/2) mu <= mu_modified <= (1+C)^(1/2) mu.  C >= 1
    raises CTooLarge before either gap is solved.
    """
    if t.commuting_prefix != t.d_total - 1:
        raise ParameterOutOfRange(
            "expected a position block followed by one Hamiltonian")
    h = t.ops[-1]
    c = perturbation_constant(t, h, h0)
    if c >= 1.0:
        raise CTooLarge(
            f"perturbation constant C={c:.3g} >= 1: the sandwich is vacuous")
    mu = quadratic_gap(t, np.zeros(t.d_total), accuracy=accuracy)
    modified = ObservableTuple(
        list(t.ops[:-1]) + [HermitianOperator(h.mat + h0.mat)],
        commuting_prefix=t.commuting_prefix, meta=t.meta)
    mu_mod = quadratic_gap(modified, np.zeros(t.d_total), accuracy=accuracy)
    return TruncationCertificate(rho=None, C=c, mu_truncated=mu_mod,
                                 mu_full=mu)


def compress_to_ball(t: ObservableTuple, rho: float):
    """Restrict every operator to basis vectors within distance rho of the probe.

    Returns (compressed tuple, retained basis indices); requires the position
    block to be diagonal so the ball is a coordinate subspace.
    """
    if rho <= 0:
        raise ParameterOutOfRange("rho must be positive")
    z = _diagonal_distances(t)
    keep = np.flatnonzero(z <= rho)
    if keep.size == 0:
        raise EmptyBall(f"no basis vector lies within distance {rho} of the probe")
    ops = []
    for o in t.ops:
        sub = o.mat[np.ix_(keep, keep)]
        if o.is_sparse:
            sub = (sub.toarray() if solves_densely(keep.size, True)
                   else sub.tocsr())
        ops.append(HermitianOperator(sub))
    meta = dict(t.meta)
    meta["compressed_to_rho"] = float(rho)
    return (ObservableTuple(ops, commuting_prefix=t.commuting_prefix, meta=meta),
            keep)


def _far_field_zeroing(h, keep, dim):
    """H0 = -(H - P H P): cancels every entry of H touching the far field."""
    if _is_sparse(h.mat):
        proj = sp.diags(np.isin(np.arange(dim), keep).astype(float)).tocsr()
        h0 = (proj @ h.mat @ proj - h.mat).tocsr()
    else:
        mask = np.zeros(dim, dtype=bool)
        mask[keep] = True
        h0 = -np.array(h.mat)
        h0[np.ix_(mask, mask)] = 0.0
    return HermitianOperator(h0)


def truncated_gap(t: ObservableTuple, rho: float, accuracy: float = 1e-9,
                  mu_full: Optional[float] = None):
    """Quadratic gap at probe zero from the radius-rho ball alone.

    Zeroes the Hamiltonian's far-field coupling (certifying that step via the
    perturbation constant), compresses all operators to the ball, and returns
    min(rho, compressed gap) together with the certificate; the certificate's
    ``full_gap_interval`` brackets the untruncated gap whenever C < 1.
    """
    if t.commuting_prefix != t.d_total - 1:
        raise ParameterOutOfRange(
            "expected a position block followed by one Hamiltonian")
    h = t.ops[-1]
    # H + H0 = P H P equals H on the ball, so compressing t is compressing
    # the zeroed tuple
    compressed, keep = compress_to_ball(t, rho)
    c = perturbation_constant(t, h, _far_field_zeroing(h, keep, t.dim))
    mu_comp = quadratic_gap(compressed, np.zeros(t.d_total), accuracy=accuracy)
    value = float(min(rho, mu_comp))
    return value, TruncationCertificate(rho=float(rho), C=c,
                                        mu_truncated=value, mu_full=mu_full)
