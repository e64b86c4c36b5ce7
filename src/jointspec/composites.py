"""Composite operators and gap functions for tuples of observables.

The three composites of interest at a probe point lambda:

* tall stack  M_lam = [X_1 - lam_1; ...; X_d - lam_d]
* quadratic   Q_lam = sum_j (X_j - lam_j)^2           (same size as X_j)
* localizer   L_lam = sum_j (X_j - lam_j) (x) Gamma_j (Clifford-enlarged)

with the quadratic gap mu^Q = sigma_min(Q)^(1/2) = sigma_min(M) and the
Clifford (localizer) gap mu^C = sigma_min(L).  The probe is always an input,
never solved for.
"""

from __future__ import annotations

import contextlib
import functools
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .clifford import CliffordRep, build_clifford
from .errors import (
    ChiralSymmetryViolation,
    DimensionMismatch,
    InvalidOperator,
    NotRealMatrix,
    NumericalFailure,
    ParameterOutOfRange,
    RepMismatch,
    SymmetryHypothesisViolated,
)
from .operators import (
    HermitianOperator,
    StateVector,
    _is_sparse,
    _max_abs,
    eigenpair_nearest_zero,
    operator_norm,
    solves_densely,
)

COMMUTE_RTOL = 1e-12
#: clamp for tiny negative eigenvalues of the positive-semidefinite Q
NEGATIVE_EIG_TOL = 1e-10
GAP_KINDS = ("quadratic", "clifford")

_LOG = logging.getLogger("jointspec")

__all__ = [
    "ProbePoint",
    "ObservableTuple",
    "GapResult",
    "Pencil",
    "quadratic_pencil",
    "localizer_pencil",
    "shifted_observables",
    "gap_values",
    "tall_composite",
    "quadratic_operator",
    "localizer",
    "quadratic_gap",
    "clifford_gap",
    "gap_pair_with_bound",
    "commutator_bound",
    "commutator_bound_2d",
    "minimizing_state",
    "reduced_localizer",
    "determinant_sign_index",
    "verify_symmetry",
]


@dataclass(frozen=True)
class ProbePoint:
    """A probe lambda in R^d."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if not np.all(np.isfinite(c)):
            raise InvalidOperator("probe coordinates must be finite")
        object.__setattr__(self, "coords", c)

    @property
    def d(self) -> int:
        return self.coords.size


def _fro_norm(m) -> float:
    if _is_sparse(m):
        return float(np.sqrt((abs(m.data) ** 2).sum())) if m.nnz else 0.0
    return float(np.linalg.norm(m))


class ObservableTuple:
    """An ordered tuple (X_1, ..., X_d) of equal-size Hermitian observables.

    ``commuting_prefix`` marks how many leading operators mutually commute
    (the position block); this is verified at construction.  ``meta`` carries
    optional lattice bookkeeping (site count, orbitals per site, axis names).
    """

    __slots__ = ("ops", "commuting_prefix", "meta", "_pencils")

    def __init__(self, ops, commuting_prefix: int = 0, meta: Optional[dict] = None):
        ops = tuple(o if isinstance(o, HermitianOperator) else HermitianOperator(o)
                    for o in ops)
        if not ops:
            raise InvalidOperator("need at least one observable")
        dim = ops[0].dim
        for o in ops:
            if o.dim != dim:
                raise DimensionMismatch("all observables must share one dimension")
        if not 0 <= commuting_prefix <= len(ops):
            raise InvalidOperator("commuting_prefix out of range")
        for j in range(commuting_prefix):
            for k in range(j + 1, commuting_prefix):
                a, b = ops[j].mat, ops[k].mat
                comm = a @ b - b @ a
                tol = COMMUTE_RTOL * max(1.0, _fro_norm(a) * _fro_norm(b))
                if _max_abs(comm) > tol:
                    raise InvalidOperator(
                        f"operators {j} and {k} in the commuting prefix do not commute")
        self.ops = ops
        self.commuting_prefix = commuting_prefix
        self.meta = dict(meta or {})
        #: composite pencils, built on the first gap call
        self._pencils = {}

    @property
    def d_total(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    @property
    def is_sparse(self) -> bool:
        return any(o.is_sparse for o in self.ops)

    def __repr__(self):
        return (f"ObservableTuple(d={self.d_total}, dim={self.dim}, "
                f"commuting_prefix={self.commuting_prefix})")


class Pencil:
    """A composite operator as a function of the probe, built once per model.

    Its value at lam is an array over a fixed pattern (a flattened dense
    matrix, or the data of a CSC matrix):

        values(lam) = base + sum over terms of (x - lam_j) g  or  (x - lam_j)^2

    ``base`` is validated once, at construction.  A coordinate whose
    observable is diagonal (the position block of every built-in model)
    carries its diagonal as ``x``, so no cancellation occurs.  Any other
    coordinate has ``x = 0``: its linear term touches the entries of the
    composite as ``-lam_j g``, and the quadratic composite adds ``lam_j^2``
    on the diagonal.  Every call returns a matrix on fresh values; only the
    read-only pattern is shared between calls.
    """

    __slots__ = ("dim", "fmt", "_base", "_indices", "_indptr", "_terms")

    def __init__(self, dim, fmt, base, terms):
        """``fmt`` is "dense" or "csc"; ``base`` is a validated
        HermitianOperator in that format or None; ``terms`` holds
        ``(j, rows, cols, x, g)``, with ``g`` None for a square, in the
        order they are added."""
        self.dim, self.fmt = dim, fmt
        keys = [self._keys(rows, cols) for _, rows, cols, _, _ in terms]
        if fmt == "dense":
            self._indices = self._indptr = None
            self._base = (np.zeros(dim * dim, dtype=complex) if base is None
                          else np.ravel(base.dense()))
        else:
            if base is not None:
                rows, cols, vals = _coo(base.mat)
                keys.append(self._keys(rows, cols))
            pattern = np.sort(np.concatenate(keys))
            pattern = pattern[np.append(True, pattern[1:] != pattern[:-1])]
            idx = np.int32 if pattern.size < 2 ** 31 else np.int64
            self._indices = (pattern % dim).astype(idx)
            self._indptr = np.searchsorted(pattern // dim,
                                           np.arange(dim + 1)).astype(idx)
            self._indices.flags.writeable = self._indptr.flags.writeable = False
            keys = [np.searchsorted(pattern, k) for k in keys]
            self._base = np.zeros(pattern.size, dtype=complex)
            if base is not None:
                self._base[keys.pop()] = vals
        self._terms = [(j, pos, x, g)
                       for (j, _, _, x, g), pos in zip(terms, keys)]

    def _keys(self, rows, cols):
        """Sort keys of entries: row-major offsets for a dense pencil,
        column-major ones for a CSC pencil."""
        rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
        return rows * self.dim + cols if self.fmt == "dense" \
            else cols * self.dim + rows

    def values(self, lams) -> np.ndarray:
        """Values at each probe of a (k, d) array, shape (k, pattern size)."""
        lams = np.asarray(lams, dtype=float)
        out = np.empty((lams.shape[0], self._base.size), dtype=complex)
        out[:] = self._base
        for j, pos, x, g in self._terms:
            s = x - lams[:, j, None]
            out[:, pos] += s * s if g is None else s * g
        return out

    def matrix(self, values):
        """The composite for one row of ``values``."""
        n = self.dim
        if self.fmt == "dense":
            return values.reshape(n, n)
        return sp.csc_matrix((values, self._indices, self._indptr), shape=(n, n))

    def at(self, lam):
        """The composite at one probe."""
        return self.matrix(self.values(np.atleast_2d(lam))[0])

def _coo(m):
    """(rows, cols, values) of the nonzero entries of a dense or sparse matrix."""
    if _is_sparse(m):
        c = m.tocoo()
        return c.row, c.col, c.data
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols]


def _block_entries(n, g):
    """Rows, columns and values of I_n (x) g."""
    gi, gk = np.nonzero(g)
    r = g.shape[0]
    blocks = np.arange(n)[:, None] * r
    return ((blocks + gi).ravel(), (blocks + gk).ravel(),
            np.tile(g[gi, gk], n))


def _affine_pencil(ops, gammas, fmt, skip=()) -> Pencil:
    """sum_j (X_j - lam_j) (x) Gamma_j, for probes with lam_j = 0 for j in
    ``skip`` (non-diagonal coordinates only)."""
    n = ops[0].dim
    base, shift, lin = None, [], []
    for j, (o, g) in enumerate(zip(ops, gammas)):
        rows, cols, gv = _block_entries(n, g)
        if o.is_diagonal:
            x = np.repeat(o.diagonal().real, np.count_nonzero(g))
            shift.append((j, rows, cols, x, gv))
            continue
        m = o.mat if fmt == "dense" else sp.csr_matrix(o.mat)
        term = sp.kron(m, g, format="csr") if _is_sparse(m) else np.kron(m, g)
        base = term if base is None else base + term
        if j not in skip:
            lin.append((j, rows, cols, 0.0, gv))
    dim = n * gammas[0].shape[0]
    return Pencil(dim, fmt, None if base is None else HermitianOperator(base),
                  shift + lin)


def _quadratic_pencil(ops, fmt, skip=()) -> Pencil:
    """sum_j (X_j - lam_j)^2 = sum_j X_j^2 - 2 lam_j X_j + lam_j^2, for
    probes with lam_j = 0 for j in ``skip`` (non-diagonal coordinates only)."""
    n = ops[0].dim
    diag = np.arange(n)
    base, shift, lin, sq = None, [], [], []
    for j, o in enumerate(ops):
        if o.is_diagonal:
            shift.append((j, diag, diag, o.diagonal().real, None))
            continue
        m = o.mat
        base = m @ m if base is None else base + m @ m
        if j not in skip:
            rows, cols, vals = _coo(m)
            lin.append((j, rows, cols, 0.0, 2.0 * vals))
            sq.append((j, diag, diag, 0.0, None))
    return Pencil(n, fmt, None if base is None else HermitianOperator(base),
                  shift + lin + sq)


def _cached(t: ObservableTuple, key, variant, build):
    """The pencil cached on t under key, rebuilt when its variant changes
    (one variant is kept, so a model never holds two of one composite)."""
    cache = t._pencils
    if key in cache and cache[key][0] == variant:
        return cache[key][1]
    cache.pop(key, None)
    cache[key] = (variant, build())
    return cache[key][1]


def _solver_format(t: ObservableTuple, dim: int) -> str:
    return "dense" if solves_densely(dim, t.is_sparse) else "csc"


def _zero_terms(t: ObservableTuple, fmt: str, lam) -> tuple:
    """Non-diagonal coordinates that are 0 at lam, whose entries a sparse
    pencil leaves out: stored zeros would enlarge the factorization."""
    if fmt == "dense" or lam is None:
        return ()
    return tuple(j for j, s in enumerate(lam)
                 if s == 0.0 and not t.ops[j].is_diagonal)


def quadratic_pencil(t: ObservableTuple, lam=None) -> Pencil:
    """Pencil of Q, built on first use and cached on the tuple.  Given a
    probe, a sparse pencil is the one for probes with the same zero
    coordinates."""
    fmt = _solver_format(t, t.dim)
    skip = _zero_terms(t, fmt, lam)
    return _cached(t, "Q", skip, lambda: _quadratic_pencil(t.ops, fmt, skip))


def localizer_pencil(t: ObservableTuple, rep: CliffordRep, lam=None) -> Pencil:
    """Pencil of L for one Clifford representation, cached on the tuple;
    ``lam`` as for ``quadratic_pencil``."""
    if rep.d != t.d_total:
        raise RepMismatch(f"representation has d={rep.d}, tuple has d={t.d_total}")
    fmt = _solver_format(t, t.dim * rep.rep_dim)
    skip = _zero_terms(t, fmt, lam)
    key = ("L",) + tuple(g.tobytes() for g in rep.gammas)
    return _cached(t, key, skip,
                   lambda: _affine_pencil(t.ops, rep.gammas, fmt, skip))


def shifted_observables(t: ObservableTuple, lam) -> list:
    """The observables X_j - lam_j I, each in its observable's format; an
    observable with lam_j = 0 is returned as it is."""
    lam = _as_probe(lam)
    _check_probe(t, lam)
    out = []
    for o, s in zip(t.ops, lam.coords):
        if s == 0.0:
            out.append(o)
            continue
        eye = (sp.identity(o.dim, dtype=complex, format="csr") if o.is_sparse
               else np.eye(o.dim, dtype=complex))
        out.append(HermitianOperator.trusted(o.mat - s * eye))
    return out


@dataclass
class GapResult:
    """Both gaps at one probe plus the commutator bound relating them."""

    lam: ProbePoint
    mu_q: Optional[float] = None
    mu_c: Optional[float] = None
    commutator_bound: Optional[float] = None


def _as_probe(lam) -> ProbePoint:
    return lam if isinstance(lam, ProbePoint) else ProbePoint(np.asarray(lam, float))


def _check_probe(t: ObservableTuple, lam: ProbePoint):
    if lam.d != t.d_total:
        raise DimensionMismatch(
            f"probe has {lam.d} coordinates for a {t.d_total}-tuple")


def tall_composite(t: ObservableTuple, lam) -> np.ndarray:
    """Vertical stack of (X_j - lam_j I), shape (d*n, n)."""
    blocks = [o.mat for o in shifted_observables(t, lam)]
    if t.is_sparse:
        return sp.vstack([sp.csr_matrix(b) for b in blocks], format="csr")
    return np.vstack(blocks)


def quadratic_operator(t: ObservableTuple, lam) -> HermitianOperator:
    """Q_lam = sum (X_j - lam_j)^2, positive-semidefinite, size n x n."""
    lam = _as_probe(lam)
    _check_probe(t, lam)
    return HermitianOperator.trusted(
        quadratic_pencil(t, lam.coords).at(lam.coords))


def localizer(t: ObservableTuple, lam, rep: CliffordRep) -> HermitianOperator:
    """L_lam = sum (X_j - lam_j) (x) Gamma_j of dimension n * rep_dim."""
    lam = _as_probe(lam)
    _check_probe(t, lam)
    return HermitianOperator.trusted(
        localizer_pencil(t, rep, lam.coords).at(lam.coords))


#: bytes a dense batch holds at once: a stack of composites handed to
#: ``eigvalsh`` and the temporaries of its size that ``Pencil.values`` makes
#: while assembling it (up to three)
STACK_BYTES = 1 << 25


def _spectra(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix in a (k, n, n) stack,
    by one ``eigvalsh`` call; a single matrix is a stack of one, so it gets
    the same bytes as inside a larger stack.  If LAPACK fails on the stack,
    its matrices are solved one by one and a failing one reads NaN."""
    try:
        return np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError:
        w = np.full(stack.shape[:2], np.nan)
        for i in range(len(stack)):
            with contextlib.suppress(np.linalg.LinAlgError):
                w[i] = np.linalg.eigvalsh(stack[i:i + 1])[0]
        return w


def _quadratic_value(t, pencil, lam, w, vals, v) -> float:
    """mu^Q from Q's smallest eigenvalue w (nearest 0, for a sparse Q), with
    the PSD clamp check and the unsquared re-evaluation of values too small
    to trust.  ``v`` is w's eigenvector if the solve gave one; a sparse Q
    without one was singular.  Both decisions scale with sum_j (||X_j|| +
    |lam_j|)^2 >= ||Q|| (norm bounds), which unlike ||Q||_F is size-free."""
    scale = max(1.0, sum((o.norm_bound + abs(s)) ** 2
                         for o, s in zip(t.ops, lam)))
    if w < -NEGATIVE_EIG_TOL * scale:
        raise NumericalFailure(f"Q eigenvalue {w:.3e} below the PSD clamp")
    w = max(w, 0.0)
    if w >= np.sqrt(np.finfo(float).eps) * scale:
        return float(np.sqrt(w))
    # low confidence: the eigen-error sum_j ||(X_j - lam_j) v||^2 at the
    # minimizing eigenvector is accurate without squaring
    if v is None:
        if pencil.fmt != "dense":
            return 0.0
        v = eigenpair_nearest_zero(pencil.matrix(vals))[1][:, 0]
    mu = float(np.sqrt(sum(np.linalg.norm(o.mat @ v - s * v) ** 2
                           for o, s in zip(t.ops, lam))))
    _LOG.info("low-confidence Q eigenvalue %.3e (scale %.3e) at %s: "
              "mu^Q = %.6e from the eigen-error", w, scale, list(lam), mu)
    return mu


def gap_values(t: ObservableTuple, lams, kind: str,
               rep: Optional[CliffordRep] = None,
               accuracy: float = 1e-9) -> list:
    """One gap per probe of a (k, d) array, through the model's pencil.

    Dense composites are built and solved in chunks that fit in
    ``STACK_BYTES``, by one ``eigvalsh`` call per chunk; sparse ones by
    shift-invert per probe.  A cell that fails holds its NumericalFailure
    instead of a value.  ``quadratic_gap`` and ``clifford_gap`` are this
    function on a batch of one, so they return the same bytes as the
    matching sweep cell.
    """
    if kind not in GAP_KINDS:
        raise ParameterOutOfRange(f"kind must be one of {GAP_KINDS}")
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2 or lams.shape[1] != t.d_total:
        raise DimensionMismatch(
            f"probe has {lams.shape[-1]} coordinates for a {t.d_total}-tuple")
    if kind == "quadratic":
        dim, pencil_at = t.dim, functools.partial(quadratic_pencil, t)
    else:
        rep = rep or build_clifford(t.d_total)
        dim = t.dim * rep.rep_dim
        pencil_at = functools.partial(localizer_pencil, t, rep)

    def value(pencil, lam, row, w):
        """The gap from the composite's signed eigenvalue w (None: solve
        the sparse composite for it and its eigenvector)."""
        v = None
        try:
            if w is None:
                w, v = eigenpair_nearest_zero(pencil.matrix(row), accuracy)
                w, v = float(w[0]), None if v is None else v[:, 0]
            elif np.isnan(w):
                raise NumericalFailure("dense eigensolver did not converge",
                                       details={"dim": dim})
            return abs(w) if kind == "clifford" else \
                _quadratic_value(t, pencil, lam, w, row, v)
        except NumericalFailure as exc:
            return exc

    if _solver_format(t, dim) != "dense":
        out = []
        for lam in lams:
            pencil = pencil_at(lam)
            out.append(value(pencil, lam, pencil.values(lam[None])[0], None))
        return out
    pencil = pencil_at(None)
    chunk = max(1, STACK_BYTES // (4 * 16 * dim * dim))
    out = []
    for lo in range(0, len(lams), chunk):
        part = lams[lo:lo + chunk]
        vals = pencil.values(part)
        w = _spectra(vals.reshape(-1, dim, dim))
        # Q is PSD: its smallest eigenvalue, so the clamp check sees a
        # negative one; L: the eigenvalue nearest 0
        w = w[:, 0] if kind == "quadratic" else \
            w[np.arange(len(w)), np.argmin(np.abs(w), axis=1)]
        out.extend(value(pencil, lam, row, float(wi))
                   for lam, row, wi in zip(part, vals, w))
    return out


def _single(t, lam, kind, rep, accuracy) -> float:
    value = gap_values(t, _as_probe(lam).coords[None], kind, rep, accuracy)[0]
    if isinstance(value, NumericalFailure):
        raise value
    return value


def quadratic_gap(t: ObservableTuple, lam, accuracy: float = 1e-9) -> float:
    """mu^Q at lam: square root of the smallest eigenvalue of Q_lam.

    Computed from the n x n eigenproblem for Q.  Squaring loses accuracy near
    zero, so values below sqrt(machine eps) * sum_j (||X_j|| + |lam_j|)^2 are
    recomputed as the eigen-error (sum_j ||(X_j - lam_j) v||^2)^(1/2) at Q's
    minimizing eigenvector v.
    """
    return _single(t, lam, "quadratic", None, accuracy)


def clifford_gap(t: ObservableTuple, lam, rep: CliffordRep,
                 accuracy: float = 1e-9) -> float:
    """mu^C at lam: smallest absolute eigenvalue of the localizer."""
    return _single(t, lam, "clifford", rep, accuracy)


def commutator_bound(t: ObservableTuple) -> float:
    """sum_{j<k} ||[X_j, X_k]||, the gap-difference bound."""
    total = 0.0
    for j in range(t.d_total):
        for k in range(j + 1, t.d_total):
            if j < t.commuting_prefix and k < t.commuting_prefix:
                continue  # exactly zero by construction
            a, b = t.ops[j].mat, t.ops[k].mat
            total += operator_norm(a @ b - b @ a)
    return total


def commutator_bound_2d(t: ObservableTuple) -> float:
    """||[H, X + iY]|| for a (X, Y, H) tuple with commuting X, Y.

    Tighter than the pairwise sum when the Clifford matrices are the Paulis:
    L^2 - Q (x) I is then the off-diagonal block matrix of [H, X+iY].
    """
    if t.d_total != 3 or t.commuting_prefix < 2:
        raise DimensionMismatch("2-d bound needs (X, Y, H) with commuting X, Y")
    x, y, h = (o.mat for o in t.ops)
    a = x + 1j * y
    return operator_norm(h @ a - a @ h)


def gap_pair_with_bound(t: ObservableTuple, lam, rep: CliffordRep,
                        accuracy: float = 1e-9) -> GapResult:
    """Both gaps plus the commutator bound; checks the bound before returning."""
    lam = _as_probe(lam)
    mu_q = quadratic_gap(t, lam, accuracy)
    mu_c = clifford_gap(t, lam, rep, accuracy)
    bound = commutator_bound(t)
    if abs(mu_q ** 2 - mu_c ** 2) > bound + 1e-8:
        raise NumericalFailure(
            "commutator bound violated: "
            f"|mu_q^2 - mu_c^2| = {abs(mu_q**2 - mu_c**2):.3e} > {bound:.3e}")
    return GapResult(lam=lam, mu_q=mu_q, mu_c=mu_c, commutator_bound=bound)


DEGENERACY_TOL = 1e-8


def minimizing_state(t: ObservableTuple, lam, accuracy: float = 1e-9):
    """Unit eigenvector of Q_lam for its smallest eigenvalue, with mu^Q.

    Returns ``(state, degenerate, mu_q)`` from one residual-checked solve of
    Q_lam for its two lowest eigenpairs; ``degenerate`` is set when the
    second eigenvalue lies within 1e-8 of the smallest.  The solver's eigenvector is returned as-is (no canonical
    phase), since a degenerate minimum has no preferred basis.  mu^Q follows
    ``quadratic_gap``'s rules (PSD clamp check, eigen-error for values too
    small to trust); it can differ from that function's value in
    the last bits, which solves Q separately.
    """
    lam = _as_probe(lam)
    _check_probe(t, lam)
    pencil = quadratic_pencil(t, lam.coords)
    vals = pencil.values(lam.coords[None])[0]
    m = pencil.matrix(vals)
    w, v = eigenpair_nearest_zero(m, accuracy, k=2)
    if v is None:
        raise NumericalFailure("Q is singular: minimizing state not "
                               "recovered", details={"dim": pencil.dim})
    vec = v[:, 0]
    scale = max(1.0, _fro_norm(m))
    resid = np.linalg.norm(m @ vec - w[0] * vec)
    if resid > 1e-8 * scale:
        raise NumericalFailure(f"minimizing state residual {resid:.3e} too large")
    degenerate = len(w) > 1 and abs(w[1] - w[0]) <= DEGENERACY_TOL * max(1.0, abs(w[0]))
    mu = _quadratic_value(t, pencil, lam.coords, float(w[0]), vals, vec)
    return StateVector(vec, normalize=True), bool(degenerate), mu


GRADING_TOL = 1e-10


def reduced_localizer(x: HermitianOperator, h: HermitianOperator,
                      lambda_x: float, grading) -> np.ndarray:
    """((X - lambda_x I) + i H) Gamma for a chiral pair (X, H).

    Requires the grading to commute with X, anticommute with H and square to
    the identity; the localizer spectrum is then the +-eigenvalue pairs of
    this half-size matrix, and its determinant is real.
    """
    g = grading.mat if isinstance(grading, HermitianOperator) else np.asarray(grading)
    g = g.toarray() if _is_sparse(g) else np.asarray(g, dtype=complex)
    xm = x.dense() if isinstance(x, HermitianOperator) else np.asarray(x, complex)
    hm = h.dense() if isinstance(h, HermitianOperator) else np.asarray(h, complex)
    if xm.shape != hm.shape or xm.shape != g.shape:
        raise DimensionMismatch("X, H and grading must share one dimension")
    n = xm.shape[0]
    eye = np.eye(n)
    if np.abs(g @ g - eye).max() > GRADING_TOL:
        raise ChiralSymmetryViolation("grading does not square to the identity")
    if np.abs(hm @ g + g @ hm).max() > GRADING_TOL * max(1.0, np.abs(hm).max()):
        raise ChiralSymmetryViolation("grading does not anticommute with H")
    if np.abs(xm @ g - g @ xm).max() > GRADING_TOL * max(1.0, np.abs(xm).max()):
        raise ChiralSymmetryViolation("grading does not commute with X")
    return ((xm - lambda_x * eye) + 1j * hm) @ g


def determinant_sign_index(a) -> int:
    """Sign of det(A) for a (numerically) real square matrix: -1, 0 or +1."""
    m = np.asarray(a.toarray() if _is_sparse(a) else a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("determinant sign needs a square matrix")
    scale = max(1.0, np.abs(m).max())
    if np.abs(m.imag).max() > 1e-10 * scale:
        raise NotRealMatrix(
            f"imaginary parts up to {np.abs(m.imag).max():.3e} exceed tolerance")
    sign, logabs = np.linalg.slogdet(m.real)
    n = m.shape[0]
    if sign == 0.0 or logabs < np.log(1e-12) + n * np.log(scale):
        return 0
    return int(np.sign(sign))


SYMMETRY_TOL = 1e-10
SYMMETRY_GAP_TOL = 1e-8


def verify_symmetry(t: ObservableTuple, s, flipped_index: int, lam,
                    rep: CliffordRep) -> bool:
    """Certify mu(lam) = mu(gamma) for gamma = lam with one coordinate negated.

    Hypotheses (checked, violation raises): S unitary, S X_j = X_j S for all
    j except S X_f = -X_f S at the flipped index.  Under them both gaps are
    invariant under negating that probe coordinate.
    """
    lam = _as_probe(lam)
    _check_probe(t, lam)
    sm = np.asarray(s.toarray() if _is_sparse(s) else s, dtype=complex)
    n = t.dim
    if sm.shape != (n, n):
        raise DimensionMismatch("S must match the observable dimension")
    if np.abs(sm @ sm.conj().T - np.eye(n)).max() > SYMMETRY_TOL:
        raise SymmetryHypothesisViolated("S is not unitary")
    for j, o in enumerate(t.ops):
        xm = o.dense()
        sign = -1.0 if j == flipped_index else 1.0
        resid = np.abs(sm @ xm - sign * xm @ sm).max()
        if resid > SYMMETRY_TOL * max(1.0, np.abs(xm).max()):
            rel = "anticommute" if j == flipped_index else "commute"
            raise SymmetryHypothesisViolated(
                f"S fails to {rel} with operator {j} (residual {resid:.3e})")
    gamma = lam.coords.copy()
    gamma[flipped_index] = -gamma[flipped_index]
    ok_q = abs(quadratic_gap(t, lam) - quadratic_gap(t, gamma)) <= SYMMETRY_GAP_TOL
    ok_c = abs(clifford_gap(t, lam, rep) - clifford_gap(t, gamma, rep)) <= SYMMETRY_GAP_TOL
    return bool(ok_q and ok_c)
