"""Dense/sparse Hermitian operators, state vectors and spectral primitives.

Everything downstream (composite operators, gap maps, truncation bounds)
reduces to the handful of primitives defined here: operator norms, smallest
singular values, smallest-magnitude eigenvalues and the expectation /
variance functionals of unit states.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import dstemr

from .errors import (
    DimensionMismatch,
    InvalidOperator,
    NumericalFailure,
    ParameterOutOfRange,
)

HERMITICITY_RTOL = 1e-12
#: largest dimension of a sparse matrix that is still solved densely
SPARSE_EIGEN_CUTOFF = 512
#: largest dimension of a dense matrix that is solved densely
DENSE_EIGEN_CUTOFF = 4096
#: seed of the Lanczos start vectors, so repeated solves give identical bytes
START_VECTOR_SEED = 20220421
#: relative residual at which `operator_norm` accepts the top Ritz value
NORM_RTOL = 1e-12
#: Lanczos steps after which `operator_norm` reports non-convergence
NORM_MAX_STEPS = 10000
#: Lanczos steps (solves) after which shift-invert reports non-convergence
SHIFT_INVERT_MAX_STEPS = 200
#: largest accepted solver accuracy (a Chern-20 gap is 1.3e-4 off at 1e-2)
MAX_ACCURACY = 1e-2

_LOG = logging.getLogger("jointspec")

__all__ = [
    "HermitianOperator",
    "StateVector",
    "operator_norm",
    "smallest_singular_value",
    "expectation",
    "variance_sq",
    "eigen_error",
    "solves_densely",
    "start_vector",
    "eigenpair_nearest_zero",
]


def _as_matrix(a):
    """Return the raw matrix behind `a` (HermitianOperator, ndarray or sparse)."""
    if isinstance(a, HermitianOperator):
        return a.mat
    if sp.issparse(a):
        return a
    return np.asarray(a)


def _check_finite(m):
    if not np.isfinite(m.data if sp.issparse(m) else m).all():
        raise InvalidOperator("matrix has non-finite entries")


def _check_accuracy(accuracy):
    if not 0.0 < accuracy <= MAX_ACCURACY:
        raise ParameterOutOfRange(
            f"accuracy must lie in (0, {MAX_ACCURACY:g}], got {accuracy!r}")


def _max_abs(m) -> float:
    # a sparse matrix's size is its stored count
    return float(abs(m).max()) if m.size else 0.0


def _norm_upper_bound(m) -> float:
    """Cheap upper bound on the operator norm (via max row/col 1-norms)."""
    a = abs(m)
    r = a.sum(axis=1).max()
    c = a.sum(axis=0).max()
    return float(np.sqrt(float(r) * float(c))) if m.shape[0] and m.shape[1] else 0.0


class HermitianOperator:
    """A verified Hermitian matrix (dense ndarray or scipy sparse).

    The constructor checks ``max|A - A^dag| <= 1e-12 * max(1, ||A||)`` and then
    symmetrizes ``A <- (A + A^dag)/2`` so round-off asymmetry cannot leak into
    downstream eigensolvers.  The symmetrized matrix is a new one, so the
    operator never shares storage with its input.  ``is_diagonal`` and
    ``norm_bound`` are computed on first use.
    """

    __slots__ = ("_mat", "_diagonal", "_bound")

    def __init__(self, matrix):
        m = matrix.mat if isinstance(matrix, HermitianOperator) else matrix
        if sp.issparse(m):
            m = m.tocsr()
        else:
            m = np.asarray(m, dtype=complex)
            if m.ndim != 2:
                raise InvalidOperator("expected a 2-d matrix")
        if m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidOperator(f"expected a square matrix, got shape {m.shape}")
        _check_finite(m)
        dag = m.conj().T
        asym = _max_abs(m - dag)
        scale = max(1.0, _norm_upper_bound(m))
        if asym > HERMITICITY_RTOL * scale:
            raise InvalidOperator(
                f"matrix is not Hermitian: max|A - A^dag| = {asym:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * {scale:.3e}"
            )
        self._mat = (m + dag) * 0.5
        self._diagonal = self._bound = None

    @property
    def mat(self):
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self._mat)

    def dense(self) -> np.ndarray:
        return self._mat.toarray() if self.is_sparse else self._mat

    def diagonal(self) -> np.ndarray:
        return np.asarray(self._mat.diagonal())

    @property
    def is_diagonal(self) -> bool:
        if self._diagonal is None:
            off = self._mat - (sp.diags(self._mat.diagonal()) if self.is_sparse
                               else np.diag(self._mat.diagonal()))
            self._diagonal = _max_abs(off) == 0.0
        return self._diagonal

    @property
    def norm_bound(self) -> float:
        """Upper bound on the operator norm from the row and column 1-norms."""
        if self._bound is None:
            self._bound = _norm_upper_bound(self._mat)
        return self._bound

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"HermitianOperator(dim={self.dim}, {kind})"


class StateVector:
    """A unit vector in C^n (checked to norm 1 within 1e-12, then renormalized)."""

    __slots__ = ("_vec",)

    UNIT_TOL = 1e-12

    def __init__(self, entries, *, normalize: bool = False):
        v = np.array(entries, dtype=complex).ravel()
        if v.size < 1:
            raise InvalidOperator("empty state vector")
        if not np.isfinite(v).all():
            raise InvalidOperator("state vector has non-finite entries")
        nrm = float(np.linalg.norm(v))
        if normalize:
            if nrm == 0.0:
                raise InvalidOperator("cannot normalize the zero vector")
        elif abs(nrm - 1.0) > self.UNIT_TOL * max(1.0, nrm):
            raise InvalidOperator(f"state vector norm {nrm!r} is not 1")
        self._vec = v / nrm

    @property
    def vec(self) -> np.ndarray:
        return self._vec

    @property
    def dim(self) -> int:
        return self._vec.size

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


def _check_dims(a: HermitianOperator, v: StateVector):
    if a.dim != v.dim:
        raise DimensionMismatch(f"operator dim {a.dim} != state dim {v.dim}")


# ---------------------------------------------------------------------------
# spectral primitives


def solves_densely(dim: int, sparse: bool) -> bool:
    """The one dense/sparse decision: LAPACK for dense matrices up to
    ``DENSE_EIGEN_CUTOFF`` and sparse ones up to ``SPARSE_EIGEN_CUTOFF``,
    shift-invert Lanczos above."""
    return dim <= (SPARSE_EIGEN_CUTOFF if sparse else DENSE_EIGEN_CUTOFF)


def start_vector(n: int, j: int = 0) -> np.ndarray:
    """Fixed-seed random Lanczos start vector number j of length n, so
    repeated solves give identical bytes; a structured one (all ones, say)
    can be orthogonal to the wanted eigenvector."""
    return np.random.default_rng((START_VECTOR_SEED, j)).standard_normal(n)


def _ritz_test(alpha, beta, b, rtol):
    """Of the two extreme eigenpairs of the Lanczos tridiagonal (MRRR), the
    Ritz value of larger magnitude, its eigenvector s, its residual estimate
    ``b |s_m|`` and whether that is at most ``rtol |theta|`` while the other
    end is settled: converged, or within its magnitude margin."""
    d, ends = np.array(alpha), []
    for i in sorted({1, len(alpha)}):
        # dstemr works in its off-diagonal array: a new one per call
        _, w, z, info = dstemr(d, np.array(beta + [0.0]), 2, 0.0, 0.0, i, i)
        if info:
            raise NumericalFailure("tridiagonal eigensolver failed",
                                   details={"steps": len(alpha)})
        ends.append((float(w[0]), z[:, 0], b * abs(z[-1, 0])))
    ends.sort(key=lambda end: abs(end[0]))
    (other, _, r_other), (theta, s, resid) = ends[0], ends[-1]
    return theta, s, resid, resid <= rtol * abs(theta) and r_other <= max(
        abs(theta) - abs(other), rtol * abs(other))


def _lanczos(apply, n, dtype, rtol, max_steps, vectors=False, locked=(),
             order=None):
    """The eigenvalue of largest magnitude of Hermitian ``apply`` on the
    complement of the unit vectors ``locked``, with its unit Ritz vector if
    asked: ``(theta, vector or None, steps, residual estimate, converged)``.

    Plain Lanczos from start vector ``len(locked)`` in the layout ``order``
    (the first run's, less its eigenvector, would hold no other copy of a
    repeated eigenvalue),
    without the restarts and reorthogonalization that extreme Ritz values
    do not need (Paige, Linear Algebra Appl. 34, 1980).  ``_ritz_test`` runs at steps 1 to 8 (before
    ghost copies form), then every 2 to 10 steps, at the cap and once
    ``beta_m <= 1e-12 max|alpha_j|`` (invariant Krylov space).  The Ritz
    vector ``y = V s`` meets the same test at residual ``beta |s_m| / ||y||``
    (``A V = V T + beta q e_m^T`` holds without orthogonality, and a ghost
    copy shrinks ``||y||``).
    """
    axpy, dotc, nrm2, scal = get_blas_funcs(("axpy", "dotc", "nrm2", "scal"),
                                            dtype=dtype)

    def deflate(x):
        for y in locked:
            axpy(y, x, a=-dotc(y, x))

    q = start_vector(n, len(locked))
    q = (q if order is None else q[order]).astype(dtype)
    deflate(q)
    scal(1.0 / nrm2(q), q)
    basis, alpha, beta = [], [], []
    b = top = 0.0
    for m in range(1, max_steps + 1):
        if vectors:
            basis.append(q)
        w = apply(q)
        deflate(w)
        if m > 1:
            axpy(q_prev, w, a=-b)
        alpha.append(dotc(q, w).real)
        axpy(q, w, a=-alpha[-1])
        top = max(top, abs(alpha[-1]))
        b = nrm2(w)
        exhausted = b <= 1e-12 * top
        if exhausted or m <= 8 or m == max_steps \
                or m % min(10, max(2, m // 8)) == 0:
            theta, s, resid, ok = _ritz_test(alpha, beta, b, rtol)
            if ok or exhausted:
                break
        beta.append(b)
        q_prev, q = q, scal(1.0 / b, w)
    if not vectors:
        return theta, None, m, resid, ok
    y = np.zeros(n, dtype)
    for sj, qj in zip(s, basis):
        axpy(qj, y, a=sj)
    size = nrm2(y)
    return (theta, scal(1.0 / size, y), m, resid / size,
            ok and resid <= rtol * abs(theta) * size)


def operator_norm(a) -> float:
    """Largest singular value of `a` (HermitianOperator, ndarray or sparse):
    LAPACK for dense inputs, ``_lanczos`` on the smaller Gram matrix
    (``m^H m``, or ``m m^H`` when `m` is wide) at ``NORM_RTOL`` for sparse
    ones, with one DEBUG record of the shape, steps and residual estimate.
    """
    m = _as_matrix(a)
    _check_finite(m)
    if min(m.shape) == 0:
        return 0.0
    if sp.issparse(m):
        shape, mh = m.shape, m.conj().T
        if m.shape[1] > m.shape[0]:
            m, mh = mh, m
        theta, _, steps, resid, ok = _lanczos(
            lambda x: mh @ (m @ x), m.shape[1],
            np.result_type(m.dtype, float), NORM_RTOL, NORM_MAX_STEPS)
        if not ok:
            raise NumericalFailure("Lanczos did not converge for operator "
                                   "norm", details={"shape": shape})
        _LOG.debug("operator norm of %dx%d sparse matrix: %d Lanczos steps, "
                   "residual estimate %.3g", *shape, steps, resid)
        return float(np.sqrt(theta))
    if min(m.shape) == 1:
        return float(np.linalg.norm(m))
    return float(np.linalg.norm(m, 2))


#: ``splu`` options of the small factor: symmetric ordering, diagonal pivots
_SYMMETRIC_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                 "options": {"SymmetricMode": True}}


def _shift_invert(ms, sigma, k, accuracy, order):
    """Lanczos's k eigenpairs of ``ms`` nearest ``sigma``: one ``_lanczos``
    run per pair on the solves of a factor of ``ms - sigma I``, each
    deflating the pairs before it, so a repeated eigenvalue is found once
    per copy.  The factor is ``_SYMMETRIC_LU``'s (in ``ms``'s own layout if
    ``order`` is given) unless the diagonal has a zero (fill explodes there).
    Unpivoted elimination can be inaccurate: where the runs do not converge
    or an eigenvalue misses its Rayleigh quotient by more than ``accuracy``,
    scipy's partial-pivoting LU is tried under the same test, and
    NumericalFailure raised if that fails too.  Each factor makes one DEBUG
    record.  The eigenvectors are returned in the model's order.
    """
    n, dtype = ms.shape[0], np.result_type(ms.dtype, float)
    shifted = ms - sigma * sp.identity(n, format="csc") if sigma else ms
    factors = [("partial-pivoting factor", {})]
    if np.all(ms.diagonal() != sigma):
        factors.insert(0, ("symmetric factor, MMD_AT_PLUS_A", _SYMMETRIC_LU)
                       if order is None else ("symmetric factor, pencil order",
                       dict(_SYMMETRIC_LU, permc_spec="NATURAL")))
    for path, options in factors:
        lu, runs = spla.splu(shifted, **options), []
        while len(runs) < k and (not runs or runs[-1][4]):
            runs.append(_lanczos(lu.solve, n, dtype, accuracy,
                                 SHIFT_INVERT_MAX_STEPS, vectors=True,
                                 locked=[r[1] for r in runs], order=order))
        theta, vecs, steps, resid, ok = zip(*runs)
        w, v = sigma + 1.0 / np.array(theta), np.column_stack(vecs)
        err = np.abs(w - np.einsum("ij,ij->j", v.conj(), ms @ v).real)
        _LOG.debug("shift-invert of dim %d at shift %.3g (%s): k=%d, "
                   "%s Lanczos steps, residual estimate %.3g%s", n, sigma,
                   path, k, "+".join(map(str, steps)), max(resid),
                   "" if ok[-1] else ", unconverged")
        if ok[-1] and np.all(err <= accuracy * np.maximum(1.0, np.abs(w))):
            if order is not None:
                v[order] = v.copy()
            return w, v
        _LOG.info("%s at shift %.3g (dim %d) %s: |eigenvalue - "
                  "Rayleigh quotient| = %.3g", path, sigma, n,
                  "inaccurate" if ok[-1] else "gave no convergence", err.max())
    raise NumericalFailure("shift-invert Lanczos did not converge",
                           details={"dim": n, "sigma": sigma})


def _dense_nearest_zero(m, k, order=None):
    """LAPACK's k eigenpairs of `m` nearest 0, stably ordered by |w|, with
    the eigenvectors of `m` in the layout ``order`` put back in A's."""
    w, v = np.linalg.eigh(m.toarray() if sp.issparse(m) else m)
    pick = np.argsort(np.abs(w), kind="stable")[:k]
    rows = slice(None) if order is None else np.argsort(order)
    return w[pick], v[:, pick][rows]


def eigenpair_nearest_zero(m, accuracy: float = 1e-9, k: int = 1,
                           order=None):
    """The k eigenpairs of Hermitian `m` nearest 0, sorted by distance from 0:
    LAPACK where ``solves_densely`` says so, else ``_shift_invert`` at 0,
    retried at a tiny jittered shift if the factor is singular.  If that
    gives no eigenpairs, a matrix of dimension up to ``DENSE_EIGEN_CUTOFF``
    is solved by LAPACK after all, with a warning; a larger one gives
    ``(zeros, None)`` when singular at both shifts and raises
    NumericalFailure when Lanczos did not converge.  Every event is logged.

    ``order``, if given, is `m`'s layout: `m` is ``A[order][:, order]``,
    factored as it is laid out, and the eigenvectors returned are A's.
    An ``accuracy`` outside (0, ``MAX_ACCURACY``] is refused.
    """
    _check_accuracy(accuracy)
    n = m.shape[0]
    if solves_densely(n, sp.issparse(m)):
        return _dense_nearest_zero(m, k, order)
    ms = m if sp.issparse(m) and m.format == "csc" else sp.csc_matrix(m)
    reason = "singular at both shifts"
    for attempt in range(2):
        sigma = 1e-10 * max(1.0, _norm_upper_bound(ms)) if attempt else 0.0
        try:
            w, v = _shift_invert(ms, sigma, k, accuracy, order)
        except NumericalFailure:
            if n > DENSE_EIGEN_CUTOFF:
                raise
            reason = f"no convergence at shift {sigma:.3g}"
            break
        except RuntimeError as exc:
            _LOG.info("singular factorization at shift %.3g (dim %d): %s",
                      sigma, n, exc)
            continue
        pick = np.argsort(np.abs(w))
        return w[pick], v[:, pick]
    if n > DENSE_EIGEN_CUTOFF:
        _LOG.info("matrix of dim %d is singular to working precision; "
                  "nearest-zero eigenvalue reported as 0", n)
        return np.zeros(k), None
    _LOG.warning("shift-invert on dim %d gave no eigenpairs (%s); dense "
                 "eigendecomposition used", n, reason)
    return _dense_nearest_zero(ms, k, order)


def smallest_singular_value(a) -> float:
    """sigma_min(A) = min over unit v of ||A v||, for rectangular A, by dense
    SVD.  Sparse inputs larger than ``DENSE_EIGEN_CUTOFF`` are refused: use
    ``quadratic_gap`` for tall composites."""
    m = _as_matrix(a)
    _check_finite(m)
    if sp.issparse(m):
        if max(m.shape) > DENSE_EIGEN_CUTOFF:
            raise ParameterOutOfRange(
                f"sparse {m.shape[0]}x{m.shape[1]} matrix is too large for the "
                "dense SVD")
        m = m.toarray()
    m = np.asarray(m, dtype=complex)
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# state functionals


def expectation(a: HermitianOperator, v: StateVector) -> float:
    """<A v, v> for a Hermitian A and unit v; the imaginary residue is checked
    against 1e-12 * ||A|| and discarded."""
    _check_dims(a, v)
    val = np.vdot(v.vec, a.mat @ v.vec)
    scale = max(1.0, a.norm_bound)
    if abs(val.imag) > 1e-12 * scale:
        raise NumericalFailure(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def variance_sq(a: HermitianOperator, v: StateVector) -> float:
    """Squared variance <A^2 v, v> - <A v, v>^2, clamped at -1e-12 round-off."""
    _check_dims(a, v)
    av = a.mat @ v.vec
    second = float(np.vdot(av, av).real)  # <A^2 v, v> since A is Hermitian
    first = float(np.vdot(v.vec, av).real)
    var = second - first * first
    scale = max(1.0, second)
    if var < -1e-12 * scale:
        raise NumericalFailure(f"variance {var:.3e} below round-off tolerance")
    return max(var, 0.0)


def eigen_error(a: HermitianOperator, v: StateVector, lam: float) -> float:
    """||A v - lam v||, the eigen-error of (v, lam) for A."""
    _check_dims(a, v)
    return float(np.linalg.norm(a.mat @ v.vec - lam * v.vec))
