"""Dense/sparse Hermitian operators, state vectors and spectral primitives.

Everything downstream (composite operators, gap maps, truncation bounds)
reduces to the handful of primitives defined here: operator norms, smallest
singular values, smallest-magnitude eigenvalues, eigenvalue counts and the
expectation / variance functionals of unit states.
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
#: largest dimension solved by LAPACK, whatever the storage
SPARSE_EIGEN_CUTOFF = 512
#: largest dimension LAPACK takes where the factor ladder gives no answer
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
    "count_below",
]


def _as_matrix(a):
    """Return the raw matrix behind `a` (HermitianOperator, ndarray or sparse)."""
    if isinstance(a, HermitianOperator):
        return a.mat
    return a if sp.issparse(a) else np.asarray(a)


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


def solves_densely(dim: int) -> bool:
    """The one dense/sparse decision: LAPACK up to ``SPARSE_EIGEN_CUTOFF``,
    shift-invert Lanczos above, whatever the matrix's storage."""
    return dim <= SPARSE_EIGEN_CUTOFF


def start_vector(n: int) -> np.ndarray:
    """Fixed-seed random Lanczos start vector of length n, so repeated
    solves give identical bytes; a structured one (all ones, say) can be
    orthogonal to the wanted eigenvector."""
    return np.random.default_rng((START_VECTOR_SEED, 0)).standard_normal(n)


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


def _lanczos(apply, n, dtype, rtol, max_steps, vectors=False, order=None):
    """The eigenvalue of largest magnitude of Hermitian ``apply`` and, if
    asked, its unit Ritz vector: ``(theta, vector or None, steps, residual
    estimate, converged)``.  Plain Lanczos from the start vector in the
    layout ``order``, without the restarts and reorthogonalization that
    extreme Ritz values do not need (Paige, Linear Algebra Appl. 34, 1980).
    ``_ritz_test`` runs at steps 1 to 8 (before ghost copies form), then
    every 2 to 10 steps, at the cap and once ``beta_m <= 1e-12 max|alpha_j|``
    (invariant Krylov space).  The Ritz vector ``y = V s`` meets the same
    test at residual ``beta |s_m| / ||y||`` (``A V = V T + beta q e_m^T``
    holds without orthogonality, and a ghost copy shrinks ``||y||``).
    """
    axpy, dotc, nrm2, scal = get_blas_funcs(("axpy", "dotc", "nrm2", "scal"),
                                            dtype=dtype)
    q = start_vector(n)
    q = (q if order is None else q[order]).astype(dtype)
    scal(1.0 / nrm2(q), q)
    basis, alpha, beta = [], [], []
    b = top = 0.0
    for m in range(1, max_steps + 1):
        if vectors:
            basis.append(q)
        w = apply(q)
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
    LAPACK where ``solves_densely(min(m.shape))`` for a dense `m`, else
    ``_lanczos`` on the smaller Gram matrix (``m^H m``, or ``m m^H`` when
    `m` is wide) at ``NORM_RTOL``, with one DEBUG record of the shape, steps
    and residual estimate.
    """
    m = _as_matrix(a)
    _check_finite(m)
    if min(m.shape) == 0:
        return 0.0
    if sp.issparse(m) or not solves_densely(min(m.shape)):
        shape, mh = m.shape, m.conj().T
        if m.shape[1] > m.shape[0]:
            m, mh = mh, m
        theta, _, steps, resid, ok = _lanczos(
            lambda x: mh @ (m @ x), m.shape[1],
            np.result_type(m.dtype, float), NORM_RTOL, NORM_MAX_STEPS)
        if not ok:
            raise NumericalFailure("Lanczos did not converge for operator "
                                   "norm", details={"shape": shape})
        _LOG.debug("operator norm of %dx%d matrix: %d Lanczos steps, "
                   "residual estimate %.3g", *shape, steps, resid)
        return float(np.sqrt(theta))
    if min(m.shape) == 1:
        return float(np.linalg.norm(m))
    return float(np.linalg.norm(m, 2))


#: ``splu`` options of the small factor: symmetric ordering, diagonal pivots
_SYMMETRIC_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                 "options": {"SymmetricMode": True}}


def _factor(ms, sigma, order, symmetric):
    """``_SYMMETRIC_LU``'s factor of ``ms - sigma I`` (in ``ms``'s layout if
    ``order`` is given) or scipy's partial-pivoting LU; None, logged, where it
    is singular or the symmetric one meets a zero on the shifted diagonal."""
    if symmetric and np.any(ms.diagonal() == sigma):
        _LOG.debug("symmetric factor skipped at shift %.3g (dim %d): zero on "
                   "the shifted diagonal", sigma, ms.shape[0])
        return None
    ms = ms - sigma * sp.identity(ms.shape[0], format="csc") if sigma else ms
    try:
        return spla.splu(ms, **({} if not symmetric else _SYMMETRIC_LU
                                if order is None else
                                dict(_SYMMETRIC_LU, permc_spec="NATURAL")))
    except RuntimeError as exc:
        _LOG.info("singular factorization at shift %.3g (dim %d): %s",
                  sigma, ms.shape[0], exc)
        return None


def eigenpair_nearest_zero(m, accuracy: float = 1e-9, order=None):
    """The eigenpair ``(w, v)`` of Hermitian `m` nearest 0 (a float and a
    unit vector): LAPACK where ``solves_densely`` says so, else ``_lanczos``
    on the solves of the first factor on the ladder (symmetric, then partial
    pivoting, at shift 0, then at a tiny jittered shift) whose pair converges
    and meets its Rayleigh quotient within ``accuracy``.  Without one, LAPACK
    solves a matrix of dimension up to ``DENSE_EIGEN_CUTOFF`` after all, with
    a warning; a larger one raises NumericalFailure.  Every rung is logged.
    ``order``, if given, is `m`'s layout: `m` is ``A[order][:, order]``,
    factored as laid out; `v` is A's.  ``accuracy`` lies in (0, 1e-2]."""
    _check_accuracy(accuracy)
    n = m.shape[0]
    if not solves_densely(n):
        ms = m if sp.issparse(m) and m.format == "csc" else sp.csc_matrix(m)
        dtype, sigma = np.result_type(ms.dtype, float), 0.0
        symmetric = "symmetric factor, " + ("MMD_AT_PLUS_A" if order is None
                                            else "pencil order")
        for rung, path in enumerate((symmetric, "partial-pivoting factor") * 2):
            if rung == 2:
                sigma = 1e-10 * max(1.0, _norm_upper_bound(ms))
            lu = _factor(ms, sigma, order, path == symmetric)
            if lu is None:
                continue
            theta, v, steps, resid, ok = _lanczos(
                lu.solve, n, dtype, accuracy, SHIFT_INVERT_MAX_STEPS,
                vectors=True, order=order)
            w = sigma + 1.0 / theta
            err = abs(w - np.vdot(v, ms @ v).real)
            _LOG.debug("shift-invert of dim %d at shift %.3g (%s): %d Lanczos "
                       "steps, residual estimate %.3g%s", n, sigma, path, steps,
                       resid, "" if ok else ", unconverged")
            if ok and err <= accuracy * max(1.0, abs(w)):
                return w, v if order is None else v[np.argsort(order)]
            _LOG.info("%s at shift %.3g (dim %d) %s: |eigenvalue - "
                      "Rayleigh quotient| = %.3g", path, sigma, n,
                      "inaccurate" if ok else "gave no convergence", err)
        if n > DENSE_EIGEN_CUTOFF:
            raise NumericalFailure("shift-invert did not converge on any "
                                   "factor", details={"dim": n, "sigma": sigma})
        _LOG.warning("shift-invert on dim %d gave no eigenpairs; dense "
                     "eigendecomposition used", n)
    return _eigh_nearest_zero(m, order)[1:]


def _eigh_nearest_zero(m, order=None):
    """LAPACK's spectrum of `m` and its eigenpair nearest 0, `v` in A's layout."""
    w, v = np.linalg.eigh(m.toarray() if sp.issparse(m) else m)
    i = np.argmin(np.abs(w))
    return w, float(w[i]), v[:, i] if order is None else v[np.argsort(order), i]


def count_below(m, s: float, order=None) -> int:
    """The number of eigenvalues of Hermitian `m` (in the layout ``order``)
    below ``s``: LAPACK's where ``solves_densely`` says so, else the negative
    ``Re diag(U)`` of the symmetric ``_factor`` at ``s`` (Sylvester's law of
    inertia).  Without it, or where it pivots off the diagonal, LAPACK counts
    up to ``DENSE_EIGEN_CUTOFF``; a larger matrix raises."""
    n = m.shape[0]
    if not solves_densely(n):
        lu = _factor(sp.csc_matrix(m), s, order, symmetric=True)
        if lu is not None and np.array_equal(lu.perm_r, lu.perm_c):
            return int(np.count_nonzero(lu.U.diagonal().real < 0))
        if n > DENSE_EIGEN_CUTOFF:
            raise NumericalFailure(f"no symmetric factor at shift {s!r} to "
                                   "count eigenvalues", details={"dim": n})
    w = np.linalg.eigvalsh(m.toarray() if sp.issparse(m) else m)
    return int(np.count_nonzero(w < s))


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
