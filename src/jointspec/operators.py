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
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence

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
#: seed of the ARPACK start vectors, so repeated solves give identical bytes
START_VECTOR_SEED = 20220421
#: relative residual at which `operator_norm` accepts the top Ritz value
NORM_RTOL = 1e-12
#: Lanczos steps after which `operator_norm` reports non-convergence
NORM_MAX_STEPS = 10000

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


def _is_sparse(m) -> bool:
    return sp.issparse(m)


def _as_matrix(a):
    """Return the raw matrix behind `a` (HermitianOperator, ndarray or sparse)."""
    if isinstance(a, HermitianOperator):
        return a.mat
    if _is_sparse(a):
        return a
    return np.asarray(a)


def _check_finite(m):
    data = m.data if _is_sparse(m) else m
    if not np.all(np.isfinite(np.asarray(data).ravel().view(float) if np.iscomplexobj(data) else data)):
        raise InvalidOperator("matrix has non-finite entries")


def _max_abs(m) -> float:
    if _is_sparse(m):
        return float(abs(m).max()) if m.nnz else 0.0
    return float(np.abs(m).max()) if m.size else 0.0


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
        if _is_sparse(m):
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
        m = (m + dag) * 0.5
        if _is_sparse(m):
            m = m.tocsr()
        self._mat = m
        self._diagonal = self._bound = None

    @classmethod
    def trusted(cls, matrix) -> "HermitianOperator":
        """Wrap a matrix that is Hermitian by construction, without copying
        or re-checking it (composites assembled from validated parts)."""
        op = cls.__new__(cls)
        op._mat = matrix
        op._diagonal = op._bound = None
        return op

    @property
    def mat(self):
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def is_sparse(self) -> bool:
        return _is_sparse(self._mat)

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
        if not np.all(np.isfinite(v.view(float))):
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
    shift-invert ARPACK above."""
    return dim <= (SPARSE_EIGEN_CUTOFF if sparse else DENSE_EIGEN_CUTOFF)


def start_vector(n: int) -> np.ndarray:
    """Fixed-seed random ARPACK start vector of length n.

    ARPACK's own start vector comes from a generator that advances with every
    call, so repeated solves would differ in the last bits.  A structured
    vector (all ones, say) can be orthogonal to the wanted eigenvector.
    """
    return np.random.default_rng(START_VECTOR_SEED).standard_normal(n)


def _gram_top_eigenvalue(m) -> float:
    """Largest eigenvalue of the smaller Gram matrix of sparse `m` (``m^H m``,
    or ``m m^H`` when `m` is wide) by plain Lanczos.

    The three-term recurrence starts from the fixed start vector and runs
    without restarts or reorthogonalization: the extreme Ritz values stay
    reliable in floating point without it (Paige, Linear Algebra Appl. 34,
    1980; Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1992).
    Every 10 steps the top Ritz pair ``(theta, s)`` of the tridiagonal T_k is
    accepted once ``beta_k |s_k| <= NORM_RTOL * theta``.  A ``beta_k`` at or
    below ``NORM_RTOL`` times the largest diagonal entry of T_k (which is at
    most theta) meets that test whatever ``s_k`` is: the Krylov space is
    exhausted, and the recurrence stops before dividing by it.  The shape,
    step count and residual estimate go to one DEBUG record.
    """
    shape = m.shape
    mh = m.conj().T
    if m.shape[1] > m.shape[0]:
        m, mh = mh, m
    q = start_vector(m.shape[1]).astype(np.result_type(m.dtype, float))
    q /= np.linalg.norm(q)
    q_prev = np.zeros_like(q)
    alpha, beta = [], []
    b = top = 0.0
    for k in range(1, NORM_MAX_STEPS + 1):
        w = mh @ (m @ q)
        a = float(np.vdot(q, w).real)
        w -= a * q
        w -= b * q_prev
        alpha.append(a)
        top = max(top, a)
        b = float(np.linalg.norm(w))
        exhausted = b <= NORM_RTOL * top
        if exhausted or k % 10 == 0 or k == NORM_MAX_STEPS:
            theta, s = eigh_tridiagonal(alpha, beta, select="i",
                                        select_range=(k - 1, k - 1))
            resid = b * abs(float(s[-1, 0]))
            if exhausted or resid <= NORM_RTOL * theta[0]:
                _LOG.debug("operator norm of %dx%d sparse matrix: %d Lanczos "
                           "steps, residual estimate %.3g", *shape, k, resid)
                return float(theta[0])
        beta.append(b)
        q_prev, q = q, w / b
    raise NumericalFailure(
        "Lanczos did not converge for operator norm",
        details={"shape": shape, "steps": NORM_MAX_STEPS,
                 "residual": resid, "theta": float(theta[0])})


def operator_norm(a) -> float:
    """Largest singular value of `a` (HermitianOperator, ndarray or sparse).

    Dense inputs go to LAPACK, sparse ones to plain Lanczos on the Gram
    matrix.
    """
    m = _as_matrix(a)
    _check_finite(m)
    if min(m.shape) == 0:
        return 0.0
    if _is_sparse(m):
        return float(np.sqrt(_gram_top_eigenvalue(m)))
    if min(m.shape) == 1:
        return float(np.linalg.norm(m))
    return float(np.linalg.norm(m, 2))


def _shift_invert(ms, sigma, k, accuracy, v0):
    """eigsh's k eigenpairs of ``ms`` nearest ``sigma``.

    ``ms - sigma I`` is factored once with a symmetric ordering and diagonal
    pivots, which keeps the factor small.  Unpivoted elimination can be
    inaccurate, so the general partial-pivoting LU inside ``eigsh`` is used
    instead where the diagonal has a zero (fill explodes there) and where an
    eigenvalue disagrees with its Rayleigh quotient beyond ``accuracy``.
    """
    n = ms.shape[0]
    if np.all(ms.diagonal() != sigma):
        shifted = ms - sigma * sp.identity(n, format="csc") if sigma else ms
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=ms.dtype)
        w, v = spla.eigsh(ms, k=k, sigma=sigma, which="LM", tol=accuracy,
                          v0=v0, OPinv=op)
        rho = np.einsum("ij,ij->j", v.conj(), ms @ v).real
        err = np.abs(w - rho)
        if np.all(err <= accuracy * np.maximum(1.0, np.abs(w))):
            return w, v
        _LOG.info("symmetric factor at shift %.3g (dim %d) inaccurate: "
                  "|eigenvalue - Rayleigh quotient| = %.3g; partial-pivoting "
                  "LU used", sigma, n, err.max())
    return spla.eigsh(ms, k=k, sigma=sigma, which="LM", tol=accuracy, v0=v0)


def _dense_nearest_zero(m, k):
    """LAPACK's k eigenpairs of `m` nearest 0, stably ordered by |w|."""
    w, v = np.linalg.eigh(m.toarray() if _is_sparse(m) else m)
    order = np.argsort(np.abs(w), kind="stable")[:k]
    return w[order], v[:, order]


def eigenpair_nearest_zero(m, accuracy: float = 1e-9, k: int = 1):
    """The k eigenpairs of Hermitian `m` nearest 0, sorted by distance from 0.

    ``solves_densely`` picks the solver: LAPACK, or shift-invert ARPACK with
    a fixed start vector.  A singular factorization means 0 is an eigenvalue:
    a tiny jittered shift is retried.  If shift-invert gives no eigenpairs
    (singular at both shifts, or no convergence), a matrix of dimension up to
    ``DENSE_EIGEN_CUTOFF`` is solved by LAPACK after all, with a warning; a
    larger one gives ``(zeros, None)`` when singular and raises
    NumericalFailure when ARPACK did not converge.  Every event is logged.
    """
    n = m.shape[0]
    if solves_densely(n, _is_sparse(m)):
        return _dense_nearest_zero(m, k)
    ms = m if _is_sparse(m) and m.format == "csc" else sp.csc_matrix(m)
    v0 = start_vector(n)
    reason = "singular at both shifts"
    for attempt in range(2):
        sigma = 1e-10 * max(1.0, _norm_upper_bound(ms)) if attempt else 0.0
        try:
            w, v = _shift_invert(ms, sigma, k, accuracy, v0)
        except ArpackNoConvergence as exc:
            if n > DENSE_EIGEN_CUTOFF:
                raise NumericalFailure(
                    "shift-invert eigsh failed to converge",
                    details={"dim": n, "sigma": sigma, "exc": str(exc)},
                ) from exc
            reason = f"no convergence at shift {sigma:.3g}"
            break
        except RuntimeError as exc:
            _LOG.info("singular factorization at shift %.3g (dim %d): %s",
                      sigma, n, exc)
            continue
        order = np.argsort(np.abs(w))
        return w[order], v[:, order]
    if n > DENSE_EIGEN_CUTOFF:
        _LOG.info("matrix of dim %d is singular to working precision; "
                  "nearest-zero eigenvalue reported as 0", n)
        return np.zeros(k), None
    _LOG.warning("shift-invert on dim %d gave no eigenpairs (%s); dense "
                 "eigendecomposition used", n, reason)
    return _dense_nearest_zero(ms, k)


def smallest_singular_value(a, accuracy: float = 1e-9) -> float:
    """sigma_min(A) = min over unit v of ||A v||, for rectangular A, by dense
    SVD.  Sparse inputs larger than ``DENSE_EIGEN_CUTOFF`` are refused: use
    ``quadratic_gap`` for tall composites."""
    m = _as_matrix(a)
    _check_finite(m)
    if _is_sparse(m):
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
