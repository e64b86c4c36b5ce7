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
import itertools
import logging
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    _SYMMETRIC_LU,
    _check_accuracy,
    _eigh_nearest_zero,
    _max_abs,
    count_below,
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


class ObservableTuple:
    """An ordered tuple (X_1, ..., X_d) of equal-size Hermitian observables.

    ``commuting_prefix`` marks how many leading operators mutually commute
    (the position block); this is verified at construction.  ``meta`` carries
    optional lattice bookkeeping (orbitals per site, lattice shape, axis
    names).  A probe (x..., E) reads ``positions`` then the ``hamiltonian``.
    """

    __slots__ = ("ops", "commuting_prefix", "meta", "_pencils")

    def __init__(self, ops, commuting_prefix: int = 0, meta: Optional[dict] = None):
        ops = tuple(o if isinstance(o, HermitianOperator) else HermitianOperator(o)
                    for o in ops)
        if not ops:
            raise InvalidOperator("need at least one observable")
        if any(o.dim != ops[0].dim for o in ops):
            raise DimensionMismatch("all observables must share one dimension")
        if not 0 <= commuting_prefix <= len(ops):
            raise InvalidOperator("commuting_prefix out of range")
        for j, k in itertools.combinations(range(commuting_prefix), 2):
            a, b = ops[j].mat, ops[k].mat
            comm = a @ b - b @ a
            tol = COMMUTE_RTOL * max(1.0, ops[j].norm_bound * ops[k].norm_bound)
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
    def positions(self) -> tuple:
        """The commuting position block."""
        if self.commuting_prefix < 1:
            raise ParameterOutOfRange("tuple has no commuting position block")
        return self.ops[:self.commuting_prefix]

    @property
    def hamiltonian(self) -> HermitianOperator:
        """The one observable after the position block."""
        if not 1 <= self.commuting_prefix == self.d_total - 1:
            raise ParameterOutOfRange(
                "expected a position block followed by one Hamiltonian")
        return self.ops[-1]

    def __repr__(self):
        return (f"ObservableTuple(d={self.d_total}, dim={self.dim}, "
                f"commuting_prefix={self.commuting_prefix})")


class Pencil:
    """A composite operator as a function of the probe, built once per model.

    Its value at lam is the data of a CSC matrix over a fixed pattern:

        values(lam) = base + sum over terms of (x - lam_j) g  or  (x - lam_j)^2

    ``base`` is validated once, at construction.  A coordinate whose
    observable is diagonal (the position block of every built-in model)
    carries its diagonal as ``x``, so no cancellation occurs.  Any other
    coordinate has ``x = 0``: its linear term touches the entries of the
    composite as ``-lam_j g``, and the quadratic composite adds ``lam_j^2``
    on the diagonal.  Every call returns a matrix on fresh values; only the
    read-only pattern is shared between calls, as are the fill-reducing
    orders, one per set of terms a probe zeroes (``ordered``).
    """

    __slots__ = ("dim", "block", "_base", "_indices", "_indptr", "_terms",
                 "_orders", "_mortal")

    def __init__(self, dim, base, terms, block=1):
        """``base`` is a validated HermitianOperator or None; ``terms`` holds
        ``(j, rows, cols, x, g)``, with ``g`` None for a square, in the
        order they are added; ``_order`` keeps blocks of ``block``."""
        self.dim, self.block = dim, block

        def key(rows, cols):  # column-major offsets: the CSC order
            return np.asarray(cols, np.int64) * dim + np.asarray(rows, np.int64)

        rows, cols, vals = ([], [], []) if base is None else _coo(base.mat)
        keys = [key(r, c) for _, r, c, _, _ in terms] + [key(rows, cols)]
        # not np.unique: its hashing is ~30x slower on a Chern-70 Q
        pattern = np.sort(np.concatenate(keys))
        pattern = pattern[np.append(True, np.diff(pattern) != 0)]
        idx = np.int32 if pattern.size < 2 ** 31 else np.int64
        self._indices = (pattern % dim).astype(idx)
        self._indptr = np.searchsorted(pattern // dim,
                                       np.arange(dim + 1)).astype(idx)
        self._indices.flags.writeable = self._indptr.flags.writeable = False
        keys = [np.searchsorted(pattern, k) for k in keys]
        self._base = np.zeros(pattern.size, dtype=complex)
        self._base[keys.pop()] = vals
        self._terms = [(j, pos, x, g)
                       for (j, _, _, x, g), pos in zip(terms, keys)]
        held = self._base != 0  # and below, entries no probe can zero
        for _, pos, x, _ in self._terms:
            held[pos] |= np.ndim(x) > 0
        self._mortal = frozenset(j for j, pos, x, _ in self._terms
                                 if np.ndim(x) == 0 and not held[pos].all())
        self._orders = {}

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
        """The composite for one row of ``values``, which a sparse matrix
        takes over, zeros included."""
        return sp.csc_matrix((values, self._indices, self._indptr),
                             shape=(self.dim, self.dim))

    def dense(self, values):
        """The composites for k rows of ``values``, a (k, dim, dim) stack."""
        out = np.zeros((len(values), self.dim, self.dim), dtype=complex)
        cols = np.repeat(np.arange(self.dim), np.diff(self._indptr))
        out[:, self._indices, cols] = values
        return out

    def at(self, lam):
        """The composite at one probe."""
        return self.matrix(self.values(np.atleast_2d(lam))[0])

    def ordered(self, lam):
        """The composite at one probe as the solvers take it, and its layout
        ``order`` (entry (i, j) is the model's (order[i], order[j])): where
        ``solves_densely(dim)``, a dense one with None; else a sparse one in
        the order of its pattern less the terms with ``x = 0`` at
        ``lam_j = 0`` that hold entries the base lacks."""
        values = self.values(np.atleast_2d(lam))
        if solves_densely(self.dim):
            return self.dense(values)[0], None
        dead = frozenset(j for j in self._mortal if lam[j] == 0)
        if dead not in self._orders:
            self._orders[dead] = self._order(dead)
        order, take, indices, indptr = self._orders[dead]
        return sp.csc_matrix((values[0, take], indices, indptr),
                             shape=(self.dim, self.dim)), order

    def _order(self, dead):
        """The ``_SYMMETRIC_LU`` order of the base's entries and the terms of
        the coordinates not in ``dead``, read off an incomplete LU that drops
        all fill on the graph of blocks of ``block`` consecutive indices (each
        kept in place), with the gather and CSC pattern of that order."""
        n, b, start = self.dim, self.block, time.perf_counter()
        live = self._base != 0
        for j, pos, _, _ in self._terms:
            live[pos] |= j not in dead
        # each entry holds its place in the pattern, plus 1 (0 marks a dead one)
        m = self.matrix(np.where(live, np.arange(1.0, live.size + 1), 0)).copy()
        m.eliminate_zeros()
        k = n // b  # m's entries are positive: no block sum cancels
        r = sp.kron(sp.identity(k), np.ones((1, b)), format="csc")
        sites = np.argsort(spla.spilu(
            (r @ m @ r.T).sign() + k * sp.identity(k, format="csc"),
            drop_tol=1.0, fill_factor=1.0, **_SYMMETRIC_LU).perm_c)
        order = (sites[:, None] * b + np.arange(b)).ravel()
        m = m[order][:, order]
        m.sort_indices()
        plan = order, (m.data - 1).astype(self._indices.dtype), m.indices, m.indptr
        for shared in plan:
            shared.flags.writeable = False
        graph = f"site graph ({k} nodes, b = {b})" if b > 1 else "entry graph"
        _LOG.debug("fill-reducing order of a dim %d pattern with %d entries on "
                   "its %s: %.3g ms", n, m.nnz, graph,
                   1e3 * (time.perf_counter() - start))
        return plan


def _coo(m):
    """(rows, cols, values) of the stored entries of a sparse matrix or the
    nonzero ones of a dense matrix, the latter in row-major order."""
    c = sp.coo_matrix(m)
    return c.row, c.col, c.data


def _affine_pencil(ops, gammas) -> Pencil:
    """sum_j (X_j - lam_j) (x) Gamma_j."""
    n = ops[0].dim
    base, shift, lin = None, [], []
    for j, (o, g) in enumerate(zip(ops, gammas)):
        rows, cols, gv = _coo(sp.kron(sp.identity(n), g, format="coo"))
        if o.is_diagonal:
            x = np.repeat(o.diagonal().real, np.count_nonzero(g))
            shift.append((j, rows, cols, x, gv))
            continue
        term = sp.kron(sp.csr_matrix(o.mat), g, format="csr")
        base = term if base is None else base + term
        lin.append((j, rows, cols, 0.0, gv))
    dim = n * gammas[0].shape[0]
    return Pencil(dim, None if base is None else HermitianOperator(base),
                  shift + lin)


def _quadratic_pencil(ops, block) -> Pencil:
    """sum_j (X_j - lam_j)^2 = sum_j X_j^2 - 2 lam_j X_j + lam_j^2."""
    n = ops[0].dim
    diag = np.arange(n)
    base, shift, lin, sq = None, [], [], []
    for j, o in enumerate(ops):
        if o.is_diagonal:
            shift.append((j, diag, diag, o.diagonal().real, None))
            continue
        base = o.mat @ o.mat if base is None else base + o.mat @ o.mat
        rows, cols, vals = _coo(o.mat)
        lin.append((j, rows, cols, 0.0, 2.0 * vals))
        sq.append((j, diag, diag, 0.0, None))
    return Pencil(n, None if base is None else HermitianOperator(base),
                  shift + lin + sq, block)


def _cached(t: ObservableTuple, key, build) -> Pencil:
    """The pencil cached on t under key, built on first use."""
    if key not in t._pencils:
        t._pencils[key] = build()
    return t._pencils[key]


def quadratic_pencil(t: ObservableTuple) -> Pencil:
    """Pencil of Q, built on first use and cached on the tuple; ordered on
    the graph of sites where ``t.meta`` has ``orbitals`` dividing the dim."""
    b = int(t.meta.get("orbitals", 1))
    return _cached(t, "Q", lambda: _quadratic_pencil(
        t.ops, b if b > 0 and t.dim % b == 0 else 1))


def localizer_pencil(t: ObservableTuple, rep: CliffordRep) -> Pencil:
    """Pencil of L for one Clifford representation, cached on the tuple."""
    if rep.d != t.d_total:
        raise RepMismatch(f"representation has d={rep.d}, tuple has d={t.d_total}")
    key = ("L",) + tuple(g.tobytes() for g in rep.gammas)
    return _cached(t, key, lambda: _affine_pencil(t.ops, rep.gammas))


def shifted_observables(t: ObservableTuple, lam) -> list:
    """The observables X_j - lam_j I, each in its observable's format; an
    observable with lam_j = 0 is returned as it is."""
    lam = _checked_probe(t, lam)
    out = []
    for o, s in zip(t.ops, lam.coords):
        if s == 0.0:
            out.append(o)
            continue
        eye = sp.identity(o.dim, dtype=complex, format="csr")
        out.append(HermitianOperator(o.mat - s * eye))
    return out


@dataclass
class GapResult:
    """Both gaps at one probe plus the commutator bound relating them."""

    lam: ProbePoint
    mu_q: Optional[float] = None
    mu_c: Optional[float] = None
    commutator_bound: Optional[float] = None


def _probes(t: ObservableTuple, lams) -> np.ndarray:
    """The probe rule: a (k, d) array of finite coordinates, as floats."""
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all():
        raise InvalidOperator("probe coordinates must be finite")
    if lams.ndim not in (0, 2):
        raise DimensionMismatch(f"a batch of probes needs shape (k, {t.d_total}), "
                                f"got {lams.shape}")
    if lams.ndim == 0 or lams.shape[1] != t.d_total:
        raise DimensionMismatch(f"probe has {lams.shape[1] if lams.ndim else 1} "
                                f"coordinates for a {t.d_total}-tuple")
    return lams


def _checked_probe(t: ObservableTuple, lam) -> ProbePoint:
    """One probe (a ProbePoint or its coordinates) under ``_probes``."""
    coords = np.atleast_1d(getattr(lam, "coords", lam))
    if coords.ndim > 1 and np.isfinite(np.asarray(coords, dtype=float)).all():
        raise DimensionMismatch(f"probe has {coords.shape[-1]} coordinates "
                                f"for a {t.d_total}-tuple")
    return ProbePoint(_probes(t, coords[None])[0])


def tall_composite(t: ObservableTuple, lam) -> np.ndarray:
    """Vertical stack of (X_j - lam_j I), shape (d*n, n), in CSR if any X_j
    is: ``smallest_singular_value`` refuses that above 4096^2 entries."""
    blocks = [o.mat for o in shifted_observables(t, lam)]
    return (sp.vstack([sp.csr_matrix(b) for b in blocks], format="csr")
            if any(o.is_sparse for o in t.ops) else np.vstack(blocks))


def quadratic_operator(t: ObservableTuple, lam) -> HermitianOperator:
    """Q_lam = sum (X_j - lam_j)^2, positive-semidefinite, size n x n."""
    lam = _checked_probe(t, lam)
    return HermitianOperator(quadratic_pencil(t).at(lam.coords))


def localizer(t: ObservableTuple, lam, rep: CliffordRep) -> HermitianOperator:
    """L_lam = sum (X_j - lam_j) (x) Gamma_j of dimension n * rep_dim."""
    lam = _checked_probe(t, lam)
    return HermitianOperator(localizer_pencil(t, rep).at(lam.coords))


#: bytes a dense batch holds at once, as four arrays of k dim^2 entries: its
#: ``Pencil.values`` (at most dim^2 per probe) and their temporaries while
#: they are assembled (up to two), then those values, the ``Pencil.dense``
#: stack they are scattered into and ``eigvalsh``'s copy of that stack
STACK_BYTES = 1 << 25


def _spectra(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix in a (k, n, n) stack,
    by one ``eigvalsh`` call; a single matrix is a stack of one, so it gets
    the same bytes as inside a larger stack.  If LAPACK fails on the stack,
    its matrices are solved one by one and a failing one reads NaN, with
    one warning."""
    try:
        return np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError:
        w = np.full(stack.shape[:2], np.nan)
        for i in range(len(stack)):
            with contextlib.suppress(np.linalg.LinAlgError):
                w[i] = np.linalg.eigvalsh(stack[i:i + 1])[0]
        _LOG.warning("eigvalsh failed on a stack of %d matrices of dim %d; "
                     "solved one by one, %d read NaN", len(stack),
                     stack.shape[1], np.isnan(w[:, 0]).sum())
        return w


def _q_scale(t, lam) -> float:
    """sum_j (||X_j|| + |lam_j|)^2 >= ||Q_lam|| from the norm bounds, at
    least 1: the scale of Q's tolerances, which unlike ||Q||_F is size-free."""
    return max(1.0, sum((o.norm_bound + abs(s)) ** 2
                        for o, s in zip(t.ops, lam)))


def _quadratic_value(t, pencil, lam, w, vals, v) -> float:
    """mu^Q from Q's smallest eigenvalue w (nearest 0, for a sparse Q), with
    the PSD clamp check and the unsquared re-evaluation of values too small
    to trust, both on the scale ``_q_scale``.  ``v`` is w's eigenvector if
    the solve gave one (every sparse solve does)."""
    scale = _q_scale(t, lam)
    if w < -NEGATIVE_EIG_TOL * scale:
        raise NumericalFailure(f"Q eigenvalue {w:.3e} below the PSD clamp")
    w = max(w, 0.0)
    if w >= np.sqrt(np.finfo(float).eps) * scale:
        return float(np.sqrt(w))
    # low confidence: the eigen-error sum_j ||(X_j - lam_j) v||^2 at the
    # minimizing eigenvector is accurate without squaring
    if v is None:
        v = eigenpair_nearest_zero(pencil.matrix(vals))[1]
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
    _check_accuracy(accuracy)
    lams = _probes(t, lams)
    pencil = quadratic_pencil(t) if kind == "quadratic" else \
        localizer_pencil(t, rep or build_clifford(t.d_total))
    dim = pencil.dim

    def value(lam, row, w):
        """The gap from the composite's signed eigenvalue w (None: solve
        the sparse composite for it and its eigenvector)."""
        v = None
        try:
            if w is None:
                m, order = pencil.ordered(lam)
                w, v = eigenpair_nearest_zero(m, accuracy, order=order)
            elif np.isnan(w):
                raise NumericalFailure("dense eigensolver did not converge",
                                       details={"dim": dim})
            return abs(w) if kind == "clifford" else \
                _quadratic_value(t, pencil, lam, w, row, v)
        except NumericalFailure as exc:
            return exc

    if not solves_densely(dim):
        return [value(lam, None, None) for lam in lams]
    chunk = max(1, STACK_BYTES // (4 * 16 * dim * dim))
    out = []
    for lo in range(0, len(lams), chunk):
        part = lams[lo:lo + chunk]
        vals = pencil.values(part)
        w = _spectra(pencil.dense(vals))
        # Q is PSD: its smallest eigenvalue, so the clamp check sees a
        # negative one; L: the eigenvalue nearest 0
        w = w[:, 0] if kind == "quadratic" else \
            w[np.arange(len(w)), np.argmin(np.abs(w), axis=1)]
        out.extend(value(lam, row, float(wi))
                   for lam, row, wi in zip(part, vals, w))
    return out


def _single(t, lam, kind, rep, accuracy) -> float:
    value = gap_values(t, [_checked_probe(t, lam).coords], kind, rep, accuracy)[0]
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
    m = [o.mat for o in t.ops]  # the commuting block's pairs give 0: skipped
    return sum((operator_norm(m[j] @ m[k] - m[k] @ m[j])
                for j, k in itertools.combinations(range(t.d_total), 2)
                if k >= t.commuting_prefix), 0.0)


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
    lam = _checked_probe(t, lam)
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

    Returns ``(state, degenerate, mu_q)`` from one solve of Q_lam for its
    lowest eigenpair (w, v), whose residual must be at most 1e-8 times
    ``_q_scale``; ``degenerate`` is set when ``count_below``, or a dense
    solve's own spectrum, has a second eigenvalue below ``w + 1e-8 max(1,
    |w|)``.  v is returned as-is (a degenerate minimum has no preferred
    basis), and mu^Q follows ``quadratic_gap``'s rules.
    """
    lam = _checked_probe(t, lam)
    _check_accuracy(accuracy)
    pencil = quadratic_pencil(t)
    m, order = pencil.ordered(lam.coords)
    # a dense Q's one LAPACK call gives the pair and the count
    spectrum, w, v = _eigh_nearest_zero(m) if solves_densely(pencil.dim) else \
        (None, *eigenpair_nearest_zero(m, accuracy, order))
    u = v if order is None else v[order]  # in m's layout
    resid = np.linalg.norm(m @ u - w * u)
    if resid > 1e-8 * _q_scale(t, lam.coords):
        raise NumericalFailure(f"minimizing state residual {resid:.3e} too large")
    s = w + DEGENERACY_TOL * max(1.0, abs(w))
    degenerate = (count_below(m, s, order) if spectrum is None
                  else int(np.count_nonzero(spectrum < s))) > 1
    mu = _quadratic_value(t, pencil, lam.coords, w, None, v)
    return StateVector(v, normalize=True), degenerate, mu


GRADING_TOL = 1e-10


def reduced_localizer(x: HermitianOperator, h: HermitianOperator,
                      lambda_x: float, grading) -> np.ndarray:
    """((X - lambda_x I) + i H) Gamma for a chiral pair (X, H).

    Requires the grading to commute with X, anticommute with H and square to
    the identity; the localizer spectrum is then the +-eigenvalue pairs of
    this half-size matrix, and its determinant is real.
    """
    g = grading.mat if isinstance(grading, HermitianOperator) else np.asarray(grading)
    g = g.toarray() if sp.issparse(g) else np.asarray(g, dtype=complex)
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
    m = np.asarray(a.toarray() if sp.issparse(a) else a, dtype=complex)
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
    lam = _checked_probe(t, lam)
    sm = np.asarray(s.toarray() if sp.issparse(s) else s, dtype=complex)
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
