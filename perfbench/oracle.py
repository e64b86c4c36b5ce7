"""Independent reference computations and the checks built on them.

Nothing here imports `jointspec`: the models and composites are assembled
from their textbook definitions so that the checks compare the library
against a second implementation, not against itself.  The Clifford matrices
follow the library's documented convention (sigma_x, sigma_y, sigma_z in
order), which fixes the odd-d representation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# models


def ssh_ops(n_cells=4, v=0.7, w=1.4):
    """(X, H) of the SSH chain: sites 1..2n, hoppings v, w, v, ..."""
    n = 2 * n_cells
    h = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = v if i % 2 == 0 else w
    return [np.diag(np.arange(1.0, n + 1)).astype(complex), h]


def chern_ops(nx, ny, kappa=1.0, A=1.0, B=-1.0, M=-2.0):
    """(X, Y, H) of the two-orbital Chern insulator on an open nx-by-ny
    lattice (C = D = 0), as sparse CSR matrices; positions scaled by kappa."""
    onsite = (M - 4 * B) * SZ
    east = B * SZ - 0.5j * A * SX
    north = B * SZ + 0.5j * A * SY
    rows, cols, vals = [], [], []

    def block(a, b, m):
        for p in range(2):
            for q in range(2):
                if m[p, q] != 0:
                    rows.append(2 * a + p)
                    cols.append(2 * b + q)
                    vals.append(m[p, q])

    site = lambda ix, iy: iy * nx + ix  # noqa: E731
    for iy in range(ny):
        for ix in range(nx):
            s = site(ix, iy)
            block(s, s, onsite)
            if ix + 1 < nx:
                block(s, site(ix + 1, iy), east)
                block(site(ix + 1, iy), s, east.conj().T)
            if iy + 1 < ny:
                block(s, site(ix, iy + 1), north)
                block(site(ix, iy + 1), s, north.conj().T)
    n = 2 * nx * ny
    h = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    xs = np.repeat(np.tile(np.arange(nx) - (nx - 1) / 2.0, ny), 2)
    ys = np.repeat(np.repeat(np.arange(ny) - (ny - 1) / 2.0, nx), 2)
    return [sp.diags(kappa * xs).tocsr().astype(complex),
            sp.diags(kappa * ys).tocsr().astype(complex), h]


# ---------------------------------------------------------------------------
# composites and gaps


def _eye(n, sparse):
    return sp.identity(n, dtype=complex, format="csr") if sparse else np.eye(n)


def quadratic(ops, lam):
    """Q = sum_j (X_j - lam_j)^2."""
    sparse = sp.issparse(ops[0])
    eye = _eye(ops[0].shape[0], sparse)
    q = 0
    for a, s in zip(ops, lam):
        m = a - s * eye
        q = q + m @ m
    return q


def localizer(ops, lam):
    """L = sum_j (X_j - lam_j) (x) Gamma_j with Gamma = Pauli matrices."""
    sparse = sp.issparse(ops[0])
    eye = _eye(ops[0].shape[0], sparse)
    kron = sp.kron if sparse else np.kron
    out = 0
    for a, s, g in zip(ops, lam, PAULIS):
        out = out + kron(a - s * eye, g)
    return out.tocsr() if sparse else out


def _norm1(m):
    """max row sum of |m|: an upper bound on the operator norm."""
    return float(abs(m).sum(axis=1).max())


def _nearest_zero(m):
    """Eigenvalue of Hermitian `m` nearest zero (dense or shift-invert)."""
    if sp.issparse(m):
        v0 = np.ones(m.shape[0], dtype=complex)
        w = spla.eigsh(m.tocsc(), k=1, sigma=0.0, which="LM", v0=v0, tol=1e-13,
                       return_eigenvectors=False)
        return float(w[0])
    w = np.linalg.eigvalsh(m)
    return float(w[np.argmin(np.abs(w))])


def mu_q(ops, lam):
    """(mu^Q squared, ||Q|| bound) for the quadratic composite."""
    q = quadratic(ops, lam)
    return max(_nearest_zero(q), 0.0), _norm1(q)


def mu_c(ops, lam):
    """(mu^C, ||L|| bound) for the localizer."""
    ell = localizer(ops, lam)
    return abs(_nearest_zero(ell)), _norm1(ell)


def commutator_norm(a, b):
    """||a b - b a|| (dense SVD, or Lanczos on C^H C when sparse)."""
    c = a @ b - b @ a
    if not sp.issparse(c):
        return float(np.linalg.norm(c, 2))
    c = c.tocsr()
    ch = c.conj().T.tocsr()
    op = spla.LinearOperator(c.shape, matvec=lambda x: ch @ (c @ x),
                             dtype=complex)
    v0 = np.ones(c.shape[0], dtype=complex)
    w = spla.eigsh(op, k=1, which="LA", v0=v0, tol=1e-12,
                   return_eigenvectors=False)
    return float(np.sqrt(w[0]))


def bound_2d(ops):
    """||[H, X + iY]||, the tight gap-difference bound for (X, Y, H)."""
    x, y, h = ops
    return commutator_norm(h, x + 1j * y)


def truncated_mu(ops, lam, rho):
    """min(rho, mu^Q) of the tuple shifted to lam, with H's far-field
    couplings dropped and every operator compressed to the radius-rho ball."""
    pos = np.sqrt(sum((np.real(a.diagonal()) - s) ** 2
                      for a, s in zip(ops[:-1], lam[:-1])))
    keep = np.flatnonzero(pos <= rho)
    sub = [(a.tocsr()[keep][:, keep] if sp.issparse(a) else a[np.ix_(keep, keep)])
           for a in ops]
    sub = [s.toarray() if sp.issparse(s) else s for s in sub]
    q2, scale = mu_q(sub, lam)
    return min(rho, float(np.sqrt(q2))), scale


# ---------------------------------------------------------------------------
# checks


class Checks:
    """Counts checks run and failed, and keeps a note of each failure."""

    def __init__(self, accuracy):
        self.accuracy = accuracy
        self.run = 0
        self.failed = 0
        self.notes = []

    def expect(self, ok, what):
        self.run += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return bool(ok)

    def tol_sq(self, ref_sq, scale):
        """Tolerance on squared gaps: the solver's relative accuracy plus
        round-off of an eigenvalue of a matrix of norm `scale`."""
        return 10 * self.accuracy * max(1.0, ref_sq) + 1e3 * EPS * scale

    def gap(self, kind, value, ops, lam, what):
        """Compare one program gap with the reference at probe lam."""
        if kind == "quadratic":
            ref_sq, scale = mu_q(ops, lam)
            err = abs(value * value - ref_sq)
            tol = self.tol_sq(ref_sq, scale)
        else:
            ref, scale = mu_c(ops, lam)
            err = abs(value - ref)
            tol = 10 * self.accuracy * max(1.0, ref) + 1e3 * EPS * scale
        return self.expect(np.isfinite(value) and err <= tol,
                           f"{what}: {kind} gap {value!r} vs reference, "
                           f"error {err:.3e} > {tol:.3e}")

    def pair_bound(self, mq, mc, bound, what):
        """|mu_q^2 - mu_c^2| <= commutator bound (all arrays or scalars)."""
        mq, mc = np.asarray(mq, float), np.asarray(mc, float)
        gap = np.abs(mq * mq - mc * mc)
        bad = ~(gap <= bound + 1e-8)
        return self.expect(not bad.any(),
                           f"{what}: commutator bound {bound:.6g} exceeded at "
                           f"{int(bad.sum())} cells (max {np.nanmax(gap):.6g})")

    def epsilon_set(self, values, skipped, reference, eps, what):
        """The pruned sweep's eps-set equals the reference eps-set."""
        with np.errstate(invalid="ignore"):
            got = (np.asarray(values) <= eps) & ~np.asarray(skipped)
            ref = np.asarray(reference) <= eps
        diff = int((got != ref).sum())
        return self.expect(diff == 0,
                           f"{what}: eps-set differs from the unpruned "
                           f"reference at {diff} cells")

    def interval(self, lo, hi, value, what):
        slack = 10 * self.accuracy * max(1.0, abs(value))
        return self.expect(lo - slack <= value <= hi + slack,
                           f"{what}: [{lo:.10g}, {hi:.10g}] misses {value:.10g}")


def self_test(accuracy, ops, lam, kind, value, values=None, eps=None,
              interval=None):
    """Plant faults into the real checks; return (planted, caught).

    Always plants one perturbed gap: ``value`` is the program's gap at lam
    (already verified) shifted by one part in a million.  When a grid of
    ``values`` is given, its eps-set member nearest ``eps`` is marked skipped,
    which the eps-set comparison must reject.  ``interval`` = (lo, hi, value)
    plants a certified interval moved just above the value it must contain.
    """
    probe = Checks(accuracy)
    planted = 1
    probe.gap(kind, value * (1 + 1e-6) + 1e-9, ops, lam, "planted perturbation")
    if values is not None:
        v = np.asarray(values, float)
        members = np.flatnonzero(v.ravel() <= eps)
        if members.size:
            planted += 1
            skipped = np.zeros(v.size, bool)
            skipped[members[np.argmax(v.ravel()[members])]] = True
            probe.epsilon_set(v, skipped.reshape(v.shape), v, eps,
                              "planted skipped cell")
    if interval is not None:
        planted += 1
        lo, hi, val = interval
        shift = val - lo + 1e-6 * max(1.0, abs(val))
        probe.interval(lo + shift, hi + shift, val, "planted interval")
    return planted, probe.failed
