"""Composite pencils, the dense/sparse cutoffs and solver determinism."""

import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

import jointspec.composites as composites
import jointspec.operators as operators
from jointspec.clifford import build_clifford
from jointspec.composites import (ObservableTuple, clifford_gap,
                                  localizer_pencil, quadratic_gap,
                                  quadratic_pencil)
from jointspec.errors import NumericalFailure
from jointspec.models import (build_chern2d, build_example, build_ssh,
                              scale_positions)
from jointspec.operators import (HermitianOperator, eigenpair_nearest_zero,
                                 solves_densely)
from jointspec.sweep import GridSpec, sweep_grid


def direct_q(t, lam):
    """Q_lam assembled densely from its definition."""
    q = 0
    for o, s in zip(t.ops, lam):
        m = o.dense() - s * np.eye(t.dim)
        q = q + m @ m
    return q


def direct_l(t, lam, rep):
    """L_lam assembled densely from its definition."""
    return sum(np.kron(o.dense() - s * np.eye(t.dim), g)
               for o, s, g in zip(t.ops, lam, rep.gammas))


def sparse_pair(n, seed):
    """Diagonal position and a sparse banded Hamiltonian, stored sparse."""
    r = np.random.default_rng(seed)
    x = sp.diags(np.linspace(-3.0, 3.0, n)).tocsr()
    off = r.standard_normal(n - 1) + 1j * r.standard_normal(n - 1)
    h = sp.diags([off, r.standard_normal(n), off.conj()], [1, 0, -1]).tocsr()
    return ObservableTuple([x, h], commuting_prefix=1)


def dense_tuple(n, seed):
    r = np.random.default_rng(seed)
    x = np.diag(np.linspace(-2.0, 2.0, n))
    a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return ObservableTuple([x, (a + a.conj().T) / 2], commuting_prefix=1)


# -- cutoffs ------------------------------------------------------------------


def test_cutoff_decision_at_both_constants():
    assert solves_densely(512, sparse=True)
    assert not solves_densely(513, sparse=True)
    assert solves_densely(4096, sparse=False)
    assert not solves_densely(4097, sparse=False)


@pytest.mark.parametrize("n,fmt", [(512, "dense"), (513, "csc")])
def test_quadratic_both_sides_of_sparse_cutoff(n, fmt):
    t = sparse_pair(n, seed=n)
    lam = [0.37, 0.21]
    assert quadratic_pencil(t, lam).fmt == fmt
    ref = np.sqrt(np.linalg.eigvalsh(direct_q(t, lam)).min())
    assert abs(quadratic_gap(t, lam) - ref) <= 1e-9


@pytest.mark.parametrize("n,fmt", [(256, "dense"), (257, "csc")])
def test_clifford_both_sides_of_sparse_cutoff(n, fmt):
    t = sparse_pair(n, seed=n)
    rep = build_clifford(2)
    lam = [0.37, 0.21]
    assert localizer_pencil(t, rep, lam).fmt == fmt
    ref = np.abs(np.linalg.eigvalsh(direct_l(t, lam, rep))).min()
    assert abs(clifford_gap(t, lam, rep) - ref) <= 1e-9


@pytest.mark.parametrize("n,fmt", [(32, "dense"), (33, "csc")])
def test_both_sides_of_dense_cutoff(monkeypatch, n, fmt):
    # A dense composite at the real cutoff is a 4096 x 4096 complex matrix
    # (268 MB per copy), so the boundary is moved to 64 and crossed by L
    # (dim 64 or 66); the decision at 4096 itself is tested above.
    monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", 64)
    t = dense_tuple(n, seed=n)
    rep = build_clifford(2)
    lam = [0.3, -0.1]
    assert localizer_pencil(t, rep, lam).fmt == fmt
    ref = np.abs(np.linalg.eigvalsh(direct_l(t, lam, rep))).min()
    assert abs(clifford_gap(t, lam, rep) - ref) <= 1e-9


# -- pencils -----------------------------------------------------------------


def test_pencil_matches_direct_assembly():
    cases = [
        # dense pencils, diagonal positions
        (scale_positions(build_chern2d(4, 4), 0.5),
         ([0.3, -0.2, 0.1], [0.0, 0.0, 0.0], [1.1, 0.4, -0.7])),
        # two non-diagonal coordinates: linear and square terms only
        (build_example("pair_3x3"), ([0.3, -0.2], [0.0, 0.0], [-1.1, 0.4])),
        # CSC pencils; lam_E = 0 leaves H's linear terms out
        (sparse_pair(600, seed=7), ([0.3, -0.2], [0.3, 0.0], [-1.1, 0.4])),
    ]
    for t, probes in cases:
        rep = build_clifford(t.d_total)
        for lam in probes:
            assert quadratic_pencil(t, lam).fmt == \
                ("csc" if t.is_sparse else "dense")
            q = quadratic_pencil(t, lam).at(lam)
            ell = localizer_pencil(t, rep, lam).at(lam)
            q, ell = (m.toarray() if sp.issparse(m) else m for m in (q, ell))
            np.testing.assert_allclose(q, direct_q(t, lam), atol=1e-13)
            np.testing.assert_allclose(ell, direct_l(t, lam, rep), atol=1e-14)


def test_pencil_calls_never_share_values():
    t = build_chern2d(17, 17)  # Q dim 578: sparse, sharing one pattern
    pencil = quadratic_pencil(t, [0.5, 0.5, 0.5])
    assert pencil.fmt == "csc"
    first = pencil.at([0.5, 0.5, 0.5])
    kept = first.copy()
    pencil.at([1.5, -0.5, 0.5])
    assert (first != kept).nnz == 0


def test_sweep_builds_no_operator_per_cell(monkeypatch):
    calls = []
    init = HermitianOperator.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    counts = []
    for cells in (5, 11):
        t = build_ssh(4, 0.7, 1.4)
        spec = GridSpec(axes=((0.0, 9.0, cells), (-3.0, 3.0, cells)))
        monkeypatch.setattr(HermitianOperator, "__init__", counting)
        calls.clear()
        for kind in ("quadratic", "clifford"):
            sweep_grid(t, spec, kind)
        monkeypatch.setattr(HermitianOperator, "__init__", init)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


def test_dense_batch_holds_one_stack_at_a_time(monkeypatch):
    # 40 probes of a 200 x 200 dense Q are 25.6 MB of composites, and their
    # assembly makes temporaries of the same size; an 8 MB budget takes
    # three probes at a time
    stack = 8 << 20
    monkeypatch.setattr(composites, "STACK_BYTES", stack)
    t = dense_tuple(200, seed=5)
    assert quadratic_pencil(t).fmt == "dense"
    lams = np.column_stack([np.linspace(-1.0, 1.0, 40), np.zeros(40)])
    tracemalloc.start()
    try:
        values = composites.gap_values(t, lams, "quadratic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(v, Exception) for v in values)
    assert peak <= stack + (1 << 20)


def test_negative_q_eigenvalue_fails_when_another_is_nearer_zero(monkeypatch):
    # planted Q spectrum (-1, 1e-3, 5): the eigenvalue nearest 0 would pass
    # the PSD clamp, the smallest one must not
    t = dense_tuple(3, seed=1)
    planted = np.diag([-1.0, 1e-3, 5.0]).astype(complex).ravel()
    monkeypatch.setattr(composites.Pencil, "values",
                        lambda self, lams: np.tile(planted, (len(lams), 1)))
    with pytest.raises(NumericalFailure, match="PSD clamp"):
        quadratic_gap(t, [0.1, 0.2])


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("nx", [4, 17])
def test_standalone_call_equals_sweep_cell(nx):
    # 4x4: both composites dense; 17x17: Q (578) and L (1156) sparse
    t = scale_positions(build_chern2d(nx, nx), 0.5)
    rep = build_clifford(3)
    spec = GridSpec(axes=((-2.0, 2.0, 3),), fixed_coords={1: 0.25, 2: 0.5})
    for kind, single in (("quadratic", lambda lam: quadratic_gap(t, lam)),
                         ("clifford", lambda lam: clifford_gap(t, lam, rep))):
        grid = sweep_grid(t, spec, kind, rep=rep)
        for i in range(3):
            lam = spec.probe(3, (i,)).coords
            assert single(lam) == grid.values[i]


def test_sparse_sweep_repeats_bitwise():
    t = scale_positions(build_chern2d(12, 12), 0.5)  # L dim 576 > 512
    rep = build_clifford(3)
    assert localizer_pencil(t, rep).fmt == "csc"
    spec = GridSpec(axes=((-3.25, 3.25, 6),), fixed_coords={1: 0.0, 2: 0.0})
    a = sweep_grid(t, spec, "clifford", rep=rep)
    b = sweep_grid(t, spec, "clifford", rep=rep)
    assert a.values.tobytes() == b.values.tobytes()
    lam = spec.probe(3, (2,)).coords
    assert clifford_gap(t, lam, rep) == a.values[2]


# -- low-confidence quadratic gap and logging --------------------------------


def test_low_confidence_mu_q_on_tall_sparse_composite(caplog):
    # d*n = 4200 > 4096 with a true gap of 0.01: the squared eigenvalue 1e-4
    # lies below sqrt(eps) * sum_j (||X_j|| + |lam_j|)^2, so the unsquared
    # eigen-error is used
    n = 2100
    xs = np.linspace(-1000.0, 1000.0, n)
    hs = np.cos(np.arange(n))
    t = ObservableTuple([sp.diags(xs).tocsr(), sp.diags(hs).tocsr()],
                        commuting_prefix=2)
    lam = [xs[700] + 0.006, hs[700] - 0.008]
    with caplog.at_level(logging.INFO, logger="jointspec"):
        mu = quadratic_gap(t, lam)
    assert abs(mu - 0.01) <= 1e-10
    assert any("low-confidence" in r.getMessage() for r in caplog.records)


def test_q_clamp_scale_does_not_grow_with_the_lattice(monkeypatch):
    # Chern-20 (Q dim 800, sparse) at probe 0 with a planted eigenvalue
    # -1e-7: ||Q||_F = 2444 would pass it through the PSD clamp and report
    # the planted vector's eigen-error; the size-free scale
    # sum_j (||X_j|| + |lam_j|)^2 = 244.5 puts the clamp at -2.4e-8
    t = build_chern2d(20, 20)
    lam = [0.0, 0.0, 0.0]
    assert quadratic_pencil(t, lam).fmt == "csc"
    v = np.zeros((t.dim, 1), dtype=complex)
    v[0] = 1.0
    monkeypatch.setattr(composites, "eigenpair_nearest_zero",
                        lambda m, accuracy, k=1: (np.array([-1e-7]), v))
    with pytest.raises(NumericalFailure, match="below the PSD clamp"):
        quadratic_gap(t, lam)


def singular_diagonal():
    return sp.diags(np.linspace(-1.0, 1.0, 601)).tocsr()  # exact zero inside


def test_singular_matrix_path_is_logged(caplog):
    m = singular_diagonal()
    with caplog.at_level(logging.INFO, logger="jointspec"):
        w, _ = eigenpair_nearest_zero(m)
    assert abs(w[0]) <= 1e-8
    messages = [r.getMessage() for r in caplog.records]
    assert any("singular factorization" in msg for msg in messages)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="jointspec"):
        again, _ = eigenpair_nearest_zero(m)
    assert again[0] == w[0]  # logging leaves the value
    assert not caplog.records


def plant(monkeypatch, exc):
    """Make every shift-invert solve raise exc."""
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(operators, "_shift_invert", failing)


@pytest.fixture
def no_convergence(monkeypatch):
    plant(monkeypatch, ArpackNoConvergence("planted", np.empty(0),
                                           np.empty((0, 0))))


@pytest.fixture
def singular_twice(monkeypatch):
    plant(monkeypatch, RuntimeError("Factor is exactly singular"))


def fallback_warnings(caplog):
    return [r for r in caplog.records if r.levelno == logging.WARNING
            and "dense eigendecomposition" in r.getMessage()]


def test_singular_at_both_shifts_recovers_densely(singular_twice, caplog):
    m = singular_diagonal()
    with caplog.at_level(logging.INFO, logger="jointspec"):
        w, v = eigenpair_nearest_zero(m, k=2)
    np.testing.assert_array_equal(np.abs(w),
                                  np.sort(np.abs(m.diagonal()))[:2])
    assert np.linalg.norm(m @ v - v * w) <= 1e-12
    assert len(fallback_warnings(caplog)) == 1


def test_singular_above_dense_cutoff_reads_zero(singular_twice, monkeypatch,
                                                caplog):
    monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", 550)
    with caplog.at_level(logging.INFO, logger="jointspec"):
        w, v = eigenpair_nearest_zero(singular_diagonal(), k=2)
        t = chern_half(12)  # L dim 576
        rep = build_clifford(3)
        assert clifford_gap(t, [0.3, -0.2, 0.0], rep) == 0.0
        assert quadratic_gap(sparse_pair(600, seed=3), [0.2, 0.1]) == 0.0
        with pytest.raises(NumericalFailure):
            composites.minimizing_state(sparse_pair(600, seed=3), [0.2, 0.1])
    assert v is None and np.all(w == 0.0)
    assert any("reported as 0" in r.getMessage() for r in caplog.records)
    assert not fallback_warnings(caplog)


def test_no_convergence_recovers_densely(no_convergence, caplog):
    t = chern_half(12)  # L dim 576: sparse, below the dense cutoff
    rep = build_clifford(3)
    lam = [0.3, -0.2, 0.0]
    assert localizer_pencil(t, rep, lam).fmt == "csc"
    ref = np.abs(np.linalg.eigvalsh(direct_l(t, lam, rep))).min()
    with caplog.at_level(logging.INFO, logger="jointspec"):
        mu = clifford_gap(t, lam, rep)
    assert abs(mu - ref) <= 1e-9
    assert len(fallback_warnings(caplog)) == 1


def test_minimizing_state_dense_fallback_is_logged(no_convergence, caplog):
    t = sparse_pair(600, seed=3)
    lam = [0.2, 0.1]
    with caplog.at_level(logging.WARNING, logger="jointspec"):
        state, _, _ = composites.minimizing_state(t, lam)
    assert state.dim == 600
    assert len(fallback_warnings(caplog)) == 1
    q = direct_q(t, lam)
    rayleigh = np.vdot(state.vec, q @ state.vec).real
    assert abs(rayleigh - np.linalg.eigvalsh(q)[0]) <= 1e-9


def test_no_convergence_above_dense_cutoff_fails(no_convergence, monkeypatch,
                                                 caplog):
    monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", 550)
    t = chern_half(12)
    rep = build_clifford(3)
    lam = [0.3, -0.2, 0.0]
    with caplog.at_level(logging.INFO, logger="jointspec"):
        cell, = composites.gap_values(t, [lam], "clifford", rep)
        assert isinstance(cell, NumericalFailure)
        grid = sweep_grid(t, GridSpec(axes=((0.3, 0.4, 2),),
                                      fixed_coords={1: -0.2, 2: 0.0}),
                          "clifford", rep=rep)
        assert [f["index"] for f in grid.failures] == [[0], [1]]
        with pytest.raises(NumericalFailure):
            composites.minimizing_state(sparse_pair(600, seed=3), [0.2, 0.1])
    assert not fallback_warnings(caplog)


# -- symmetric-ordered shift-invert factor -------------------------------------


@pytest.fixture
def splu_calls(monkeypatch):
    """Keyword arguments of every splu call: ours and eigsh's own."""
    import scipy.sparse.linalg as spla
    from scipy.sparse.linalg._eigen.arpack import arpack

    calls = []
    orig = spla.splu

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    monkeypatch.setattr(arpack, "splu", spy)
    return calls


def symmetric(calls):
    return [c for c in calls if c.get("options", {}).get("SymmetricMode")]


def chern_half(nx):
    return scale_positions(build_chern2d(nx, nx), 0.5)


def dense_nearest_zero(m, k=1):
    w = np.linalg.eigvalsh(m.toarray() if sp.issparse(m) else m)
    return w[np.argsort(np.abs(w))[:k]]


@pytest.mark.parametrize("nx,q_fmt", [(12, "dense"), (20, "csc")])
def test_chern_gaps_match_dense_at_e0(splu_calls, nx, q_fmt):
    # 12x12: Q (288) below the sparse cutoff, L (576) above; 20x20: both above
    t = chern_half(nx)
    rep = build_clifford(3)
    lam = [0.3, -0.2, 0.0]
    assert quadratic_pencil(t, lam).fmt == q_fmt
    assert localizer_pencil(t, rep, lam).fmt == "csc"
    ref_c = np.abs(np.linalg.eigvalsh(direct_l(t, lam, rep))).min()
    ref_q = np.sqrt(np.linalg.eigvalsh(direct_q(t, lam)).min())
    assert abs(clifford_gap(t, lam, rep) - ref_c) <= 1e-9
    assert abs(quadratic_gap(t, lam) - ref_q) <= 1e-9
    sparse_solves = 1 + (q_fmt == "csc")
    assert len(splu_calls) == len(symmetric(splu_calls)) == sparse_solves


def test_zero_diagonal_takes_partial_pivoting(splu_calls):
    # E = 2 is the on-site energy: L has zero diagonal entries, where the
    # diagonally pivoted factor would pivot off the diagonal
    t = chern_half(12)
    rep = build_clifford(3)
    lam = [0.0, 0.0, 2.0]
    m = localizer_pencil(t, rep, lam).at(lam)
    assert np.count_nonzero(m.diagonal() == 0) > 0
    ref = np.abs(np.linalg.eigvalsh(direct_l(t, lam, rep))).min()
    assert abs(clifford_gap(t, lam, rep) - ref) <= 1e-9
    assert splu_calls and not symmetric(splu_calls)


def test_inaccurate_symmetric_factor_is_redone(splu_calls, caplog):
    # just off the on-site energy the unpivoted factor has tiny pivots and
    # its eigenvalue misses its Rayleigh quotient
    t = chern_half(12)
    rep = build_clifford(3)
    lam = [0.0, 0.0, 2.0 + 1e-9]
    ref = np.abs(np.linalg.eigvalsh(direct_l(t, lam, rep))).min()
    with caplog.at_level(logging.INFO, logger="jointspec"):
        mu = clifford_gap(t, lam, rep)
    assert abs(mu - ref) <= 1e-9
    assert [len(symmetric(splu_calls)), len(splu_calls)] == [1, 2]
    assert sum("Rayleigh quotient" in r.getMessage()
               for r in caplog.records) == 1


@pytest.mark.parametrize("energy", [0.0, 2.0, 2.0 + 1e-9])
def test_two_eigenpairs_nearest_zero_match_dense(energy):
    t = chern_half(12)
    rep = build_clifford(3)
    lam = [0.0, 0.0, energy]
    m = localizer_pencil(t, rep, lam).at(lam)
    w, v = operators.eigenpair_nearest_zero(m, k=2)
    ref = dense_nearest_zero(m, k=2)
    np.testing.assert_allclose(np.abs(w), np.abs(ref), rtol=0, atol=1e-9)
    for i in range(2):
        assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) <= 1e-8


def test_sparse_minimizing_state_matches_dense():
    t = chern_half(20)  # Q dim 800: sparse, k = 2
    lam = [0.3, -0.2, 0.0]
    assert quadratic_pencil(t, lam).fmt == "csc"
    state, degenerate, _ = composites.minimizing_state(t, lam)
    q = direct_q(t, lam)
    w = np.linalg.eigvalsh(q)
    rayleigh = np.vdot(state.vec, q @ state.vec).real
    assert abs(rayleigh - w[0]) <= 1e-9
    assert degenerate == (w[1] - w[0] <= composites.DEGENERACY_TOL)


def test_extract_state_factorizes_q_once(splu_calls):
    from jointspec.models import ScaledTuple
    from jointspec.states import check_identity, extract_state

    base = build_chern2d(17, 17)  # Q dim 578 > 512
    lam = [7.0, 0.0, 0.0]
    report = extract_state(ScaledTuple(base, 0.5), lam)
    assert len(splu_calls) == 1
    check_identity(report)
    mu = quadratic_gap(scale_positions(base, 0.5), [3.5, 0.0, 0.0])
    assert abs(report.mu_q - mu) <= 1e-12 * max(1.0, mu)
