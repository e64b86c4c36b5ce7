"""Composite pencils, the dense/sparse cutoffs and solver determinism."""

import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import jointspec.composites as composites
import jointspec.operators as operators
from jointspec.cli import main
from jointspec.clifford import build_clifford
from jointspec.composites import (ObservableTuple, Pencil, clifford_gap,
                                  localizer, localizer_pencil, quadratic_gap,
                                  quadratic_operator, quadratic_pencil)
from jointspec.errors import NumericalFailure
from jointspec.models import (build_chern2d, build_example, build_ssh,
                              scale_positions)
from jointspec.operators import (HermitianOperator, StateVector,
                                 eigenpair_nearest_zero, solves_densely)
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
    # one size rule, whatever the storage; DENSE_EIGEN_CUTOFF picks no solver
    assert operators.SPARSE_EIGEN_CUTOFF == 512
    assert solves_densely(512)
    assert not solves_densely(513)
    assert not solves_densely(operators.DENSE_EIGEN_CUTOFF)


@pytest.mark.parametrize("n,fmt", [(512, "dense"), (513, "csc")])
def test_quadratic_both_sides_of_sparse_cutoff(n, fmt):
    t = sparse_pair(n, seed=n)
    lam = [0.37, 0.21]
    assert solves_densely(quadratic_pencil(t).dim) == (fmt == "dense")
    ref = np.sqrt(np.linalg.eigvalsh(direct_q(t, lam)).min())
    assert abs(quadratic_gap(t, lam) - ref) <= 1e-9


@pytest.mark.parametrize("n,fmt", [(256, "dense"), (257, "csc")])
def test_clifford_both_sides_of_sparse_cutoff(n, fmt):
    t = sparse_pair(n, seed=n)
    rep = build_clifford(2)
    lam = [0.37, 0.21]
    assert solves_densely(localizer_pencil(t, rep).dim) == (fmt == "dense")
    ref = np.abs(np.linalg.eigvalsh(direct_l(t, lam, rep))).min()
    assert abs(clifford_gap(t, lam, rep) - ref) <= 1e-9


@pytest.mark.parametrize("fill", ["banded", "full"])
@pytest.mark.parametrize("kind,n,fmt", [
    ("quadratic", 512, "dense"), ("quadratic", 513, "csc"),
    ("clifford", 256, "dense"), ("clifford", 257, "csc")])
def test_dense_stored_both_sides_of_sparse_cutoff(kind, n, fmt, fill):
    # a dense-stored tuple meets the same size rule as a sparse one: Q of
    # dim n, L of dim 2n on either side of 512; above it each observable
    # given dense is held in CSR where its fill allows, so the `full` tuple
    # mixes a CSR diagonal X with a dense H
    t = dense_tuple(n, seed=n) if fill == "full" else ObservableTuple(
        [o.dense() for o in sparse_pair(n, seed=n).ops], commuting_prefix=1)
    above = not solves_densely(n)
    assert [o.is_sparse for o in t.ops] == [above, above and fill == "banded"]
    rep = build_clifford(2)
    lam = [0.3, -0.1]
    if kind == "quadratic":
        assert solves_densely(quadratic_pencil(t).dim) == (fmt == "dense")
        ref = np.sqrt(np.linalg.eigvalsh(direct_q(t, lam)).min())
        assert abs(quadratic_gap(t, lam) - ref) <= 1e-9
    else:
        assert solves_densely(localizer_pencil(t, rep).dim) == (fmt == "dense")
        ref = np.abs(np.linalg.eigvalsh(direct_l(t, lam, rep))).min()
        assert abs(clifford_gap(t, lam, rep) - ref) <= 1e-9


def test_storage_is_decided_once_per_observable(tmp_path):
    # SSH-300 (dim 600) given dense is held in CSR, so it equals a copy
    # built in CSR byte for byte, fingerprint included; SSH-256 (dim 512)
    # and a fully dense H of dim 600 stay dense
    from jointspec.states import extract_state
    from jointspec.sweep import model_fingerprint
    from jointspec.truncation import shift_to_origin, truncated_gap

    assert not any(o.is_sparse for o in build_ssh(256).ops)
    assert not dense_tuple(600, seed=1).ops[-1].is_sparse
    given = build_ssh(300)
    hop = np.where(np.arange(599) % 2 == 0, 0.7, 1.4)
    built = ObservableTuple(
        [sp.diags(np.arange(1.0, 601.0), format="csr", dtype=complex),
         sp.diags([hop, hop], [1, -1], format="csr", dtype=complex)],
        commuting_prefix=1, meta=given.meta)
    assert all(o.is_sparse for o in given.ops)
    assert model_fingerprint(given) == model_fingerprint(built)
    rep, lam = build_clifford(2), [300.3, 0.1]
    a, b = (composites.gap_pair_with_bound(t, lam, rep)
            for t in (given, built))
    assert (a.mu_q, a.mu_c, a.commutator_bound) == (
        b.mu_q, b.mu_c, b.commutator_bound)
    spec = GridSpec(axes=((290.0, 310.0, 5), (-0.5, 0.5, 3)))
    for kind in ("quadratic", "clifford"):
        assert (sweep_grid(given, spec, kind).values.tobytes()
                == sweep_grid(built, spec, kind).values.tobytes())
    for rho in (5.0, 10.0):
        (a, ca), (b, cb) = (truncated_gap(shift_to_origin(t, [300.3, 0.0]), rho)
                            for t in (given, built))
        assert a == b and ca.C == cb.C
    for name, t in (("given", given), ("built", built)):
        extract_state(t, [300.3, 0.0]).to_json(tmp_path / f"{name}.json")
    assert (tmp_path / "given.json").read_bytes() == (
        tmp_path / "built.json").read_bytes()


# -- pencils -----------------------------------------------------------------


def test_pencil_matches_direct_assembly():
    cases = [
        # dense pencils, diagonal positions
        (scale_positions(build_chern2d(4, 4), 0.5),
         ([0.3, -0.2, 0.1], [0.0, 0.0, 0.0], [1.1, 0.4, -0.7])),
        # two non-diagonal coordinates: linear and square terms only
        (build_example("pair_3x3"), ([0.3, -0.2], [0.0, 0.0], [-1.1, 0.4])),
        # CSC pencils; lam_E = 0 zeroes H's linear terms
        (sparse_pair(600, seed=7), ([0.3, -0.2], [0.3, 0.0], [-1.1, 0.4])),
    ]
    for t, probes in cases:
        rep = build_clifford(t.d_total)
        for lam in probes:
            q = quadratic_pencil(t).at(lam)
            ell = localizer_pencil(t, rep).at(lam)
            q, ell = (m.toarray() if sp.issparse(m) else m for m in (q, ell))
            np.testing.assert_allclose(q, direct_q(t, lam), atol=1e-13)
            np.testing.assert_allclose(ell, direct_l(t, lam, rep), atol=1e-14)


@pytest.mark.parametrize("case", ["ssh", "banded", "full"])
def test_dense_stack_equals_each_sparse_composite(case):
    # the stack eigvalsh takes holds, bit for bit, the CSC composite of each
    # probe: on SSH-4, a banded pair of dim 512 stored dense and a fully
    # dense H of dim 200
    t = {"ssh": lambda: build_ssh(4, 0.7, 1.4),
         "banded": lambda: ObservableTuple([o.dense() for o in sparse_pair(
             512, seed=2).ops], commuting_prefix=1),
         "full": lambda: dense_tuple(200, seed=4)}[case]()
    lams = [[0.3, -0.2], [0.0, 0.0], [1.7, 0.4]]
    for pencil in (quadratic_pencil(t), localizer_pencil(t, build_clifford(2))):
        values = pencil.values(lams)
        stack = pencil.dense(values)
        assert stack.shape == (len(lams), pencil.dim, pencil.dim)
        for row, m in zip(values, stack):
            assert m.tobytes() == pencil.matrix(row).toarray().tobytes()


def test_a_term_held_by_a_diagonal_term_never_drops_out():
    # on a dense-stored SSH-300 chain (CSC pencils), L's E term lies on
    # X (x) Gamma_1's entries: one order at E = 0 and 0.2; Q's -2E H lies
    # off H^2's pattern, so its two orders differ
    t = build_ssh(300)
    rep = build_clifford(2)
    for lam in ([290.0, 0.0], [290.0, 0.2]):
        quadratic_pencil(t).ordered(lam)
        localizer_pencil(t, rep).ordered(lam)
    assert len(localizer_pencil(t, rep)._orders) == 1
    assert len(quadratic_pencil(t)._orders) == 2


def test_dense_stored_ssh_q_above_512_matches_banded_lapack(no_lapack):
    # Q = (X - 1010)^2 + H^2 of SSH-1000 (dim 2000) is pentadiagonal;
    # LAPACK's full eigensolver is ~5e-10 off the banded one here
    from scipy.linalg import eig_banded

    t = build_ssh(1000)
    lam = [1010.0, 0.0]
    x, h = (sp.csr_matrix(o.mat.real) for o in t.ops)
    shifted = x - lam[0] * sp.identity(t.dim, format="csr")
    q = (shifted @ shifted + h @ h).todia()
    bands = np.zeros((3, t.dim))
    for k in range(3):
        bands[k, :t.dim - k] = q.diagonal(-k)
    w = eig_banded(bands, lower=True, eigvals_only=True, select="i",
                   select_range=(0, 0))[0]
    assert abs(quadratic_gap(t, lam) - np.sqrt(w)) <= 1e-12 * np.sqrt(w)


def test_pencil_calls_never_share_values():
    t = build_chern2d(17, 17)  # Q dim 578: sparse, sharing one pattern
    pencil = quadratic_pencil(t)
    assert not solves_densely(pencil.dim)
    first = pencil.at([0.5, 0.5, 0.5])
    kept = first.copy()
    pencil.at([1.5, -0.5, 0.5])
    assert (first != kept).nnz == 0


def test_sweep_across_zero_builds_each_pencil_once(monkeypatch):
    # an (x, E) sweep of Chern-20 whose E axis crosses 0: both composites
    # are sparse, and a coordinate at 0 only zeroes entries of the pencil
    builds = []

    def spy(name):
        build = getattr(composites, name)

        def counting(*args):
            builds.append(name)
            return build(*args)

        monkeypatch.setattr(composites, name, counting)

    spy("_quadratic_pencil")
    spy("_affine_pencil")
    t = chern_half(20)
    rep = build_clifford(3)
    spec = GridSpec(axes=((-1.0, 1.0, 3), (-0.5, 0.5, 3)),
                    fixed_coords={1: 0.25})
    for kind in ("quadratic", "clifford"):
        sweep_grid(t, spec, kind, rep=rep)
        sweep_grid(t, spec, kind, rep=rep)
    assert sorted(builds) == ["_affine_pencil", "_quadratic_pencil"]


def test_sparse_composite_stores_no_zero():
    # E = 0 zeroes H's linear Q terms: neither the public operator nor the
    # composite the solvers take stores them
    t = chern_half(20)
    rep = build_clifford(3)
    lam = [0.3, -0.2, 0.0]
    q = quadratic_operator(t, lam).mat
    ordered, _ = quadratic_pencil(t).ordered(lam)
    assert q.nnz == ordered.nnz == 9760 < quadratic_pencil(t).at(lam).nnz
    assert np.all(q.data != 0) and np.all(ordered.data != 0)
    # x and y on a lattice site zero L's in-site entries as well; the public
    # operator leaves them out
    site = [0.25, -0.25, 0.0]
    ell = localizer(t, site, rep).mat
    assert np.all(ell.data != 0)
    np.testing.assert_array_equal(ell.toarray(), direct_l(t, site, rep))


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
    assert solves_densely(quadratic_pencil(t).dim)
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
    assert not solves_densely(localizer_pencil(t, rep).dim)
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
    assert not solves_densely(quadratic_pencil(t).dim)
    v = np.zeros(t.dim, dtype=complex)
    v[0] = 1.0
    monkeypatch.setattr(composites, "eigenpair_nearest_zero",
                        lambda m, accuracy, order=None: (-1e-7, v))
    with pytest.raises(NumericalFailure, match="below the PSD clamp"):
        quadratic_gap(t, lam)


def test_failing_stack_is_solved_one_by_one_with_a_warning(monkeypatch,
                                                           caplog):
    # SSH Q at (lam_x, 0) has Q_00 = (1 - lam_x)^2 + v^2: 4.49 at lam_x = 3,
    # the one matrix that also fails on its own
    eigvalsh = np.linalg.eigvalsh

    def failing(a):
        if len(a) > 1 or np.isclose(a[0, 0, 0].real, 4.49):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return eigvalsh(a)

    t = build_ssh(4, 0.7, 1.4)
    lams = [[0.0, 0.0], [3.0, 0.0], [1.0, 0.5]]
    ref = composites.gap_values(t, lams, "quadratic")
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with caplog.at_level(logging.WARNING, logger="jointspec"):
        values = composites.gap_values(t, lams, "quadratic")
    assert [r.getMessage() for r in caplog.records] == [
        "eigvalsh failed on a stack of 3 matrices of dim 8; solved one by "
        "one, 1 read NaN"]
    assert isinstance(values[1], NumericalFailure)
    assert [values[0], values[2]] == [ref[0], ref[2]]


def singular_diagonal():
    return sp.diags(np.linspace(-1.0, 1.0, 601)).tocsr()  # exact zero inside


def test_singular_matrix_path_is_logged(caplog):
    m = singular_diagonal()
    with caplog.at_level(logging.INFO, logger="jointspec"):
        w, _ = eigenpair_nearest_zero(m)
    assert abs(w) <= 1e-8
    messages = [r.getMessage() for r in caplog.records]
    assert any("singular factorization" in msg for msg in messages)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="jointspec"):
        again, _ = eigenpair_nearest_zero(m)
    assert again == w  # logging leaves the value
    assert not caplog.records


@pytest.fixture
def no_convergence(monkeypatch):
    """Cap shift-invert Lanczos at 2 steps, so no solve converges."""
    monkeypatch.setattr(operators, "SHIFT_INVERT_MAX_STEPS", 2)


@pytest.fixture
def singular_twice(monkeypatch):
    """Make every sparse factor raise as exactly singular."""
    import scipy.sparse.linalg as spla

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)


def fallback_warnings(caplog):
    return [r for r in caplog.records if r.levelno == logging.WARNING
            and "dense eigendecomposition" in r.getMessage()]


def test_singular_at_both_shifts_recovers_densely(singular_twice, caplog):
    m = singular_diagonal()
    with caplog.at_level(logging.INFO, logger="jointspec"):
        w, v = eigenpair_nearest_zero(m)
    assert w == 0.0
    assert np.linalg.norm(m @ v - w * v) <= 1e-12
    assert len(fallback_warnings(caplog)) == 1


def test_singular_above_dense_cutoff_fails(singular_twice, monkeypatch,
                                           caplog):
    # no factor and no dense recovery: every solve fails, a sweep lists its
    # cells in failures and `gap` exits 3
    monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", 550)
    t = chern_half(12)  # L dim 576
    rep = build_clifford(3)
    with caplog.at_level(logging.INFO, logger="jointspec"):
        with pytest.raises(NumericalFailure):
            eigenpair_nearest_zero(singular_diagonal())
        with pytest.raises(NumericalFailure):
            clifford_gap(t, [0.3, -0.2, 0.0], rep)
        with pytest.raises(NumericalFailure):
            quadratic_gap(sparse_pair(600, seed=3), [0.2, 0.1])
        with pytest.raises(NumericalFailure):
            composites.minimizing_state(sparse_pair(600, seed=3), [0.2, 0.1])
        grid = sweep_grid(t, GridSpec(axes=((0.3, 0.4, 2),),
                                      fixed_coords={1: -0.2, 2: 0.0}),
                          "clifford", rep=rep)
    assert [f["index"] for f in grid.failures] == [[0], [1]]
    assert not fallback_warnings(caplog)
    assert main(["gap", "--model", "chern2d", "--param", "nx=12", "--param",
                 "ny=12", "--kappa", "0.5", "--lambda", "0.3,-0.2,0"]) == 3


def test_no_convergence_recovers_densely(no_convergence, caplog):
    t = chern_half(12)  # L dim 576: sparse, below the dense cutoff
    rep = build_clifford(3)
    lam = [0.3, -0.2, 0.0]
    assert not solves_densely(localizer_pencil(t, rep).dim)
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
    """Keyword arguments of every splu call."""
    import scipy.sparse.linalg as spla

    calls = []
    orig = spla.splu

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return calls


@pytest.fixture
def order_calls(monkeypatch):
    calls = []
    order = Pencil._order

    def spy(self, dead):
        calls.append((self.dim, sorted(dead)))
        return order(self, dead)

    monkeypatch.setattr(Pencil, "_order", spy)
    return calls


def symmetric(calls):
    return [c for c in calls if c.get("options", {}).get("SymmetricMode")]


def chern_half(nx):
    return scale_positions(build_chern2d(nx, nx), 0.5)


def dense_spectrum(m):
    return np.linalg.eigvalsh(m.toarray() if sp.issparse(m) else m)


def dense_nearest_zero(m):
    w = dense_spectrum(m)
    return w[np.argmin(np.abs(w))]


def assert_count_above(m, w, order=None):
    # midway between w and the next distinct eigenvalue above it (the lowest
    # pair of L, and of Q at some probes, is exactly repeated), the count
    # equals the dense one
    ev = dense_spectrum(m)
    mid = (w + ev[ev > w + 1e-6 * max(1.0, abs(w))][0]) / 2
    assert operators.count_below(m, mid, order) == np.count_nonzero(ev < mid)


@pytest.mark.parametrize("nx,q_fmt", [(12, "dense"), (20, "csc")])
def test_chern_gaps_match_dense_at_e0(splu_calls, nx, q_fmt):
    # 12x12: Q (288) below the sparse cutoff, L (576) above; 20x20: both above
    t = chern_half(nx)
    rep = build_clifford(3)
    lam = [0.3, -0.2, 0.0]
    assert solves_densely(quadratic_pencil(t).dim) == (q_fmt == "dense")
    assert not solves_densely(localizer_pencil(t, rep).dim)
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
    m = localizer_pencil(t, rep).at(lam)
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
    m = localizer_pencil(t, rep).at(lam)
    w, v = operators.eigenpair_nearest_zero(m)
    assert abs(abs(w) - abs(dense_nearest_zero(m))) <= 1e-9
    assert np.linalg.norm(m @ v - w * v) <= 1e-8
    assert_count_above(m, w)


def test_sparse_minimizing_state_matches_dense():
    t = chern_half(20)  # Q dim 800: sparse
    lam = [0.3, -0.2, 0.0]
    assert not solves_densely(quadratic_pencil(t).dim)
    state, degenerate, _ = composites.minimizing_state(t, lam)
    q = direct_q(t, lam)
    w = np.linalg.eigvalsh(q)
    rayleigh = np.vdot(state.vec, q @ state.vec).real
    assert abs(rayleigh - w[0]) <= 1e-9
    assert degenerate == (w[1] - w[0] <= composites.DEGENERACY_TOL)


@pytest.mark.parametrize("nx", [12, 16])
@pytest.mark.parametrize("kappa", [0.5, 1.0])
def test_dense_minimizing_state_makes_one_lapack_call(lapack_calls, nx,
                                                      kappa):
    # Q of dim 288 and 512: the flag is read off the spectrum of the one
    # eigh call and equals a separate eigvalsh count; mu^Q and the state
    # are those of the eigenpair that eigh gives
    t = scale_positions(build_chern2d(nx, nx), kappa)
    assert solves_densely(quadratic_pencil(t).dim)
    for lam in ([3.0, 0.0, 0.0], [0.3, -0.2, 0.0]):
        q = quadratic_pencil(t).at(lam).toarray()
        w, v = eigenpair_nearest_zero(q)
        s = w + composites.DEGENERACY_TOL * max(1.0, abs(w))
        flag = np.count_nonzero(np.linalg.eigvalsh(q) < s) > 1
        lapack_calls.clear()
        state, degenerate, mu = composites.minimizing_state(t, lam)
        assert lapack_calls == ["eigh"]
        assert degenerate == flag
        assert mu == composites._quadratic_value(
            t, quadratic_pencil(t), lam, w, None, v)
        assert state.vec.tobytes() == StateVector(v, normalize=True).vec.tobytes()


def test_extract_state_factorizes_q_once(splu_calls, order_calls):
    # one factor for the solve and one for the degeneracy count, both in
    # the pencil's order, which is computed once
    from jointspec.models import ScaledTuple
    from jointspec.states import check_identity, extract_state

    base = build_chern2d(17, 17)  # Q dim 578 > 512
    lam = [7.0, 0.0, 0.0]
    report = extract_state(ScaledTuple(base, 0.5), lam)
    assert len(splu_calls) == len(symmetric(splu_calls)) == 2
    assert all(c["permc_spec"] == "NATURAL" for c in splu_calls)
    assert order_calls == [(578, [2])]  # E = 0 drops H's terms
    check_identity(report)
    mu = quadratic_gap(scale_positions(base, 0.5), [3.5, 0.0, 0.0])
    assert abs(report.mu_q - mu) <= 1e-12 * max(1.0, mu)


# -- shift-invert Lanczos on the Chern composites -----------------------------


@pytest.mark.parametrize("nx,lam", [(12, [2.5, -1.0, 0.3]),
                                    (20, [0.3, -0.2, 0.0]),
                                    (20, [-1.5, 2.0, -0.4])])
def test_localizer_nearest_negative_eigenvalue_matches_dense(nx, lam):
    # L is indefinite: its eigenvalue nearest 0 is negative at these probes,
    # the far end of the inverse's spectrum
    t = chern_half(nx)
    m = localizer_pencil(t, build_clifford(3)).at(lam)
    assert m.shape[0] > operators.SPARSE_EIGEN_CUTOFF
    ref = dense_nearest_zero(m)
    assert ref < 0
    w, _ = eigenpair_nearest_zero(m)
    assert abs(w - ref) <= 1e-10 * abs(ref)


def test_near_degenerate_q_returns_the_lowest_eigenvalue():
    # the two lowest eigenvalues are 2.09195016 and 2.09199408
    lam = [2.15, 0.0, 0.0]
    m = quadratic_pencil(chern_half(20)).at(lam)
    w, _ = eigenpair_nearest_zero(m)
    assert abs(w - 2.09195016) <= 1e-8


PROBES = [[2.15, 0.0, 0.0], [0.3, -0.2, 0.0], [3.75, 3.75, 0.0],
          [4.5, 0.0, 0.0], [0.0, 0.0, 0.0], [1.1, 2.3, 0.2]]


@pytest.mark.parametrize("kappa", [0.5, 1.0])
def test_degeneracy_flag_matches_dense(kappa):
    # at (2.15, 0, 0) the lowest pair is exact for kappa = 1 (2.81453778
    # twice) and split by 4.4e-5 for kappa = 0.5
    t = scale_positions(build_chern2d(20, 20), kappa)
    flags = []
    for lam in PROBES:
        _, degenerate, _ = composites.minimizing_state(t, lam)
        w = np.linalg.eigvalsh(direct_q(t, lam))
        assert degenerate == (w[1] - w[0] <= composites.DEGENERACY_TOL
                              * max(1.0, abs(w[0])))
        flags.append(degenerate)
    assert flags[0] == (kappa == 1.0)


def test_minimizing_state_residual_scale_is_size_free(monkeypatch):
    # Chern-20 at the origin: a planted eigenvector with residual 1e-5 passes
    # 1e-8 ||Q||_F = 2.4e-5 but not 1e-8 sum_j (||X_j|| + |lam_j|)^2 = 2.4e-6
    t = build_chern2d(20, 20)
    lam = [0.0, 0.0, 0.0]
    w, u = np.linalg.eigh(direct_q(t, lam))
    tilt = 1e-5 / (w[-1] - w[0])
    v = u[:, 0] + tilt * u[:, -1]
    v /= np.linalg.norm(v)
    q = direct_q(t, lam)
    resid = np.linalg.norm(q @ v - w[0] * v)
    assert 1e-8 * composites._q_scale(t, lam) < resid \
        < 1e-8 * np.linalg.norm(q)
    monkeypatch.setattr(composites, "eigenpair_nearest_zero",
                        lambda m, accuracy, order=None: (w[0], v))
    with pytest.raises(NumericalFailure, match="residual"):
        composites.minimizing_state(t, lam)


# -- one fill-reducing order per sparse pencil pattern ------------------------


SYMMETRIC_FACTOR = {"diag_pivot_thresh": 0.0,
                    "options": {"SymmetricMode": True}}


def fill(m, permc_spec):
    import scipy.sparse.linalg as spla

    lu = spla.splu(m, permc_spec=permc_spec, **SYMMETRIC_FACTOR)
    return lu.L.nnz + lu.U.nnz


def quotient_mmd_order(m, b):
    """SuperLU's MMD order, from its full symmetric factor, of the graph of
    the blocks of b consecutive indices of m's nonzero pattern, each block
    kept in place (b = 1: the graph of m's entries)."""
    import scipy.sparse.linalg as spla

    m = sp.csc_matrix(m, copy=True)
    m.eliminate_zeros()
    k = m.shape[0] // b
    r = sp.kron(sp.identity(k), np.ones((1, b)), format="csc")
    graph = (r @ abs(m) @ r.T).sign() + k * sp.identity(k, format="csc")
    sites = np.argsort(spla.splu(sp.csc_matrix(graph),
                                 permc_spec="MMD_AT_PLUS_A",
                                 **SYMMETRIC_FACTOR).perm_c)
    return (sites[:, None] * b + np.arange(b)).ravel()


@pytest.mark.parametrize("nx,kind", [(12, "L"), (20, "Q"), (20, "L")])
@pytest.mark.parametrize("energy", [0.0, 0.3])
def test_ordered_solve_equals_the_mmd_solve(nx, kind, energy):
    t = chern_half(nx)
    pencil = quadratic_pencil(t) if kind == "Q" else \
        localizer_pencil(t, build_clifford(3))
    assert not solves_densely(pencil.dim)
    lam = [0.3, -0.2, energy]
    # the composite without the terms a coordinate at 0 zeroes
    m = (quadratic_operator(t, lam) if kind == "Q" else
         localizer(t, lam, build_clifford(3))).mat.tocsc()
    ordered, order = pencil.ordered(lam)
    assert sorted(order) == list(range(pencil.dim))
    np.testing.assert_array_equal(
        ordered.toarray(), m.toarray()[np.ix_(order, order)])
    if kind == "Q":
        # Q's order is MMD's on its graph of sites (2 orbitals each)
        assert np.array_equal(order, quotient_mmd_order(m, 2))
    else:
        # L's order is MMD's: the same fill as SuperLU's own ordering
        assert abs(fill(ordered, "NATURAL") - fill(m, "MMD_AT_PLUS_A")) \
            <= 1e-3 * fill(m, "MMD_AT_PLUS_A")
    w, v = eigenpair_nearest_zero(ordered, order=order)
    ref, _ = eigenpair_nearest_zero(m)
    assert abs(w - ref) <= 1e-12 * abs(ref)
    assert abs(w - dense_nearest_zero(m)) <= 1e-9 * max(1.0, abs(w))
    assert np.linalg.norm(m @ v - w * v) <= 1e-8
    assert_count_above(ordered, w, order)


def permuted(m, seed):
    order = np.random.default_rng(seed).permutation(m.shape[0])
    return sp.csc_matrix(m.toarray()[np.ix_(order, order)]), order


def assert_eigenpair_of(m, w, v):
    assert v is not None
    assert np.linalg.norm(m @ v - w * v) <= 1e-8


def test_ordered_eigenvectors_on_the_factor_paths(caplog):
    # symmetric factor at E = 0, partial pivoting at the on-site energy
    # E = 2 (zero diagonal entries) and the jittered shift of a singular
    # diagonal matrix (an exact zero inside)
    pencil = localizer_pencil(chern_half(12), build_clifford(3))
    cases = [(pencil, [0.3, -0.2, 0.0], "symmetric factor, pencil order"),
             (pencil, [0.0, 0.0, 2.0], "partial-pivoting factor")]
    for p, lam, path in cases:
        ordered, order = p.ordered(lam)
        with caplog.at_level(logging.DEBUG, logger="jointspec"):
            w, v = eigenpair_nearest_zero(ordered, order=order)
        assert any(path in r.getMessage() for r in caplog.records)
        caplog.clear()
        assert_eigenpair_of(p.at(lam), w, v)
    m = singular_diagonal()
    ordered, order = permuted(m, seed=1)
    with caplog.at_level(logging.INFO, logger="jointspec"):
        w, v = eigenpair_nearest_zero(ordered, order=order)
    assert any("singular factorization" in r.getMessage()
               for r in caplog.records)
    assert_eigenpair_of(m, w, v)
    # a sparse matrix small enough for LAPACK from the start
    m = sp.diags(np.linspace(-1.0, 2.0, 300)).tocsr()
    ordered, order = permuted(m, seed=3)
    w, v = eigenpair_nearest_zero(ordered, order=order)
    assert_eigenpair_of(m, w, v)


def test_ordered_eigenvectors_after_dense_recovery(singular_twice, caplog):
    m = localizer_pencil(chern_half(12), build_clifford(3)).at([0.3, -0.2, 0.0])
    ordered, order = permuted(m, seed=2)
    with caplog.at_level(logging.WARNING, logger="jointspec"):
        w, v = eigenpair_nearest_zero(ordered, order=order)
    assert len(fallback_warnings(caplog)) == 1
    assert_eigenpair_of(m, w, v)


def test_row_sweep_orders_each_pattern_once(monkeypatch, caplog):
    import scipy.sparse.linalg as spla

    calls = []
    spilu = spla.spilu

    def spy(*args, **kwargs):
        calls.append(args[0].shape[0])
        return spilu(*args, **kwargs)

    monkeypatch.setattr(spla, "spilu", spy)
    t = chern_half(20)
    rep = build_clifford(3)
    spec = GridSpec(axes=((-5.0, 5.0, 21),), fixed_coords={1: 0.0, 2: 0.0})
    with caplog.at_level(logging.DEBUG, logger="jointspec"):
        for kind in ("quadratic", "clifford"):
            grid = sweep_grid(t, spec, kind, rep=rep)
            assert not grid.failures
    # Q is ordered on its 400 sites, L on its entries
    assert calls == [400, 1600]
    orders = [r.getMessage() for r in caplog.records
              if "fill-reducing order" in r.getMessage()]
    assert len(orders) == 2
    assert "dim 800 pattern with 9760 entries on its site graph " \
        "(400 nodes, b = 2): " in orders[0]
    assert "dim 1600 pattern with" in orders[1]
    assert "entries on its entry graph: " in orders[1]
    assert all(o.endswith(" ms") for o in orders)


@pytest.mark.parametrize("energy", [0.0, 0.3])
def test_standalone_on_a_fresh_tuple_equals_sweep_cell(energy):
    # the first call on a tuple computes the order: a standalone gap that
    # does so must give the bytes of a sweep cell that finds it cached
    rep = build_clifford(3)
    spec = GridSpec(axes=((-2.0, 2.0, 5),), fixed_coords={1: 0.1, 2: energy})
    for kind, single in (("quadratic", lambda t, lam: quadratic_gap(t, lam)),
                         ("clifford",
                          lambda t, lam: clifford_gap(t, lam, rep))):
        grid = sweep_grid(chern_half(20), spec, kind, rep=rep)
        for i in (0, 3):
            lam = spec.probe(3, (i,)).coords
            assert single(chern_half(20), lam) == grid.values[i]


def test_probe_on_a_lattice_site_shares_the_off_site_order():
    # x and y on a site zero L's in-site entries, but no term drops out:
    # the zeros stay stored and the off-site order serves
    t = chern_half(20)
    rep = build_clifford(3)
    pencil = localizer_pencil(t, rep)
    off_site, site = [0.3, -0.2, 0.0], [0.25, -0.25, 0.0]
    first = clifford_gap(t, off_site, rep)
    mu = clifford_gap(t, site, rep)
    ordered, order = pencil.ordered(site)
    assert order is pencil.ordered(off_site)[1] and len(pencil._orders) == 1
    assert np.count_nonzero(ordered.data == 0) == 4
    # no more fill than the order of the pattern without the zeros
    assert fill(ordered, "NATURAL") <= fill(localizer(t, site, rep).mat.tocsc(),
                                            "MMD_AT_PLUS_A")
    ref = np.abs(np.linalg.eigvalsh(direct_l(t, site, rep))).min()
    assert abs(mu - ref) <= 1e-9 * ref
    assert clifford_gap(t, off_site, rep) == first
    sites = [site, [0.75, -0.25, 0.0], [0.25, 0.75, 0.0]]
    values = [clifford_gap(t, lam, rep) for lam in sites]
    assert [clifford_gap(t, lam, rep) for lam in sites] == values
    assert values[0] == mu


def test_one_order_per_term_set(order_calls):
    t = chern_half(20)
    rep = build_clifford(3)
    # L over a grid of lattice sites at E = 0, then off the sites and at
    # E != 0: H's diagonal holds every entry of L's E term, so that term
    # never drops out of the pattern
    sites = GridSpec(axes=((-1.25, 1.25, 6), (-1.25, 1.25, 6)),
                     fixed_coords={2: 0.0})
    assert not sweep_grid(t, sites, "clifford", rep=rep).failures
    for lam in ([0.3, -0.2, 0.0], [1.1, 2.3, 0.0], [0.3, -0.2, 0.4]):
        clifford_gap(t, lam, rep)
    assert order_calls == [(1600, [])]
    # a Q grid whose E axis crosses 0: H's terms kept, then dropped
    order_calls.clear()
    spec = GridSpec(axes=((-1.0, 1.0, 3), (-0.5, 0.5, 3)),
                    fixed_coords={1: 0.25})
    assert not sweep_grid(t, spec, "quadratic").failures
    assert order_calls == [(800, []), (800, [2])]


@pytest.mark.parametrize("kappa,nx", [(0.5, 20), (0.5, 40), (1.0, 40)])
@pytest.mark.parametrize("energy", [0.0, 0.3])
def test_q_order_is_the_site_graph_order(kappa, nx, energy):
    t = scale_positions(build_chern2d(nx, nx), kappa)
    pencil = quadratic_pencil(t)
    lam = [0.3, -0.2, energy]
    ordered, order = pencil.ordered(lam)
    assert pencil.block == 2
    assert np.array_equal(order, quotient_mmd_order(pencil.at(lam), 2))
    # every site's two orbitals stay together and in place
    assert np.array_equal(order[1::2], order[::2] + 1)
    assert not (order[::2] % 2).any()


def sparse_copy(t, meta):
    return ObservableTuple([sp.csr_matrix(o.mat) for o in t.ops],
                           commuting_prefix=t.commuting_prefix, meta=meta)


@pytest.mark.parametrize("case", ["chern L", "ssh", "explicit", "orbitals 3"])
def test_entry_graph_orders_are_kept(case):
    # L (whose Clifford components couple only on site), SSH (one orbital),
    # a tuple without orbitals and one whose orbitals do not divide its
    # dimension are ordered on their entries, as before site graphs: the
    # MMD order of SuperLU's own symmetric factor
    from jointspec.models import LatticeModelSpec

    chern = chern_half(20)
    lams = ([0.3, -0.2, 0.0], [0.3, -0.2, 0.3])
    if case == "chern L":
        pencil = localizer_pencil(chern, build_clifford(3))
    elif case == "ssh":
        ssh = build_ssh(300, 0.7, 1.4)
        pencil = quadratic_pencil(sparse_copy(ssh, ssh.meta))
        lams = ([300.3, 0.0], [300.3, 0.3])
    elif case == "explicit":
        spec = LatticeModelSpec("explicit", explicit_matrices=[
            o.mat for o in chern.ops], commuting_prefix=2)
        pencil = quadratic_pencil(spec.build())
    else:
        pencil = quadratic_pencil(sparse_copy(chern, {"orbitals": 3}))
    assert not solves_densely(pencil.dim) and pencil.block == 1
    for lam in lams:
        order = pencil.ordered(lam)[1]
        assert np.array_equal(order, quotient_mmd_order(pencil.at(lam), 1))


# -- eigenvalue counts on the Chern composites --------------------------------


@pytest.mark.parametrize("kind", ["Q", "L"])
def test_count_below_matches_dense_on_chern(kind, monkeypatch):
    # Chern-20: Q dim 800, L dim 1600, each in its pencil's order, at three
    # shifts: the middle of the widest gap between dense eigenvalues among
    # the 20 from the bottom, from a quarter and from half the spectrum; the
    # lowered cutoff makes a count that is not read off the factor fail
    monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", 500)
    t = chern_half(20)
    rep = build_clifford(3)
    lam = [1.1, 2.3, 0.2]
    pencil = quadratic_pencil(t) if kind == "Q" else localizer_pencil(t, rep)
    ordered, order = pencil.ordered(lam)
    ev = dense_spectrum(ordered)
    for start in (1, len(ev) // 4, len(ev) // 2):
        i = start + np.argmax(np.diff(ev[start - 1:start + 20]))
        s = (ev[i - 1] + ev[i]) / 2
        assert operators.count_below(ordered, s, order) == i


@pytest.mark.parametrize("nx", [16, 17])
def test_count_below_on_site_ordered_q(nx, monkeypatch):
    # Q of dim 512 (dense, LAPACK's count) and 578 (sparse, the count of
    # the symmetric factor in the site graph's order, where the lowered
    # cutoff leaves no dense count) at three shifts, as in the test above
    if nx == 17:
        monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", 500)
    t = chern_half(nx)
    pencil = quadratic_pencil(t)
    assert solves_densely(pencil.dim) == (nx == 16)
    ordered, order = pencil.ordered([1.1, 2.3, 0.2])
    assert (order is None) == (nx == 16)
    ev = dense_spectrum(ordered)
    for start in (1, len(ev) // 4, len(ev) // 2):
        i = start + np.argmax(np.diff(ev[start - 1:start + 20]))
        s = (ev[i - 1] + ev[i]) / 2
        assert operators.count_below(ordered, s, order) == i


def test_sparse_state_repeats_bytewise():
    # Q of dim 800 in its site graph's order; the flag is the dense rule's
    from jointspec.models import ScaledTuple
    from jointspec.states import extract_state

    base = build_chern2d(20, 20)
    assert not solves_densely(quadratic_pencil(scale_positions(base, 0.5)).dim)
    a, b = (extract_state(ScaledTuple(base, 0.5), [3.5, 0.0, 0.0])
            for _ in range(2))
    assert a.state.vec.tobytes() == b.state.vec.tobytes()
    assert a.mu_q == b.mu_q and a.degenerate == b.degenerate
    w = np.linalg.eigvalsh(direct_q(scale_positions(base, 0.5),
                                    [1.75, 0.0, 0.0]))
    s = w[0] + composites.DEGENERACY_TOL * max(1.0, abs(w[0]))
    assert a.degenerate == (np.count_nonzero(w < s) > 1)
