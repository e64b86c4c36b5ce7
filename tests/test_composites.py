import numpy as np
import pytest
import scipy.sparse as sp

from jointspec.clifford import build_clifford
from jointspec.composites import (ObservableTuple, ProbePoint, clifford_gap,
                                  commutator_bound, commutator_bound_2d,
                                  determinant_sign_index, gap_pair_with_bound,
                                  gap_values, localizer, localizer_pencil,
                                  minimizing_state, quadratic_gap,
                                  quadratic_operator, reduced_localizer,
                                  tall_composite, verify_symmetry)
from jointspec.errors import (DimensionMismatch, InvalidOperator, NotRealMatrix,
                              ParameterOutOfRange, RepMismatch)
from jointspec.models import (build_chern2d, build_example, build_ssh,
                              ssh_grading)
from jointspec.operators import HermitianOperator, smallest_singular_value

rng = np.random.default_rng(11)
REP2 = build_clifford(2)


def random_tuple(d, n, seed):
    r = np.random.default_rng(seed)
    ops = []
    for _ in range(d):
        a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        ops.append((a + a.conj().T) / 2)
    return ObservableTuple(ops)


def test_probe_point_validation():
    with pytest.raises(InvalidOperator):
        ProbePoint(np.array([np.inf]))
    assert ProbePoint([1.0, 2.0]).d == 2


def test_commuting_prefix_checked():
    x = np.diag([1.0, 2.0])
    y = np.array([[0, 1.0], [1.0, 0]])
    ObservableTuple([x, y], commuting_prefix=1)
    with pytest.raises(InvalidOperator):
        ObservableTuple([x, y], commuting_prefix=2)


def test_dimension_mismatch_probe():
    t = build_example("pauli_pair")
    with pytest.raises(DimensionMismatch):
        quadratic_gap(t, [0.0, 0.0, 0.0])


def test_tall_composite_shape_and_sigma():
    t = random_tuple(2, 5, seed=1)
    lam = [0.3, -0.2]
    m = tall_composite(t, lam)
    assert m.shape == (10, 5)
    assert np.isclose(smallest_singular_value(m), quadratic_gap(t, lam),
                      atol=1e-9)


def test_tall_composite_of_a_sparse_model():
    t = build_chern2d(4, 4)
    lam = [0.3, -0.2, 0.1]
    m = tall_composite(t, lam)
    assert sp.issparse(m) and m.format == "csr"
    assert m.shape == (3 * t.dim, t.dim)
    mu = quadratic_gap(t, lam)
    assert abs(smallest_singular_value(m) - mu) <= 1e-12 * mu


def test_tall_composite_of_a_chain_given_dense():
    # SSH-300 (dim 600) given dense is held in CSR, so its stack is CSR and
    # its dense SVD still gives the gap; a CSR-held pair above dimension
    # 2896 stacks past 4096^2 entries and is refused
    t = build_ssh(300)
    lam = [300.3, 0.1]
    m = tall_composite(t, lam)
    assert sp.issparse(m) and m.shape == (1200, 600)
    mu = quadratic_gap(t, lam)
    assert abs(smallest_singular_value(m) - mu) <= 1e-12 * mu
    n = 2898
    big = ObservableTuple([sp.diags(np.arange(1.0, n + 1.0), format="csr"),
                           sp.identity(n, format="csr")], commuting_prefix=1)
    with pytest.raises(ParameterOutOfRange, match="too large"):
        smallest_singular_value(tall_composite(big, [1.5, 0.0]))


def test_quadratic_operator_psd():
    t = random_tuple(3, 6, seed=2)
    q = quadratic_operator(t, [0.1, 0.2, -0.3])
    assert np.linalg.eigvalsh(q.dense()).min() >= -1e-10


def test_pauli_closed_forms():
    t = build_example("pauli_pair")
    for x, y in [(0.0, 0.0), (0.5, 0.3), (1.0, 0.0), (-1.2, 0.7)]:
        r2 = x * x + y * y
        mu_q = np.sqrt(r2 + 2 - 2 * np.sqrt(r2))
        mu_c = np.sqrt(r2 + 2 - 2 * np.sqrt(r2 + 1))
        assert np.isclose(quadratic_gap(t, [x, y]), mu_q, atol=1e-10)
        assert np.isclose(clifford_gap(t, [x, y], REP2), mu_c, atol=1e-10)


def test_localizer_dimension():
    t = random_tuple(3, 4, seed=3)
    rep = build_clifford(3)
    ell = localizer(t, [0, 0, 0], rep)
    assert ell.dim == 8


def test_commutator_bound_relation():
    for seed in range(5):
        t = random_tuple(2, 6, seed=seed)
        res = gap_pair_with_bound(t, [0.1, -0.4], REP2)
        assert abs(res.mu_q ** 2 - res.mu_c ** 2) <= res.commutator_bound + 1e-8


def test_commutator_bound_skips_commuting_prefix():
    x = np.diag([1.0, 2.0, 3.0])
    y = np.diag([3.0, 1.0, 2.0])
    h = rng.standard_normal((3, 3))
    h = (h + h.T) / 2
    t = ObservableTuple([x, y, h], commuting_prefix=2)
    total = commutator_bound(t)
    xy_h = (np.linalg.norm(x @ h - h @ x, 2) + np.linalg.norm(y @ h - h @ y, 2))
    assert np.isclose(total, xy_h)


def test_commutator_bound_2d_tighter_form():
    t = random_tuple(1, 4, seed=9)
    x = np.diag([1.0, 2.0, 3.0, 4.0])
    y = np.diag([4.0, 3.0, 2.0, 1.0])
    h = t.ops[0].mat
    pair = ObservableTuple([x, y, h], commuting_prefix=2)
    direct = np.linalg.norm(h @ (x + 1j * y) - (x + 1j * y) @ h, 2)
    assert np.isclose(commutator_bound_2d(pair), direct)


@pytest.mark.parametrize("n,same_bytes", [(16, False), (17, True)])
def test_dense_stored_commutator_bounds_on_both_sides_of_512(n, same_bytes):
    # above dim 512 a dense-stored tuple of sparse fill forms its
    # commutators in CSR and gets the sparse tuple's Lanczos norm, bytes
    # included; at or below it keeps its dense products and LAPACK's norm
    sparse = build_chern2d(n, n)
    dense = ObservableTuple([o.dense() for o in sparse.ops],
                            commuting_prefix=2)
    for bound in (commutator_bound, commutator_bound_2d):
        if same_bytes:
            assert bound(dense) == bound(sparse)
        else:
            assert bound(dense) == pytest.approx(bound(sparse), rel=1e-12)


def test_minimizing_state_residual():
    t = random_tuple(2, 8, seed=4)
    lam = [0.2, 0.1]
    state, degenerate, mu_q = minimizing_state(t, lam)
    q = quadratic_operator(t, lam).dense()
    mu2 = quadratic_gap(t, lam) ** 2
    resid = np.linalg.norm(q @ state.vec - mu2 * state.vec)
    assert resid < 1e-7
    assert isinstance(degenerate, bool)
    assert abs(mu_q ** 2 - mu2) <= 1e-12 * max(1.0, mu2)


def test_minimizing_state_degenerate_flag():
    # at the origin Q for the Pauli pair is 2 I: fully degenerate
    t = build_example("pauli_pair")
    _, degenerate, _ = minimizing_state(t, [0.0, 0.0])
    assert degenerate


def test_reduced_localizer_spectral_identity():
    t = build_ssh(4, 0.7, 1.4)
    x, h = t.ops
    g = ssh_grading(8)
    red = reduced_localizer(x, h, 4.0, g)
    eigs = np.linalg.eigvals(red)
    assert np.max(np.abs(eigs.imag)) < 1e-10
    rep = build_clifford(2)
    ell = localizer(t, [4.0, 0.0], rep).dense()
    loc = np.sort(np.linalg.eigvalsh(ell))
    both = np.sort(np.concatenate([eigs.real, -eigs.real]))
    np.testing.assert_allclose(both, loc, atol=1e-9)


def test_determinant_sign_index():
    assert determinant_sign_index(np.diag([2.0, 3.0])) == 1
    assert determinant_sign_index(np.diag([-2.0, 3.0])) == -1
    assert determinant_sign_index(np.zeros((2, 2))) == 0
    with pytest.raises(NotRealMatrix):
        determinant_sign_index(np.array([[1j, 0], [0, 1.0]]))


def test_verify_symmetry_chiral_ssh():
    # the sublattice grading commutes with X and anticommutes with H,
    # so both gap functions are even in the energy coordinate
    t = build_ssh(4, 0.7, 1.4)
    g = ssh_grading(8)
    rep = build_clifford(2)
    assert verify_symmetry(t, g.mat, 1, [3.0, 0.8], rep)


def test_verify_symmetry_block_structure():
    # S = diag(1,1,-1,-1); X_2 couples only the two sign blocks
    s = np.diag([1.0, 1.0, -1.0, -1.0])
    r = np.random.default_rng(5)
    a = r.standard_normal((2, 2))
    x1 = np.block([[a + a.T, np.zeros((2, 2))],
                   [np.zeros((2, 2)), a @ a.T]])
    b = r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))
    x2 = np.block([[np.zeros((2, 2)), b], [b.conj().T, np.zeros((2, 2))]])
    t = ObservableTuple([x1, x2])
    assert verify_symmetry(t, s, 1, [0.4, -0.7], REP2)


@pytest.mark.parametrize("call,error", [
    (lambda t: localizer_pencil(t, build_clifford(3)), RepMismatch),
    (lambda t: gap_values(t, [[4.0, 0.0]], "bogus"), ParameterOutOfRange),
    (commutator_bound_2d, DimensionMismatch),
], ids=["rep-of-wrong-d", "unknown-kind", "2d-bound-on-ssh"])
def test_composite_refusals_on_ssh(call, error):
    with pytest.raises(error):
        call(build_ssh(4))
