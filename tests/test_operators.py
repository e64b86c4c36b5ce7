import logging

import numpy as np
import pytest
import scipy.sparse as sp

from jointspec import operators
from jointspec.errors import (DimensionMismatch, InvalidOperator,
                              NumericalFailure, ParameterOutOfRange)
from jointspec.operators import (HermitianOperator, StateVector, eigen_error,
                                 eigenpair_nearest_zero, expectation,
                                 operator_norm, smallest_singular_value,
                                 variance_sq)

rng = np.random.default_rng(7)


def random_hermitian(n, seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_accepts_hermitian_and_symmetrizes():
    a = random_hermitian(5)
    op = HermitianOperator(a + 1e-14 * 1j * np.eye(5))
    assert np.allclose(op.mat, op.mat.conj().T)
    assert op.dim == 5 and not op.is_sparse


def test_rejects_non_hermitian():
    with pytest.raises(InvalidOperator):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_square_and_nonfinite():
    with pytest.raises(InvalidOperator):
        HermitianOperator(np.zeros((2, 3)))
    with pytest.raises(InvalidOperator):
        HermitianOperator(np.array([[np.nan, 0], [0, 0]]))


def test_sparse_roundtrip():
    m = sp.diags([1.0, -2.0, 3.0]).tocsr()
    op = HermitianOperator(m)
    assert op.is_sparse
    assert op.is_diagonal
    np.testing.assert_allclose(op.diagonal(), [1, -2, 3])
    np.testing.assert_allclose(op.dense(), np.diag([1.0, -2.0, 3.0]))


@pytest.mark.parametrize("kind", ["dense complex", "dense real", "csr"])
def test_operator_never_aliases_its_input(kind):
    m = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.5, 3.0]])
    if kind == "dense complex":
        m = m.astype(complex)
    elif kind == "csr":
        m = sp.csr_matrix(m)
    op = HermitianOperator(m)
    kept = op.dense().copy()
    if kind == "csr":
        m.data[:] = 7.0
    else:
        m[:] = 7.0
    np.testing.assert_array_equal(op.dense(), kept)


def test_is_diagonal_dense():
    assert HermitianOperator(np.diag([1.0, 2.0])).is_diagonal
    assert not HermitianOperator(np.array([[0, 1.0], [1.0, 0]])).is_diagonal


def test_state_vector_unit_check():
    with pytest.raises(InvalidOperator):
        StateVector([1.0, 1.0])
    v = StateVector([1.0, 1.0], normalize=True)
    assert np.isclose(np.linalg.norm(v.vec), 1.0)
    with pytest.raises(InvalidOperator):
        StateVector([0.0, 0.0], normalize=True)


def test_operator_norm_matches_numpy():
    a = random_hermitian(8)
    assert np.isclose(operator_norm(a), np.linalg.norm(a, 2))
    s = sp.csr_matrix(a)
    assert np.isclose(operator_norm(s), np.linalg.norm(a, 2), rtol=1e-8)


def test_operator_norm_of_a_dense_matrix_above_512(caplog):
    # a dense matrix whose smaller side exceeds SPARSE_EIGEN_CUTOFF takes
    # the Lanczos kernel, as a sparse one does
    a = rng.standard_normal((600, 520))
    ref = np.linalg.norm(a, 2)
    with caplog.at_level(logging.DEBUG, logger="jointspec"):
        assert operator_norm(a) == pytest.approx(ref, rel=1e-12)
    assert "operator norm of 600x520 matrix" in caplog.text


@pytest.mark.parametrize("shape", [(5, 1), (1, 5)])
@pytest.mark.parametrize("store", [np.asarray, sp.csr_matrix])
def test_operator_norm_of_a_vector_is_its_length(shape, store):
    v = np.random.default_rng(11).standard_normal(5) + 1j
    assert operator_norm(store(v.reshape(shape))) == pytest.approx(
        np.linalg.norm(v), rel=1e-15, abs=0)


def test_smallest_singular_value_rectangular():
    a = rng.standard_normal((12, 5))
    assert np.isclose(smallest_singular_value(a), np.linalg.svd(a)[1].min())


def test_smallest_singular_value_refuses_a_large_sparse_matrix():
    n = operators.DENSE_EIGEN_CUTOFF + 1
    with pytest.raises(ParameterOutOfRange, match="too large"):
        smallest_singular_value(sp.identity(n, format="csr"))


def test_smallest_singular_value_of_a_tall_sparse_matrix():
    # a sparse input is refused by its dense copy's entries, not its larger
    # side: a 4097 x 3 one is solved as LAPACK solves its dense copy
    a = sp.random(operators.DENSE_EIGEN_CUTOFF + 1, 3, density=0.01,
                  format="csr", random_state=3)
    assert smallest_singular_value(a) == np.linalg.svd(
        a.toarray().astype(complex), compute_uv=False)[-1]


def test_nearest_zero_dense_input():
    a = np.diag([-3.0, 0.5, 2.0])
    w, _ = eigenpair_nearest_zero(a)
    assert np.isclose(abs(w), 0.5)


def test_nearest_zero_sparse_matches_dense():
    n = 700
    diag = np.linspace(-5, 5, n)
    off = 0.3 * np.ones(n - 1)
    m = sp.diags([off, diag, off], [-1, 0, 1]).tocsr()
    dense_val = np.abs(np.linalg.eigvalsh(m.toarray())).min()
    w, _ = eigenpair_nearest_zero(m, accuracy=1e-10)
    assert np.isclose(abs(w), dense_val, atol=1e-8)


def test_nearest_zero_vector():
    a = np.diag([4.0, 0.25, -2.0])
    w, v = eigenpair_nearest_zero(a)
    assert np.isclose(abs(w), 0.25)
    assert np.isclose(abs(v[1]), 1.0)


def test_expectation_and_variance():
    a = HermitianOperator(random_hermitian(6))
    v = StateVector(rng.standard_normal(6) + 1j * rng.standard_normal(6),
                    normalize=True)
    ev = expectation(a, v)
    assert np.isclose(ev, np.real(v.vec.conj() @ a.mat @ v.vec))
    var = variance_sq(a, v)
    direct = np.real(v.vec.conj() @ a.mat @ a.mat @ v.vec) - ev ** 2
    assert np.isclose(var, direct)
    assert var >= 0


def test_eigen_error_decomposition():
    a = HermitianOperator(random_hermitian(6))
    v = StateVector(rng.standard_normal(6) + 1j * rng.standard_normal(6),
                    normalize=True)
    lam = 0.7
    err = eigen_error(a, v, lam)
    ev = expectation(a, v)
    assert np.isclose(err ** 2, variance_sq(a, v) + (ev - lam) ** 2, atol=1e-10)


def test_eigen_error_exact_eigenvector():
    a = HermitianOperator(np.diag([1.0, 5.0]))
    v = StateVector([1.0, 0.0])
    assert eigen_error(a, v, 1.0) < 1e-14


def test_overlap_bound(overlap_bound_check):
    a = HermitianOperator(random_hermitian(5, seed=3))
    vals, vecs = np.linalg.eigh(a.mat)
    v = StateVector(vecs[:, 0])
    w = StateVector(vecs[:, 1])
    assert overlap_bound_check(a, v, w, float(vals[0]), float(vals[1]))
    with pytest.raises(ValueError):
        overlap_bound_check(a, v, w, 1.0, 1.0)


def test_dimension_mismatch():
    a = HermitianOperator(np.eye(3))
    v = StateVector([1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        expectation(a, v)


def sparse_case(kind, seed=11):
    """Sparse test matrices for the Lanczos norm, with planted structure."""
    r = np.random.default_rng(seed)
    shape = {"wide": (60, 150), "tall": (150, 60)}.get(kind, (120, 120))
    if kind == "clustered":
        u, _ = np.linalg.qr(r.standard_normal((120, 120))
                            + 1j * r.standard_normal((120, 120)))
        w, _ = np.linalg.qr(r.standard_normal((120, 120)))
        s = np.concatenate([[5.0, 5.0, 5.0 - 1e-9], r.uniform(0.0, 4.9, 117)])
        return sp.csr_matrix((u * s) @ w.T)
    m = (sp.random(*shape, density=0.05, random_state=r)
         + 1j * sp.random(*shape, density=0.05, random_state=r))
    if kind == "hermitian":
        m = m + m.conj().T
    elif kind == "real":
        m = m.real
    return sp.csr_matrix(m)


@pytest.mark.parametrize("kind", ["square", "wide", "tall", "hermitian",
                                  "real", "clustered"])
def test_sparse_operator_norm_matches_dense(kind):
    m = sparse_case(kind)
    ref = np.linalg.norm(m.toarray(), 2)
    assert abs(operator_norm(m) - ref) <= 1e-12 * ref


def test_sparse_operator_norm_two_by_two():
    m = sp.csr_matrix(np.array([[1.0, 2.0j], [0.0, -3.0]]))
    assert np.isclose(operator_norm(m), np.linalg.norm(m.toarray(), 2),
                      rtol=1e-12)


def test_sparse_operator_norm_of_stored_zeros():
    zero = sp.csr_matrix((np.zeros(3), ([0, 1, 2], [2, 0, 1])), shape=(3, 3))
    assert zero.nnz == 3 and operator_norm(zero) == 0.0
    assert operator_norm(sp.csr_matrix((4, 6))) == 0.0


def test_sparse_operator_norm_repeats_bit_for_bit():
    m = sparse_case("square", seed=12)
    assert operator_norm(m) == operator_norm(m)


def test_sparse_operator_norm_step_limit(monkeypatch):
    monkeypatch.setattr(operators, "NORM_MAX_STEPS", 3)
    with pytest.raises(NumericalFailure):
        operator_norm(sparse_case("square"))


def test_sparse_operator_norm_calls_no_svds(monkeypatch):
    import scipy.sparse.linalg as spla

    calls = []
    monkeypatch.setattr(spla, "svds", lambda *a, **k: calls.append(a))
    for kind in ("square", "wide", "hermitian"):
        operator_norm(sparse_case(kind))
    assert calls == []


def test_sparse_operator_norm_logs_one_debug_record(caplog):
    m = sparse_case("tall")
    with caplog.at_level(logging.DEBUG, logger="jointspec"):
        value = operator_norm(m)
    records = [r for r in caplog.records if r.name == "jointspec"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    text = records[0].getMessage()
    assert "150x60" in text and "Lanczos steps" in text and "residual" in text
    assert value == operator_norm(m)


# -- shift-invert Lanczos against exact spectra -------------------------------


def known_spectrum(dim, seed=5):
    """Sparse block diagonal of randomly rotated 2x2 Hermitian blocks (one
    1x1 block when dim is odd) with eigenvalues -(-1)^j (j + 1/2) / 100: the
    one nearest 0 is -0.005, the next 0.015.  Returns the matrix and its
    eigenvalues sorted by distance from 0."""
    r = np.random.default_rng(seed)
    e = -(-1.0) ** np.arange(dim) * (np.arange(dim) + 0.5) / 100.0
    blocks = []
    for i in range(0, dim - 1, 2):
        u, _ = np.linalg.qr(r.standard_normal((2, 2))
                            + 1j * r.standard_normal((2, 2)))
        blocks.append((u * e[i:i + 2]) @ u.conj().T)
    if dim % 2:
        blocks.append(e[-1:, None])
    return sp.block_diag(blocks, format="csc"), e


@pytest.mark.parametrize("dim", [513, 4098])
def test_shift_invert_matches_known_spectrum(dim, no_lapack):
    # both sides of DENSE_EIGEN_CUTOFF, above SPARSE_EIGEN_CUTOFF
    m, e = known_spectrum(dim)
    assert not operators.solves_densely(dim)
    w, v = eigenpair_nearest_zero(m)
    assert abs(w - e[0]) <= 1e-12
    # shift-invert's residual test is relative to the inverse: ||m||
    assert np.linalg.norm(m @ v - w * v) <= 1e-9 * np.abs(e).max()
    low = np.sort(e)
    assert operators.count_below(m, (low[0] + low[1]) / 2) == 1


def test_shift_invert_step_cap_on_both_sides_of_dense_cutoff(monkeypatch,
                                                             caplog):
    monkeypatch.setattr(operators, "SHIFT_INVERT_MAX_STEPS", 2)
    big, _ = known_spectrum(4098)
    with pytest.raises(NumericalFailure, match="did not converge"):
        eigenpair_nearest_zero(big)
    small, e = known_spectrum(513)
    with caplog.at_level(logging.INFO, logger="jointspec"):
        w, _ = eigenpair_nearest_zero(small)
    assert abs(w - e[0]) <= 1e-12
    # all four rungs run before the dense recovery, each with one record
    messages = [r.getMessage() for r in caplog.records]
    assert [m.split(" at shift")[0] for m in messages[:4]] == [
        "symmetric factor, MMD_AT_PLUS_A", "partial-pivoting factor"] * 2
    assert all("gave no convergence" in m for m in messages[:4])
    assert [m.split(";")[0] for m in messages[4:]] == [
        "shift-invert on dim 513 gave no eigenpairs"]


def test_sparse_solves_call_no_eigsh(monkeypatch):
    import scipy.sparse.linalg as spla

    calls = []
    monkeypatch.setattr(spla, "eigsh", lambda *a, **k: calls.append(a))
    m, e = known_spectrum(600)
    assert eigenpair_nearest_zero(m)[0] == pytest.approx(e[0])
    assert operators.count_below(m, (e[0] + e[1]) / 2) == 300
    operator_norm(m)
    assert calls == []


def test_shift_invert_logs_one_debug_record_per_solve(caplog):
    m, _ = known_spectrum(4098)
    quiet = eigenpair_nearest_zero(m)
    with caplog.at_level(logging.DEBUG, logger="jointspec"):
        w, v = eigenpair_nearest_zero(m)
    records = [r for r in caplog.records if r.name == "jointspec"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    text = records[0].getMessage()
    for part in ("dim 4098", "symmetric factor", "Lanczos steps",
                 "residual estimate"):
        assert part in text
    assert w == quiet[0] and np.array_equal(v, quiet[1])


def test_shift_invert_settles_the_far_end_first():
    # the inverse has an isolated 10.99, whose Ritz value converges within a
    # dozen steps, while its eigenvalue of largest magnitude, -11, is the
    # edge of a cluster reaching to -5 that Lanczos resolves slowly;
    # accepting 10.99 before the far end settles would return 1/10.99
    theta = np.concatenate([[10.99], np.linspace(-11.0, -5.0, 599)])
    m = sp.diags(1.0 / theta).tocsc()
    w, _ = eigenpair_nearest_zero(m)
    assert abs(w + 1.0 / 11.0) <= 1e-12


# -- eigenvalue counts from the symmetric factor ------------------------------


@pytest.mark.parametrize("dim", [300, 513, 4098])
def test_count_below_matches_the_spectrum(dim, monkeypatch):
    # both sides of SPARSE_EIGEN_CUTOFF (LAPACK, then the factor) and above
    # DENSE_EIGEN_CUTOFF; each shift lies midway between two eigenvalues.
    # Above SPARSE_EIGEN_CUTOFF a count not read off the factor fails.
    m, e = known_spectrum(dim)
    if dim > 300:
        monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", 500)
    if dim <= 513:
        np.testing.assert_allclose(np.sort(e), np.linalg.eigvalsh(m.toarray()),
                                   rtol=0, atol=1e-12)
    for s in (-0.31, -0.02, 0.0, 0.02, 0.31, 1.0):
        assert operators.count_below(m, s) == np.count_nonzero(e < s)


def zero_on_the_diagonal():
    # the shift equals a diagonal entry: no symmetric factor
    n = 600
    ones = 0.3 * np.ones(n - 1)
    m = sp.diags([ones, np.linspace(-5.0, 5.0, n), ones], [-1, 0, 1]).tocsc()
    return m, float(m.diagonal()[200].real), None


def pivot_off_the_diagonal():
    # in natural order the second pivot of [[1, 1, 1], [1, 1, 2], [1, 2, 3]]
    # is an exact 0, and the factor swaps rows: its pivot signs miscount
    block = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
    m = sp.block_diag([block, sp.diags(np.linspace(-3.0, 3.0, 598) + 0.0025)],
                      format="csc")
    order = np.arange(m.shape[0])
    lu = operators._factor(m, 0.0, order, symmetric=True)
    assert not np.array_equal(lu.perm_r, lu.perm_c)
    return m, 0.0, order


@pytest.mark.parametrize("case", [zero_on_the_diagonal, pivot_off_the_diagonal])
def test_count_below_without_a_usable_factor(case, monkeypatch):
    # LAPACK counts up to DENSE_EIGEN_CUTOFF, and a larger matrix is refused
    m, s, order = case()
    ref = np.count_nonzero(np.linalg.eigvalsh(m.toarray()) < s)
    assert operators.count_below(m, s, order) == ref
    monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", 550)
    with pytest.raises(NumericalFailure, match=repr(s)):
        operators.count_below(m, s, order)


# -- the factor ladder of sparse solves ---------------------------------------


@pytest.fixture
def rungs(monkeypatch):
    """The ladder rung of every splu call on ``rungs.base``: 1 and 2 the
    symmetric and partial-pivoting factors at shift 0, 3 and 4 at the
    jittered shift.  A rung in ``rungs.fail`` raises as exactly singular."""
    import scipy.sparse.linalg as spla

    class Rungs(list):
        base, fail = None, ()

    calls, splu = Rungs(), spla.splu

    def spy(a, **kwargs):
        symmetric = kwargs.get("options", {}).get("SymmetricMode", False)
        shifted = (a.diagonal() != calls.base.diagonal()).any()
        calls.append(1 + (not symmetric) + 2 * shifted)
        if calls[-1] in calls.fail:
            raise RuntimeError("Factor is exactly singular")
        return splu(a, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return calls


def with_block(dim, block):
    """``known_spectrum`` of dim - 2 with a 2x2 block in front."""
    m, e = known_spectrum(dim - 2)
    return sp.block_diag([np.array(block), m], format="csc"), e


#: (dim, DENSE_EIGEN_CUTOFF): dense below SPARSE_EIGEN_CUTOFF, then the
#: ladder with a dense recovery allowed, then without one
SIDES = [(512, 4096), (513, 4096), (600, 550)]


def ladder_solve(rungs, monkeypatch, m, dim, cutoff):
    monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", cutoff)
    rungs.base = m
    return eigenpair_nearest_zero(m)


@pytest.mark.parametrize("dim,cutoff", SIDES)
def test_singular_at_zero_takes_the_jittered_rung(rungs, lapack_calls,
                                                  monkeypatch, dim, cutoff):
    # [[1, 1], [1, 1]] makes the matrix exactly singular: both factors at
    # shift 0 fail, and the symmetric one at the jittered shift solves
    m, _ = with_block(dim, [[1.0, 1.0], [1.0, 1.0]])
    w, v = ladder_solve(rungs, monkeypatch, m, dim, cutoff)
    assert abs(w) <= 1e-12 and np.linalg.norm(m @ v - w * v) <= 1e-12
    if dim <= 512:
        assert rungs == [] and lapack_calls == ["eigh"]
    else:
        assert rungs == [1, 2, 3] and lapack_calls == []


@pytest.mark.parametrize("dim,cutoff", SIDES[1:])
def test_singular_at_both_shifts(rungs, lapack_calls, monkeypatch, caplog,
                                 dim, cutoff):
    # dense recovery below DENSE_EIGEN_CUTOFF, NumericalFailure above
    m, e = known_spectrum(dim)
    rungs.fail = (1, 2, 3, 4)
    with caplog.at_level(logging.INFO, logger="jointspec"):
        if dim > cutoff:
            with pytest.raises(NumericalFailure, match="any factor"):
                ladder_solve(rungs, monkeypatch, m, dim, cutoff)
        else:
            assert ladder_solve(rungs, monkeypatch, m, dim, cutoff)[0] == \
                pytest.approx(e[0], abs=1e-12)
    assert rungs == [1, 2, 3, 4]
    assert lapack_calls == ([] if dim > cutoff else ["eigh"])
    messages = [r.getMessage() for r in caplog.records]
    assert sum("singular factorization" in msg for msg in messages) == 4
    assert sum("dense eigendecomposition" in msg
               for msg in messages) == (dim <= cutoff)


@pytest.mark.parametrize("dim,cutoff", SIDES[1:])
def test_zero_diagonal_takes_rung_two(rungs, lapack_calls, monkeypatch,
                                      caplog, dim, cutoff):
    m, e = with_block(dim, [[0.0, 0.5], [0.5, 0.0]])
    with caplog.at_level(logging.DEBUG, logger="jointspec"):
        w, _ = ladder_solve(rungs, monkeypatch, m, dim, cutoff)
    assert abs(w - e[0]) <= 1e-12
    assert rungs == [2] and lapack_calls == []
    skipped = [r for r in caplog.records
               if "zero on the shifted diagonal" in r.getMessage()]
    assert len(skipped) == 1 and skipped[0].levelno == logging.DEBUG


@pytest.mark.parametrize("dim,cutoff", SIDES[1:])
def test_singular_symmetric_factor_is_followed_at_the_same_shift(
        rungs, lapack_calls, monkeypatch, caplog, dim, cutoff):
    m, e = known_spectrum(dim)
    rungs.fail = (1,)
    with caplog.at_level(logging.INFO, logger="jointspec"):
        w, _ = ladder_solve(rungs, monkeypatch, m, dim, cutoff)
    assert abs(w - e[0]) <= 1e-12
    assert rungs == [1, 2] and lapack_calls == []
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [
        f"singular factorization at shift 0 (dim {dim})"]


@pytest.mark.parametrize("block,ladder", [([[0.0, 0.5], [0.5, 0.0]], [2]),
                                          ([[1.0, 1.0], [1.0, 1.0]], [1, 2, 3])])
def test_repeated_ladder_solves_repeat_bytewise(rungs, monkeypatch, block,
                                                ladder):
    m, _ = with_block(600, block)
    first = ladder_solve(rungs, monkeypatch, m, 600, 550)
    again = ladder_solve(rungs, monkeypatch, m, 600, 550)
    assert rungs == ladder * 2
    assert first[0] == again[0] and first[1].tobytes() == again[1].tobytes()
