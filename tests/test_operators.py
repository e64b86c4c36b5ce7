import logging

import numpy as np
import pytest
import scipy.sparse as sp

from jointspec import operators
from jointspec.errors import (DimensionMismatch, InvalidOperator,
                              NumericalFailure)
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


def test_smallest_singular_value_rectangular():
    a = rng.standard_normal((12, 5))
    assert np.isclose(smallest_singular_value(a), np.linalg.svd(a)[1].min())


def test_nearest_zero_dense_input():
    a = np.diag([-3.0, 0.5, 2.0])
    w, _ = eigenpair_nearest_zero(a)
    assert np.isclose(abs(w[0]), 0.5)


def test_nearest_zero_sparse_matches_dense():
    n = 700
    diag = np.linspace(-5, 5, n)
    off = 0.3 * np.ones(n - 1)
    m = sp.diags([off, diag, off], [-1, 0, 1]).tocsr()
    dense_val = np.abs(np.linalg.eigvalsh(m.toarray())).min()
    w, _ = eigenpair_nearest_zero(m, accuracy=1e-10)
    assert np.isclose(abs(w[0]), dense_val, atol=1e-8)


def test_nearest_zero_vector():
    a = np.diag([4.0, 0.25, -2.0])
    w, v = eigenpair_nearest_zero(a)
    assert np.isclose(abs(w[0]), 0.25)
    assert np.isclose(abs(v[1, 0]), 1.0)


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
