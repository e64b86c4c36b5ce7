import json

import numpy as np
import pytest
import scipy.sparse as sp

from jointspec.clifford import build_clifford
from jointspec.composites import (ObservableTuple, _coo, localizer,
                                  quadratic_gap, quadratic_operator)
from jointspec.errors import (CTooLarge, DimensionMismatch, EmptyBall,
                              ParameterOutOfRange, ZNotInvertible)
from jointspec.models import build_chern2d, build_ssh
from jointspec.operators import HermitianOperator, operator_norm
from jointspec.truncation import (TruncationCertificate, compress_to_ball,
                                  distance_operator, modified_gap_bounds,
                                  perturbation_constant, shift_to_origin,
                                  truncated_gap)

rng = np.random.default_rng(23)


def random_hermitian(n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2


def diag_tuple_with_h(h=None):
    x = np.diag([-3.0, 4.0, 1.0, 2.0]).astype(complex)
    y = np.diag([4.0, -3.0, 2.0, 1.0]).astype(complex)
    if h is None:
        h = random_hermitian(4)
    return ObservableTuple([x, y, h], commuting_prefix=2)


def test_distance_operator_diagonal():
    t = ObservableTuple([np.diag([-3.0, 4.0]), np.diag([4.0, -3.0]),
                         np.zeros((2, 2))], commuting_prefix=2)
    z = distance_operator(t)
    np.testing.assert_allclose(z.diagonal().real, [5.0, 5.0])


def test_distance_operator_site_at_origin():
    t = ObservableTuple([np.diag([0.0, 1.0]), np.zeros((2, 2))],
                        commuting_prefix=1)
    with pytest.raises(ZNotInvertible):
        distance_operator(t)


def test_perturbation_constant_refuses_an_h0_of_another_dimension():
    t = build_ssh(4)
    with pytest.raises(DimensionMismatch):
        perturbation_constant(t, t.hamiltonian,
                              HermitianOperator(np.zeros((3, 3))))


def test_perturbation_constant_trivial_cases():
    t = diag_tuple_with_h()
    h = t.ops[-1]
    zero = HermitianOperator(np.zeros((4, 4)))
    assert perturbation_constant(t, h, zero) == 0.0
    h0 = HermitianOperator(random_hermitian(4))
    z = distance_operator(t)
    zinv = np.diag(1.0 / z.diagonal().real)
    expected = operator_norm(zinv @ (h0.mat @ h0.mat) @ zinv)
    assert np.isclose(perturbation_constant(t, zero, h0), expected)


def test_modified_gap_sandwich_random_draws():
    violations = 0
    for _ in range(60):
        t = diag_tuple_with_h()
        h0 = HermitianOperator(random_hermitian(4, scale=0.2))
        try:
            cert = modified_gap_bounds(t, h0)
        except CTooLarge:
            continue
        if not (cert.lower - 1e-8 <= cert.mu_truncated <= cert.upper + 1e-8):
            violations += 1
    assert violations == 0


def test_modified_gap_identity_for_zero_h0():
    t = diag_tuple_with_h()
    cert = modified_gap_bounds(t, HermitianOperator(np.zeros((4, 4))))
    assert cert.C == 0.0
    assert np.isclose(cert.lower, cert.upper)
    assert np.isclose(cert.mu_truncated, cert.mu_full)


def test_c_too_large_raises(monkeypatch):
    import jointspec.truncation as truncation

    def no_gap(*args, **kwargs):
        raise AssertionError("a gap was solved before C was checked")

    monkeypatch.setattr(truncation, "quadratic_gap", no_gap)
    t = diag_tuple_with_h(h=random_hermitian(4))
    h0 = HermitianOperator(random_hermitian(4, scale=50.0))
    with pytest.raises(CTooLarge):
        modified_gap_bounds(t, h0)


def test_compress_identity_and_idempotent():
    t = diag_tuple_with_h()
    full, keep = compress_to_ball(t, rho=100.0)
    assert keep.size == 4
    np.testing.assert_allclose(full.ops[2].dense(), t.ops[2].dense())
    once, keep1 = compress_to_ball(t, rho=3.0)
    twice, keep2 = compress_to_ball(once, rho=3.0)
    assert keep1.size == keep2.size
    np.testing.assert_allclose(once.ops[0].dense(), twice.ops[0].dense())


def test_compress_ssh_window():
    t = build_ssh(4, 0.7, 1.4)
    shifted = shift_to_origin(t, [4.0, 0.0])
    _, keep = compress_to_ball(shifted, rho=2.5)
    # sites with |x - 4| <= 2.5: positions 2..6 (0-based indices 1..5)
    np.testing.assert_array_equal(keep, [1, 2, 3, 4, 5])


def test_compress_chern_ball_counting():
    t = build_chern2d(20, 20)
    _, keep = compress_to_ball(t, rho=5.0)
    coords = (np.arange(20) - 9.5)
    count = sum(1 for x in coords for y in coords if np.hypot(x, y) <= 5.0)
    assert keep.size == 2 * count


def test_compress_empty_ball():
    t = diag_tuple_with_h()
    with pytest.raises(EmptyBall):
        compress_to_ball(t, rho=0.1)
    with pytest.raises(ParameterOutOfRange):
        compress_to_ball(t, rho=-1.0)
    hopping = ObservableTuple([np.array([[0.0, 1.0], [1.0, 0.0]]),
                               np.eye(2)], commuting_prefix=1)
    with pytest.raises(ParameterOutOfRange, match="diagonal position"):
        compress_to_ball(hopping, rho=2.0)


def test_truncated_gap_full_radius_is_exact():
    t = diag_tuple_with_h()
    mu = quadratic_gap(t, [0.0, 0.0, 0.0])
    value, cert = truncated_gap(t, rho=100.0)
    assert np.isclose(value, mu, atol=1e-10)
    assert cert.C == 0.0


def test_truncated_gap_clamps_at_rho():
    h = np.diag([50.0, 60.0, 70.0, 80.0]).astype(complex)
    t = diag_tuple_with_h(h=h)
    value, _ = truncated_gap(t, rho=2.3)
    assert value == 2.3


def test_truncated_gap_certificate_brackets_full(tmp_path):
    t = build_chern2d(20, 20)
    mu_full = quadratic_gap(t, [0.0, 0.0, 0.0])
    shifted = shift_to_origin(t, [0.0, 0.0, 0.0])
    value, cert = truncated_gap(shifted, rho=8.0, mu_full=mu_full)
    assert cert.valid
    lo, hi = cert.full_gap_interval()
    assert lo - 1e-8 <= mu_full <= hi + 1e-8
    path = tmp_path / "cert.json"
    cert.to_json(path)
    assert path.exists()


def _far_field_zeroing(h, keep, dim):
    """H0 = -(H - P H P): cancels every entry of H touching the far field."""
    proj = sp.diags(np.isin(np.arange(dim), keep).astype(float), format="csr")
    return HermitianOperator(proj @ h.mat @ proj - h.mat)


def zeroed_then_compressed(t, rho):
    """The ladder rung computed by zeroing the far field of H on the full
    lattice and compressing the zeroed tuple, with that zeroing H0."""
    h = t.ops[-1]
    _, keep = compress_to_ball(t, rho)
    h0 = _far_field_zeroing(h, keep, t.dim)
    zeroed = ObservableTuple(
        list(t.ops[:-1]) + [HermitianOperator(h.mat + h0.mat)],
        commuting_prefix=t.commuting_prefix, meta=t.meta)
    compressed, _ = compress_to_ball(zeroed, rho)
    mu = quadratic_gap(compressed, np.zeros(t.d_total))
    return float(min(rho, mu)), h0


@pytest.mark.parametrize("model,lam,rhos", [
    (build_ssh(30, 0.7, 1.4), [30.3, 0.1], (2.0, 5.0, 15.0)),
    (build_chern2d(20, 20), [0.3, 0.2, 0.1], (2.0, 5.0, 10.0)),
])
def test_ladder_equals_compressed_zeroed_tuple(model, lam, rhos):
    # H + H0 = P H P equals H on the ball, so the rung needs no zeroed tuple;
    # its C, from (PHP)^2 - H^2, is the perturbation constant of that H0 up
    # to rounding, and the dense spectral norm of its definition
    shifted = shift_to_origin(model, lam)
    h = shifted.ops[-1]
    zinv = np.diag(1.0 / distance_operator(shifted).diagonal().real)
    for rho in rhos:
        value, cert = truncated_gap(shifted, rho)
        ref, h0 = zeroed_then_compressed(shifted, rho)
        assert value == ref
        c = perturbation_constant(shifted, h, h0)
        assert abs(cert.C - c) <= 1e-14 * c
        hm, h0m = h.dense(), h0.dense()
        dense = np.linalg.norm(
            zinv @ (hm @ h0m + h0m @ hm + h0m @ h0m) @ zinv, 2)
        assert abs(cert.C - dense) <= 1e-12 * dense


def test_chern_commutator_bound_matches_dense_norm():
    from jointspec.composites import commutator_bound_2d

    t = build_chern2d(20, 20)
    x, y, h = (o.dense() for o in t.ops)
    a = x + 1j * y
    ref = np.linalg.norm(h @ a - a @ h, 2)
    assert t.ops[-1].is_sparse
    assert abs(commutator_bound_2d(t) - ref) <= 1e-12 * ref


def test_rung_constant_matches_dense_norm():
    shifted = shift_to_origin(build_chern2d(20, 20), [0.3, 0.2, 0.1])
    h = shifted.ops[-1]
    _, keep = compress_to_ball(shifted, 5.0)
    h0 = _far_field_zeroing(h, keep, shifted.dim)
    assert h0.is_sparse
    zinv = np.diag(1.0 / distance_operator(shifted).diagonal().real)
    hm, h0m = h.dense(), h0.dense()
    ref = np.linalg.norm(zinv @ (hm @ h0m + h0m @ hm + h0m @ h0m) @ zinv, 2)
    c = perturbation_constant(shifted, h, h0)
    assert abs(c - ref) <= 1e-12 * ref
    assert c == perturbation_constant(shifted, h, h0)


def _fully_dense_tuple(n, seed):
    """Diagonal X and a fully dense Hermitian H: H stays dense above 512."""
    r = np.random.default_rng(seed)
    a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return ObservableTuple([np.diag(np.linspace(-2.0, 2.0, n)),
                            (a + a.conj().T) / 2], commuting_prefix=1)


def _lapack_constant(t, h, h0):
    zinv = np.diag(1.0 / distance_operator(t).diagonal().real)
    hm, h0m = h.dense(), h0.dense()
    return np.linalg.norm(zinv @ (hm @ h0m + h0m @ hm + h0m @ h0m) @ zinv, 2)


def test_dense_stored_rung_constant_above_512_matches_lapack_norm():
    # a fully dense H of dim 600 stays dense, so C's middle factor is a
    # dense matrix, scaled in place and normed by operator_norm's Lanczos
    # kernel; LAPACK's 2-norm is the check
    t = shift_to_origin(_fully_dense_tuple(600, seed=5), [0.3, 0.0])
    h = t.ops[-1]
    assert not h.is_sparse
    _, keep = compress_to_ball(t, 0.5)
    h0 = _far_field_zeroing(h, keep, t.dim)
    assert not h0.is_sparse
    ref = _lapack_constant(t, h, h0)
    assert abs(truncated_gap(t, 0.5)[1].C - ref) <= 1e-12 * ref
    assert abs(perturbation_constant(t, h, h0) - ref) <= 1e-12 * ref


def test_constant_of_a_dense_h_and_a_csr_h0_matches_lapack_norm():
    # H stays dense and a diagonal H0 given dense is held in CSR: their
    # products sum to an np.matrix, which must be scaled entrywise
    t = shift_to_origin(_fully_dense_tuple(600, seed=6), [0.3, 0.0])
    h, h0 = t.ops[-1], HermitianOperator(np.diag(np.linspace(0.01, 0.02, 600)))
    assert not h.is_sparse and h0.is_sparse
    ref = _lapack_constant(t, h, h0)
    assert abs(perturbation_constant(t, h, h0) - ref) <= 1e-12 * ref


def test_csr_held_rung_constant_above_512_matches_lapack_norm():
    # an SSH-300 chain given dense (dim 600), held in CSR: C's middle
    # factor is normed by operator_norm's Lanczos kernel, LAPACK's 2-norm
    # is the check
    t = shift_to_origin(build_ssh(300), [300.3, 0.0])
    h = t.ops[-1]
    assert h.is_sparse
    _, keep = compress_to_ball(t, 10.0)
    h0 = _far_field_zeroing(h, keep, t.dim)
    ref = _lapack_constant(t, h, h0)
    assert abs(truncated_gap(t, 10.0)[1].C - ref) <= 1e-12 * ref
    assert abs(perturbation_constant(t, h, h0) - ref) <= 1e-12 * ref


def test_dense_stored_rung_forms_its_products_in_csr(monkeypatch):
    # a banded H given dense (SSH-300, dim 600 > 512) is held in CSR, so
    # truncated_gap's (PHP)^2 - H^2 and perturbation_constant's
    # H H0 + H0 H + H0^2 are formed in CSR, not as dense products
    import jointspec.truncation as truncation

    seen = []
    scaled_norm = truncation._scaled_norm
    monkeypatch.setattr(truncation, "_scaled_norm", lambda t, mid: (
        seen.append(sp.issparse(mid)), scaled_norm(t, mid))[1])
    t = shift_to_origin(build_ssh(300), [300.3, 0.0])
    assert t.ops[-1].is_sparse
    c = truncated_gap(t, 10.0)[1].C
    h0 = _far_field_zeroing(t.ops[-1], compress_to_ball(t, 10.0)[1], t.dim)
    assert abs(perturbation_constant(t, t.ops[-1], h0) - c) <= 1e-12 * c
    assert seen == [True, True]


def test_rotated_position_block_matches_diagonal():
    # a unitary rotation makes the position block non-diagonal: Z comes from
    # eigh and C from the dense inverse, and neither may move
    r = np.random.default_rng(41)
    herm = lambda a: (a + a.conj().T) / 2  # noqa: E731
    t = diag_tuple_with_h(h=herm(r.standard_normal((4, 4))))
    h0 = HermitianOperator(herm(0.05 * r.standard_normal((4, 4))))
    u = np.linalg.qr(r.standard_normal((4, 4))
                     + 1j * r.standard_normal((4, 4)))[0]
    rot = lambda m: u @ m @ u.conj().T  # noqa: E731
    rotated = ObservableTuple([rot(o.dense()) for o in t.ops],
                              commuting_prefix=2)
    h0_rot = HermitianOperator(rot(h0.dense()))
    assert not rotated.ops[0].is_diagonal
    c = perturbation_constant(t, t.ops[-1], h0)
    c_rot = perturbation_constant(rotated, rotated.ops[-1], h0_rot)
    assert abs(c - c_rot) <= 1e-10
    cert, cert_rot = modified_gap_bounds(t, h0), modified_gap_bounds(rotated, h0_rot)
    for name in ("C", "mu_truncated", "mu_full", "lower", "upper"):
        assert abs(getattr(cert, name) - getattr(cert_rot, name)) <= 1e-10


def test_certificate_bounds_follow_c_and_mu_full():
    cert = TruncationCertificate(rho=3.0, C=0.44, mu_truncated=1.0,
                                 mu_full=2.0)
    assert cert.lower == float(np.sqrt(0.56) * 2.0)
    assert cert.upper == float(np.sqrt(1.44) * 2.0)
    vacuous = TruncationCertificate(rho=3.0, C=1.5, mu_truncated=1.0,
                                    mu_full=2.0)
    assert vacuous.lower == 0.0 and vacuous.upper == float(np.sqrt(2.5) * 2.0)
    bare = TruncationCertificate(rho=3.0, C=0.44, mu_truncated=1.0)
    assert bare.lower == 0.0 and bare.upper == np.inf


def test_certificate_without_full_gap_is_valid_json(tmp_path):
    # no mu_full: the upper bound is infinite and must be written as null
    t = shift_to_origin(build_ssh(30, 0.7, 1.4), [15.3, 0.0])
    _, cert = truncated_gap(t, 4.0)
    assert cert.upper == np.inf
    path = tmp_path / "cert.json"
    cert.to_json(path)

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert doc["upper"] is None and doc["mu_full"] is None
    assert doc["lower"] == 0.0 and doc["C"] == cert.C


def test_ball_localizer_is_a_restriction_and_ball_q_is_not():
    # L is linear in the observables, so the ball's L is the parent's L
    # restricted to the ball; Q squares them and (H_kk)^2 != (H^2)_kk, so a
    # ball's Q pencil cannot be taken from the parent's
    t = shift_to_origin(build_chern2d(8, 8), [0.3, -0.2, 0.0])
    ball, keep = compress_to_ball(t, 2.5)
    zero, rep = np.zeros(3), build_clifford(3)
    lfull = localizer(t, zero, rep).dense()
    r = lfull.shape[0] // t.dim
    idx = (keep[:, None] * r + np.arange(r)).ravel()
    assert np.array_equal(localizer(ball, zero, rep).dense(),
                          lfull[np.ix_(idx, idx)])
    qfull = quadratic_operator(t, zero).dense()[np.ix_(keep, keep)]
    assert np.abs(quadratic_operator(ball, zero).dense() - qfull).max() > 1.0


@pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
def test_storage_agnostic_helpers(storage):
    # SSH-30 stored dense or sparse: the far-field zeroing and Z agree with
    # dense references, and _coo lists entries in np.nonzero's order
    ssh = build_ssh(30, 0.7, 1.4)
    t = shift_to_origin(ObservableTuple([storage(o.mat) for o in ssh.ops],
                                        commuting_prefix=1), [30.3, 0.1])
    h = t.ops[-1]
    _, keep = compress_to_ball(t, 5.0)
    ref = -h.dense()
    ref[np.ix_(keep, keep)] = 0.0
    assert np.array_equal(_far_field_zeroing(h, keep, t.dim).dense(), ref)
    z = distance_operator(t)
    assert z.is_diagonal and z.is_sparse
    assert np.array_equal(z.dense(), np.diag(np.abs(t.ops[0].diagonal())))
    rows, cols, vals = _coo(h.mat)
    r, c = np.nonzero(h.dense())
    assert np.array_equal(rows, r) and np.array_equal(cols, c)
    assert np.array_equal(vals, h.dense()[r, c])
