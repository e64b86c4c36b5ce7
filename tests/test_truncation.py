import json

import numpy as np
import pytest

from jointspec.composites import ObservableTuple, quadratic_gap
from jointspec.errors import (CTooLarge, EmptyBall, ParameterOutOfRange,
                              ZNotInvertible)
from jointspec.models import build_chern2d, build_ssh
from jointspec.operators import HermitianOperator, operator_norm
from jointspec.truncation import (TruncationCertificate, _far_field_zeroing,
                                  compress_to_ball, distance_operator,
                                  modified_gap_bounds, perturbation_constant,
                                  shift_to_origin, truncated_gap)

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


def zeroed_then_compressed(t, rho):
    """The ladder rung computed by zeroing the far field of H on the full
    lattice and compressing the zeroed tuple."""
    h = t.ops[-1]
    _, keep = compress_to_ball(t, rho)
    h0 = _far_field_zeroing(h, keep, t.dim)
    zeroed = ObservableTuple(
        list(t.ops[:-1]) + [HermitianOperator(h.mat + h0.mat)],
        commuting_prefix=t.commuting_prefix, meta=t.meta)
    compressed, _ = compress_to_ball(zeroed, rho)
    mu = quadratic_gap(compressed, np.zeros(t.d_total))
    return float(min(rho, mu)), perturbation_constant(t, h, h0)


@pytest.mark.parametrize("model,lam,rhos", [
    (build_ssh(30, 0.7, 1.4), [30.3, 0.1], (2.0, 5.0, 15.0)),
    (build_chern2d(20, 20), [0.3, 0.2, 0.1], (2.0, 5.0, 10.0)),
])
def test_ladder_equals_compressed_zeroed_tuple(model, lam, rhos):
    # H + H0 = P H P equals H on the ball, so the rung needs no zeroed tuple
    shifted = shift_to_origin(model, lam)
    for rho in rhos:
        value, cert = truncated_gap(shifted, rho)
        assert (value, cert.C) == zeroed_then_compressed(shifted, rho)


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
