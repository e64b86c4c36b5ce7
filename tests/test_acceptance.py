"""Acceptance gate: one test per headline claim, each printing a pass line.

These tests exercise the package end to end at the resolutions and tolerances
the library is specified to meet; the module test files cover the unit-level
behavior.
"""

import time

import numpy as np
import pytest
import scipy.optimize

import jointspec as js
from jointspec.composites import reduced_localizer
from jointspec.models import ssh_grading
from jointspec.operators import HermitianOperator
from jointspec.sweep import GridSpec, sweep_grid

REP2 = js.build_clifford(2)


def _report(n, text):
    print(f"\n[criterion {n}] PASS — {text}")


# -- 1: closed-form oracle on the Pauli pair --------------------------------


def test_criterion_1_closed_form_oracle():
    start = time.monotonic()
    t = js.build_example("pauli_pair")
    spec = GridSpec(axes=((-2.0, 2.0, 101), (-2.0, 2.0, 101)))
    gq = sweep_grid(t, spec, "quadratic")
    gc = sweep_grid(t, spec, "clifford")
    xs, ys = spec.points(0), spec.points(1)
    r = np.sqrt(xs[:, None] ** 2 + ys[None, :] ** 2)
    exact_q = np.sqrt(r ** 2 + 2 - 2 * r)
    exact_c = np.sqrt(r ** 2 + 2 - 2 * np.sqrt(r ** 2 + 1))
    assert np.max(np.abs(gq.values - exact_q)) <= 1e-8
    assert np.max(np.abs(gc.values - exact_c)) <= 1e-8
    ic = np.unravel_index(np.argmin(gc.values), gc.values.shape)
    assert gc.values[ic] <= 1e-12
    assert xs[ic[0]] == 0.0 and ys[ic[1]] == 0.0
    assert abs(gq.values.min() - 1.0) <= 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"both 101x101 grids match the closed forms to 1e-8; "
               f"grid minima correct ({elapsed:.1f}s)")


# -- 2: tightness of the commutator bound at the origin ---------------------


def test_criterion_2_bound_tight_at_origin():
    t = js.build_example("pauli_pair")
    mu_q = js.quadratic_gap(t, [0.0, 0.0])
    mu_c = js.clifford_gap(t, [0.0, 0.0], REP2)
    bound = js.commutator_bound(t)
    assert abs(bound - 2.0) <= 1e-10
    assert abs((mu_q ** 2 - mu_c ** 2) - 2.0) <= 1e-10
    _report(2, "mu_q^2 - mu_c^2 = 2 = ||[s_x, s_y]|| at the origin to 1e-10")


# -- 3: quoted eigenvalues of the worked examples ---------------------------


def _match(computed, quoted, tol):
    for q in quoted:
        assert np.min(np.abs(computed - q)) <= tol, (q, computed)


def test_criterion_3_quoted_eigenvalues():
    start = time.monotonic()
    t3 = js.build_example("pair_3x3")
    e3 = np.linalg.eigvals(t3.ops[0].dense() + 1j * t3.ops[1].dense())
    _match(e3, [0.0, 1.272 + 0.786j, -1.272 - 0.786j], 5e-4)

    t4 = js.build_example("pair_4x4")
    a4 = t4.ops[0].dense() + 1j * t4.ops[1].dense()
    e4 = np.linalg.eigvals(a4)
    _match(e4, [-1.7638, 1.4400, 0.6619 + 1.2371j, 0.6619 - 1.2371j], 5e-4)
    assert js.determinant_sign_index(a4) == -1

    t7 = js.build_example("class_d_7")
    a7 = t7.ops[0].dense() + 1j * t7.ops[1].dense()
    e7 = np.linalg.eigvals(a7)
    _match(e7, [-1.1603, -2.7876 + 1.2941j, -2.7876 - 1.2941j,
                2.8020 + 1.2703j, 2.8020 - 1.2703j], 5e-4)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(3, "all quoted eigenvalues and the sign index reproduced to 5e-4")


# -- 4: dimerized-chain indicator images ------------------------------------


def _strict_local_minima(values, threshold):
    padded = np.pad(values, 1, constant_values=np.inf)
    minima = []
    nx, ny = values.shape
    for i in range(nx):
        for j in range(ny):
            v = values[i, j]
            if v > threshold:
                continue
            neigh = padded[i:i + 3, j:j + 3].copy()
            neigh[1, 1] = np.inf
            if v < neigh.min():
                minima.append((i, j))
    return minima


def test_criterion_4_ssh_indicator_images():
    start = time.monotonic()
    t = js.build_ssh(4, 0.7, 1.4)
    spec = GridSpec(axes=((0.0, 9.0, 101), (-3.0, 3.0, 101)))
    gc = sweep_grid(t, spec, "clifford")
    gq = sweep_grid(t, spec, "quadratic")
    assert gq.values.min() > 0

    # the grid cannot land exactly on the off-grid zeros, so locate the
    # basins on the grid and polish each one continuously below 1e-3
    minima = _strict_local_minima(gc.values, threshold=0.06)
    assert len(minima) == 8
    xs, ys = spec.points(0), spec.points(1)
    end_zero_modes = [
        (i, j) for i, j in minima
        if abs(ys[j]) < 0.1 and (xs[i] < 2.0 or xs[i] > 7.0)]
    assert len(end_zero_modes) == 2
    for i, j in minima:
        res = scipy.optimize.minimize(
            lambda lam: js.clifford_gap(t, lam, REP2),
            x0=[xs[i], ys[j]], method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-12})
        assert res.fun < 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(4, f"8 localizer-gap minima (refined below 1e-3, two zero-energy "
               f"end modes); quadratic image strictly positive ({elapsed:.1f}s)")


# -- 5: spectral flow along the hopping interpolation -----------------------


def test_criterion_5_spectral_flow():
    ts = np.linspace(0.0, 1.0, 101)
    lam = [4.0, 0.0]
    flow_q = js.spectral_flow(js.build_ssh_path, lam, ts, "quadratic_sqrt")
    assert all(spec.min() > 0 for spec in flow_q.spectra)

    flow_l = js.spectral_flow(js.build_ssh_path, lam, ts, "localizer")
    for spec in flow_l.spectra:
        assert np.max(np.abs(spec + spec[::-1])) <= 1e-9

    g = ssh_grading(8)
    signs = []
    for tv in ts:
        model = js.build_ssh_path(float(tv))
        red = reduced_localizer(model.ops[0], model.ops[1], 4.0, g)
        det = np.linalg.det(red)
        assert abs(det.imag) <= 1e-9 * abs(det)
        signs.append(int(np.sign(det.real)))
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips % 2 == 1
    _report(5, f"quadratic spectrum never zero; localizer symmetric to 1e-9; "
               f"reduced determinant real with {flips} sign flip(s)")


# -- 6: property suites over random instances -------------------------------


N_INSTANCES = 500


def _random_tuple(r, d, n):
    ops = []
    for _ in range(d):
        a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        ops.append((a + a.conj().T) / 2)
    return js.ObservableTuple(ops)


def test_criterion_6a_four_ways_equality():
    r = np.random.default_rng(101)
    for _ in range(N_INSTANCES):
        d = int(r.integers(1, 4))
        n = int(r.integers(2, 13))
        t = _random_tuple(r, d, n)
        lam = r.standard_normal(d)
        mu = js.quadratic_gap(t, lam)
        sigma = js.smallest_singular_value(js.tall_composite(t, lam))
        state, _, _ = js.minimizing_state(t, lam)
        err = np.sqrt(sum(js.eigen_error(t.ops[j], state, lam[j]) ** 2
                          for j in range(d)))
        var_form = np.sqrt(sum(
            js.variance_sq(t.ops[j], state)
            + (js.expectation(t.ops[j], state) - lam[j]) ** 2
            for j in range(d)))
        assert abs(mu - sigma) <= 1e-8 * max(1.0, mu)
        assert abs(mu - err) <= 1e-7 * max(1.0, mu)
        assert abs(mu - var_form) <= 1e-7 * max(1.0, mu)
    _report(6, "four-ways equality: 500 random instances, zero violations")


def test_criterion_6b_commutator_bound():
    r = np.random.default_rng(102)
    for _ in range(N_INSTANCES):
        d = int(r.integers(2, 4))
        n = int(r.integers(2, 13))
        t = _random_tuple(r, d, n)
        lam = r.standard_normal(d)
        rep = js.build_clifford(d)
        mu_q = js.quadratic_gap(t, lam)
        mu_c = js.clifford_gap(t, lam, rep)
        assert abs(mu_q ** 2 - mu_c ** 2) <= js.commutator_bound(t) + 1e-8
    _report(6, "commutator bound: 500 random instances, zero violations")


def test_criterion_6c_lipschitz_both_gaps():
    r = np.random.default_rng(103)
    for _ in range(N_INSTANCES):
        d = int(r.integers(1, 4))
        n = int(r.integers(2, 13))
        t = _random_tuple(r, d, n)
        rep = js.build_clifford(d)
        lam = r.standard_normal(d)
        gam = lam + 0.5 * r.standard_normal(d)
        dist = float(np.linalg.norm(lam - gam))
        for gap in (js.quadratic_gap,
                    lambda tt, ll: js.clifford_gap(tt, ll, rep)):
            assert abs(gap(t, lam) - gap(t, gam)) <= dist + 1e-8
    _report(6, "1-Lipschitz continuity: 500 random instances, zero violations")


def test_criterion_6d_eigen_error_identity():
    r = np.random.default_rng(104)
    for _ in range(N_INSTANCES):
        n = int(r.integers(2, 13))
        a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        op = HermitianOperator((a + a.conj().T) / 2)
        v = js.StateVector(r.standard_normal(n) + 1j * r.standard_normal(n),
                           normalize=True)
        lam = float(r.standard_normal())
        lhs = js.eigen_error(op, v, lam) ** 2
        rhs = js.variance_sq(op, v) + (js.expectation(op, v) - lam) ** 2
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, lhs)
    _report(6, "eigen-error identity: 500 random instances, zero violations")


def test_criterion_6e_overlap_lemma(overlap_bound_check):
    r = np.random.default_rng(105)
    checked = 0
    for _ in range(N_INSTANCES):
        n = int(r.integers(2, 13))
        a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        op = HermitianOperator((a + a.conj().T) / 2)
        v = js.StateVector(r.standard_normal(n) + 1j * r.standard_normal(n),
                           normalize=True)
        w = js.StateVector(r.standard_normal(n) + 1j * r.standard_normal(n),
                           normalize=True)
        lam, mu = sorted(r.standard_normal(2))
        if mu - lam < 1e-6:
            continue
        assert overlap_bound_check(op, v, w, float(lam), float(mu))
        checked += 1
    assert checked >= 490
    _report(6, f"overlap lemma: {checked} random instances, zero violations")


def test_criterion_6f_unitary_invariance():
    r = np.random.default_rng(106)
    for _ in range(N_INSTANCES):
        d = int(r.integers(1, 4))
        n = int(r.integers(2, 13))
        t = _random_tuple(r, d, n)
        rep = js.build_clifford(d)
        q, _ = np.linalg.qr(r.standard_normal((n, n))
                            + 1j * r.standard_normal((n, n)))
        rotated = js.ObservableTuple([q @ op.mat @ q.conj().T for op in t.ops])
        lam = r.standard_normal(d)
        assert abs(js.quadratic_gap(t, lam)
                   - js.quadratic_gap(rotated, lam)) <= 1e-8
        assert abs(js.clifford_gap(t, lam, rep)
                   - js.clifford_gap(rotated, lam, rep)) <= 1e-8
    _report(6, "unitary invariance: 500 random instances, zero violations")


def test_criterion_6g_symmetry_theorem():
    # S commutes with every observable except one, which it anticommutes
    # with; the gaps are then even in that probe coordinate
    r = np.random.default_rng(107)
    for _ in range(N_INSTANCES):
        n1 = int(r.integers(1, 7))
        n2 = int(r.integers(1, 7))
        s = np.diag(np.concatenate([np.ones(n1), -np.ones(n2)]))
        a = r.standard_normal((n1, n1)) + 1j * r.standard_normal((n1, n1))
        b = r.standard_normal((n2, n2)) + 1j * r.standard_normal((n2, n2))
        x1 = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        x1[:n1, :n1] = (a + a.conj().T) / 2
        x1[n1:, n1:] = (b + b.conj().T) / 2
        c = r.standard_normal((n1, n2)) + 1j * r.standard_normal((n1, n2))
        x2 = np.zeros_like(x1)
        x2[:n1, n1:] = c
        x2[n1:, :n1] = c.conj().T
        t = js.ObservableTuple([x1, x2])
        lam = r.standard_normal(2)
        assert js.verify_symmetry(t, s, 1, lam, REP2)
    _report(6, "symmetry theorem: 500 random instances, zero violations")


# -- 7: Chern insulator slice -----------------------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "the target constant 2.79 is not attained: for this model "
    "||[H, X+iY]|| = 3.04 at lattice constant 1 (1.52 after the 0.5 position "
    "scale), while 2.79 matches ||[H, X]|| only for a cosine-coupled hop "
    "variant whose bulk bands are topologically trivial and show no boundary "
    "gap closing"))
def test_criterion_7a_commutator_constant():
    t = js.build_chern2d(20, 20)
    value = js.commutator_bound_2d(t)
    assert abs(value - 2.79) <= 0.05


@pytest.mark.slow
def test_criterion_7b_chern_slice():
    start = time.monotonic()
    t = js.scale_positions(js.build_chern2d(20, 20), 0.5)
    spec = GridSpec(axes=((-4.75, 4.75, 41), (-4.75, 4.75, 41)),
                    fixed_coords={2: 0.0})
    gc = sweep_grid(t, spec, "clifford", workers=4)
    gq = sweep_grid(t, spec, "quadratic", workers=4)

    ic = np.unravel_index(np.argmin(gc.values), gc.values.shape)
    xs, ys = spec.points(0), spec.points(1)
    assert gc.values[ic] < 0.05
    assert max(abs(xs[ic[0]]), abs(ys[ic[1]])) > 3.5  # near the boundary
    assert gq.values.min() > 0.3  # quadratic gap never closes on the slice

    bound = js.commutator_bound_2d(t)
    assert np.all(np.abs(gq.values ** 2 - gc.values ** 2) <= bound + 1e-8)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(7, f"localizer gap dips to {gc.values[ic]:.3g} near the boundary; "
               f"quadratic stays above {gq.values.min():.2f}; bound holds at "
               f"all 1681 cells ({elapsed:.0f}s)")


# -- 8: certified truncation ------------------------------------------------


@pytest.mark.slow
def test_criterion_8_truncation():
    start = time.monotonic()
    r = np.random.default_rng(108)
    verified = 0
    attempts = 0
    while verified < 200 and attempts < 2000:
        attempts += 1
        n = int(r.integers(2, 17))
        x = np.diag(1.0 + 4.0 * r.random(n))
        a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        b = 0.25 * (r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)))
        h0 = HermitianOperator((b + b.conj().T) / 2)
        t = js.ObservableTuple([x, h], commuting_prefix=1)
        try:
            cert = js.modified_gap_bounds(t, h0)
        except js.JointSpecError:
            continue
        assert cert.lower - 1e-8 <= cert.mu_truncated <= cert.upper + 1e-8
        verified += 1
    assert verified == 200

    ch = js.build_chern2d(100, 100)
    mu_full = js.quadratic_gap(ch, [0.0, 0.0, 0.0])
    shifted = js.shift_to_origin(ch, [0.0, 0.0, 0.0])
    prev_diff = np.inf
    for rho in (5.0, 10.0, 15.0, 20.0):
        value, cert = js.truncated_gap(shifted, rho, mu_full=mu_full)
        assert cert.valid
        lo, hi = cert.full_gap_interval()
        assert lo - 1e-8 <= mu_full <= hi + 1e-8
        diff = abs(value - mu_full)
        assert diff <= prev_diff + 1e-12
        prev_diff = diff
    elapsed = time.monotonic() - start
    assert elapsed < 1200.0
    _report(8, f"200 random sandwich draws verified; 100x100 lattice ladder "
               f"converges with certified intervals containing the full gap "
               f"({elapsed:.0f}s)")


# -- 9: localized-state kappa tradeoff --------------------------------------


def test_criterion_9_kappa_tradeoff():
    start = time.monotonic()
    t = js.build_chern2d(20, 20)
    reports = js.kappa_sweep(t, [9.0, 0.0, 0.0], [0.5, 0.25, 0.1])
    e_vars = [rep.energy_variance for rep in reports]
    p_vars = [rep.position_variances.sum() for rep in reports]
    assert e_vars[0] > e_vars[1] > e_vars[2]
    assert p_vars[0] < p_vars[1] < p_vars[2]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(9, f"energy variance falls {e_vars[0]:.3f}->{e_vars[2]:.3f} while "
               f"position variance grows {p_vars[0]:.2f}->{p_vars[2]:.2f} as "
               f"kappa shrinks ({elapsed:.1f}s)")
