import json

import numpy as np
import pytest

from jointspec.composites import ObservableTuple
from jointspec.errors import ParameterOutOfRange
from jointspec.models import (ScaledTuple, build_chern2d, build_ssh,
                              scale_positions)
from jointspec.states import check_identity, extract_state, kappa_sweep


def commuting_toy():
    x = np.diag([1.0, 2.0])
    h = np.diag([5.0, 7.0])
    return ObservableTuple([x, h], commuting_prefix=1)


def test_exact_joint_eigenvector():
    rep = extract_state(commuting_toy(), [1.0, 5.0])
    np.testing.assert_allclose(np.abs(rep.state.vec), [1.0, 0.0], atol=1e-12)
    assert rep.position_variances[0] < 1e-12
    assert rep.energy_variance < 1e-12
    assert np.isclose(rep.energy_expectation, 5.0)
    assert rep.mu_q < 1e-9


def test_phase_fixed_real_positive():
    rep = extract_state(commuting_toy(), [2.0, 7.0])
    k = int(np.argmax(np.abs(rep.state.vec)))
    assert rep.state.vec[k].real > 0
    assert abs(rep.state.vec[k].imag) < 1e-12


def test_marginals_sum_to_one():
    t = build_ssh(4, 0.7, 1.4)
    rep = extract_state(t, [4.0, 0.0])
    assert np.isclose(rep.site_probabilities.sum(), 1.0, atol=1e-10)
    assert np.isclose(sum(w for _, w in rep.energy_weights), 1.0, atol=1e-10)
    assert rep.energy_weights_exact


def test_ssh_end_probe_finds_defect_state():
    t = build_ssh(4, 0.7, 1.4)
    rep = extract_state(t, [1.0, 0.0])
    # the zero mode of the dimerized chain lives on the odd sublattice near
    # the chain end; compare against the directly computed eigenvector
    evals, evecs = np.linalg.eigh(t.ops[1].dense())
    order = np.argsort(np.abs(evals))
    assert abs(rep.energy_expectation) < 0.2
    assert rep.site_probabilities[0] > 0.4
    # the finite chain hybridizes the two end modes into a +- pair, so
    # project onto their span rather than a single eigenvector
    span = evecs[:, order[:2]]
    weight = np.linalg.norm(span.conj().T @ rep.state.vec)
    assert weight > 0.9


def test_identity_check():
    t = build_ssh(4, 0.7, 1.4)
    rep = extract_state(t, [3.3, 0.7])
    assert check_identity(rep) < 1e-8


def test_scaled_probe_units():
    # probe given in unscaled units; expectations reported unscaled
    t = build_ssh(4, 0.7, 1.4)
    rep = extract_state(ScaledTuple(t, 0.5), [1.0, 0.0])
    assert 0.5 <= rep.position_expectations[0] <= 2.5
    assert rep.kappa == 0.5
    check_identity(rep)


def test_kappa_sweep_single_matches_extract():
    t = commuting_toy()
    a = kappa_sweep(t, [2.0, 7.0], [1.0])[0]
    b = extract_state(ScaledTuple(t, 1.0), [2.0, 7.0])
    np.testing.assert_allclose(a.state.vec, b.state.vec)
    assert a.mu_q == b.mu_q


def test_kappa_sweep_validation():
    with pytest.raises(ParameterOutOfRange):
        kappa_sweep(commuting_toy(), [1.0, 5.0], [0.5, -1.0])


def test_kappa_tradeoff_small_lattice():
    t = build_chern2d(10, 10)
    reports = kappa_sweep(t, [4.0, 0.0, 0.0], [0.5, 0.2])
    assert reports[1].energy_variance < reports[0].energy_variance
    assert (reports[1].position_variances.sum()
            > reports[0].position_variances.sum())


def test_no_energy_weights_above_the_dense_cutoff(monkeypatch, tmp_path):
    from jointspec import operators

    monkeypatch.setattr(operators, "DENSE_EIGEN_CUTOFF", 4)
    rep = extract_state(build_ssh(4, 0.7, 1.4), [4.0, 0.0])  # dim 8
    assert rep.energy_weights == []
    assert not rep.energy_weights_exact
    path = tmp_path / "state.json"
    rep.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["energy_weights"] == [] and not doc["energy_weights_exact"]
    check_identity(rep)


def test_report_json_roundtrip(tmp_path):
    t = build_chern2d(4, 4)
    rep = extract_state(ScaledTuple(t, 0.5), [1.0, 0.0, 0.0])
    path = tmp_path / "state.json"
    rep.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["kappa"] == 0.5
    assert np.isclose(sum(doc["site_probabilities"]), 1.0)
    assert doc["site_shape"] == [4, 4]


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), 0.0, -1.0])
def test_kappa_rule_has_one_home(kappa):
    t = commuting_toy()
    for call in (lambda: scale_positions(t, kappa),
                 lambda: ScaledTuple(t, kappa),
                 lambda: kappa_sweep(t, [1.0, 5.0], [0.5, kappa])):
        with pytest.raises(ParameterOutOfRange,
                           match="kappa must be positive and finite"):
            call()


def three_observables_one_position():
    # (X, Y, H) with only X in the position block: not (x..., E)
    x = np.diag([1.0, 2.0, 3.0])
    y = np.array([[0, 1.0, 0], [1.0, 0, 1.0], [0, 1.0, 0]])
    return ObservableTuple([x, y, np.diag([0.5, -0.5, 0.2])],
                           commuting_prefix=1)


@pytest.mark.parametrize("extract", [
    lambda t: extract_state(t, [1.0, 0.0, 0.0]),
    lambda t: kappa_sweep(t, [1.0, 0.0, 0.0], [1.0, 0.5]),
])
def test_tuple_must_be_positions_then_one_hamiltonian(extract):
    with pytest.raises(ParameterOutOfRange, match="followed by one Hamiltonian"):
        extract(three_observables_one_position())
